import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from heishardy.geometry import heis_space, koranyi_norm_array
from heishardy.mixed_norm import radial_norm_with_error
from heishardy.operators import (
    DUAL_HARDY,
    HARDY,
    OperatorKind,
    apply_operator,
    duality_pairing_check,
    power_weight,
    weight_from_callable,
)
from heishardy import quadrature
from heishardy.quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotReachedError,
    constant_profile,
    exp_profile,
    mixture_profile,
    power_profile,
    scaled_profile,
    zero_profile,
)

from _oracles import cesaro_truncated_power_norm, hardy_truncated_power_norm

INF = math.inf


class TestHardy:
    def test_constant_is_fixed_point(self, space1, spec):
        out = apply_operator(HARDY, constant_profile(1.0), space1, spec)
        for r in (0.3, 1.0, 7.5):
            assert abs(out.eval(r) - 1.0) <= 1e-9

    def test_linear_input(self, space1, spec):
        out = apply_operator(HARDY, power_profile(1.0), space1, spec)
        assert abs(out.eval(2.0) - 1.6) <= 1e-9  # Q/(Q+1) * r at Q=4

    def test_extremal_family_formula(self, space1, spec):
        # zero inside the unit ball, power beyond: output has the displayed
        # two-power form; checked here at r = 2 against both the formula and
        # brute-force quadrature
        eps, p, q = 0.01, 2.0, 4.0
        a = q / p + eps
        f = power_profile(-a, support=(1.0, INF))
        out = apply_operator(HARDY, f, space1, spec)
        formula = q / (q - a) * (2.0 ** -a - 2.0 ** -q)
        brute = (q / 2.0**q) * quad(lambda s: s ** (-a) * s ** (q - 1), 1.0, 2.0)[0]
        assert abs(out.eval(2.0) - formula) <= 1e-9
        assert abs(formula - brute) <= 1e-10
        assert out.eval(0.5) == 0.0

    def test_power_eigenrelation(self, space1, spec):
        # H(s^alpha) = Q/(Q+alpha) r^alpha on alpha > -Q
        for alpha in (-2.5, -1.0, 0.5, 2.0):
            out = apply_operator(HARDY, power_profile(alpha), space1, spec)
            for r in (0.5, 3.0):
                want = 4.0 / (4.0 + alpha) * r**alpha
                assert abs(out.eval(r) - want) <= 1e-8 * abs(want)

    def test_divergent_origin_is_typed_error(self, space1, spec):
        with pytest.raises(DivergentIntegralError):
            apply_operator(HARDY, power_profile(-4.0), space1, spec)

    def test_zero_passthrough(self, space1, spec):
        assert apply_operator(HARDY, zero_profile(), space1, spec).is_zero

    @pytest.mark.parametrize("n", [1, 2])
    def test_log_growth_declared_at_infinity(self, n, spec):
        # the mirror of the Cesaro side's tie at the origin: H r^{-Q} = Q r^{-Q} log r
        # beyond r = 1, so the output must declare a tail above -Q, not -Q
        space = heis_space(n)
        q = float(space.q)
        out = apply_operator(HARDY, power_profile(-q, support=(1.0, INF)), space, spec)
        assert out.tail_exponent > -q
        for p in (1.5, 2.0, 5.0):
            got = radial_norm_with_error(out, p, p, space, spec)
            exact = (space.omega_small ** (1.0 / p)
                     * (q**p * math.gamma(p + 1.0) / (q * (p - 1.0)) ** (p + 1.0)) ** (1.0 / p))
            assert abs(got.value - exact) <= got.error + 1e-14 * exact

    @pytest.mark.parametrize("a,lo,hi", [(0.7, 0.3, 2.7), (-1.0, 1e-9, 3.3), (0.0, 0.5, 1.7), (2.0, 0.1, 0.9)])
    @pytest.mark.parametrize("weighted", [False, True], ids=["hardy", "whardy"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_bounded_input_norm_sees_the_kink_at_sup_hi(self, a, lo, hi, weighted, n, p, spec):
        # H of r^a on (lo, hi) is kinked at hi as well as at lo: a norm that misses
        # the kink at hi is off by more than its error
        space = heis_space(n)
        q = float(space.q)
        kind, c, beta = ((OperatorKind("weighted_hardy", power_weight(1.0, 3.0)), 1.0, 3.0) if weighted
                         else (HARDY, q, q - 1.0))
        out = apply_operator(kind, power_profile(a, support=(lo, hi)), space, spec)
        got = radial_norm_with_error(out, p, p, space, spec)
        exact = space.omega_small ** (1.0 / p) * hardy_truncated_power_norm(a, lo, hi, c, beta, q, p)
        assert abs(got.value - exact) <= got.error + 1e-14 * abs(exact)

    def test_dilation_covariance(self, space1, spec):
        # (H f_lambda)(r) = (H f)(lambda r) for f_lambda(s) = f(lambda s)
        rng = np.random.default_rng(4)
        f = exp_profile(1.0)
        out = apply_operator(HARDY, f, space1, spec)
        for lam in rng.uniform(0.1, 10.0, size=4):
            f_lam = exp_profile(lam)
            out_lam = apply_operator(HARDY, f_lam, space1, spec)
            for r in (0.7, 2.2):
                assert abs(out_lam.eval(r) - out.eval(lam * r)) <= 1e-8


class TestDualHardy:
    def test_power_eigenrelation(self, space1, spec):
        out = apply_operator(DUAL_HARDY, power_profile(-2.0), space1, spec)
        assert abs(out.eval(2.0) - 0.5) <= 1e-9  # (Q/|alpha|) r^alpha

    def test_boxcar_logarithm(self, space1, spec):
        out = apply_operator(DUAL_HARDY, constant_profile(1.0, support=(1.0, 2.0)), space1, spec)
        want = 4.0 * math.log(2.0)
        assert abs(out.eval(0.5) - want) <= 1e-9
        assert abs(out.eval(0.01) - want) <= 1e-9  # constant below the support

    def test_zero_input(self, space1, spec):
        assert apply_operator(DUAL_HARDY, zero_profile(), space1, spec).is_zero

    def test_divergent_tail_is_typed_error(self, space1, spec):
        with pytest.raises(DivergentIntegralError):
            apply_operator(DUAL_HARDY, constant_profile(1.0), space1, spec)

    def test_exponential_input(self, space1, spec):
        out = apply_operator(DUAL_HARDY, exp_profile(1.0), space1, spec)
        brute = 4.0 * quad(lambda s: math.exp(-s) / s, 2.0, 60.0)[0]
        assert abs(out.eval(2.0) - brute) <= 1e-8


class TestWeightedHardy:
    def test_unit_weight_on_constant(self, space1, spec):
        out = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 0.0)),
                             constant_profile(2.5), space1, spec)
        assert abs(out.eval(1.3) - 2.5) <= 1e-9

    def test_unit_weight_on_linear(self, space1, spec):
        out = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 0.0)),
                             power_profile(1.0), space1, spec)
        assert abs(out.eval(3.0) - 1.5) <= 1e-9  # r/2

    def test_moment_example(self, space1, spec):
        out = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 2.0)),
                             power_profile(-1.0), space1, spec)
        assert abs(out.eval(2.0) - 0.25) <= 1e-9  # r^{-1}/2

    def test_divergent_moment_is_typed_error(self, space1, spec):
        with pytest.raises(DivergentIntegralError):
            apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 0.0)),
                           power_profile(-1.5), space1, spec)

    @pytest.mark.parametrize("beta", [1e3, 1e6, 1e8, 1e10])
    def test_steep_weight_matches_closed_form(self, beta, space1, spec):
        # t^beta puts the inner integral's mass within about 1/beta of t = 1:
        # int_{1/r}^1 (tr)^-2.5 t^beta dt = r^-2.5 (1 - r^-(beta-1.5)) / (beta-1.5)
        out = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, beta)),
                             power_profile(-2.5, support=(1.0, INF)), space1, spec)
        for r in (1.5, 2.0, 4.0, 100.0):
            want = r**-2.5 * -math.expm1(-(beta - 1.5) * math.log(r)) / (beta - 1.5)
            assert abs(out.eval(r) - want) <= 1e-12 * want

    def test_general_weight_matches_power(self, space1, spec):
        w_gen = weight_from_callable(lambda t: np.asarray(t) ** 2, zero_exponent=2.0)
        f = exp_profile(1.0)
        a = apply_operator(OperatorKind("weighted_hardy", w_gen), f, space1, spec)
        b = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 2.0)), f, space1, spec)
        for r in (0.5, 2.0):
            assert abs(a.eval(r) - b.eval(r)) <= 1e-8


class TestWeightedCesaro:
    def test_power_closed_form(self, space1, spec):
        # gamma = 2, beta = 2, Q = 4: output r^{-2}/(gamma+beta-Q+1) = r^{-2}
        out = apply_operator(OperatorKind("weighted_cesaro", power_weight(1.0, 2.0)),
                             power_profile(-2.0), space1, spec)
        assert abs(out.eval(2.0) - 0.25) <= 1e-9

    def test_kernel_cancellation(self, space1, spec):
        # w(t) = t^Q cancels the t^{-Q} kernel: constants map to themselves
        out = apply_operator(OperatorKind("weighted_cesaro", power_weight(1.0, 4.0)),
                             constant_profile(3.0), space1, spec)
        assert abs(out.eval(0.7) - 3.0) <= 1e-9

    def test_zero_input(self, space1, spec):
        assert apply_operator(OperatorKind("weighted_cesaro", power_weight(1.0, 2.0)),
                              zero_profile(), space1, spec).is_zero

    def test_divergent_screening_is_typed_error(self, space1, spec):
        with pytest.raises(DivergentIntegralError):
            apply_operator(OperatorKind("weighted_cesaro", power_weight(1.0, 0.0)),
                           constant_profile(1.0, support=(1.0, INF)), space1, spec)

    def test_log_blowup_declared_at_origin(self, space1, spec):
        # w(t) = t^{Q-1} cancels the kernel: the output is log(1/r) below
        # r = 1, so it must declare a negative origin order, not 0
        out = apply_operator(OperatorKind("weighted_cesaro", power_weight(1.0, 3.0)),
                             constant_profile(1.0, support=(0.0, 1.0)), space1, spec)
        assert abs(out.eval(1e-8) - math.log(1e8)) <= 1e-8
        assert out.origin_exponent < 0.0

    @pytest.mark.parametrize("a,lo,hi", [(0.7, 0.3, 2.7), (-1.0, 0.5, 1.7), (-2.0, 0.1, 0.9),
                                         (-0.5, 1.0, math.exp(5.0))])
    @pytest.mark.parametrize("weighted", [False, True], ids=["dual_hardy", "wcesaro"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_bounded_input_norm_sees_the_edge_at_sup_hi(self, a, lo, hi, weighted, n, p, spec):
        # H*w of r^a on (lo, hi) falls to 0 at hi across a layer of width 1/(beta - Q - a + 1)
        # and is kinked at lo; below lo it is a pure power
        space = heis_space(n)
        q = float(space.q)
        kind, c, beta = ((OperatorKind("weighted_cesaro", power_weight(1.0, 6.0)), 1.0, 6.0) if weighted
                         else (DUAL_HARDY, q, q - 1.0))
        out = apply_operator(kind, power_profile(a, support=(lo, hi)), space, spec)
        got = radial_norm_with_error(out, p, p, space, spec)
        exact = space.omega_small ** (1.0 / p) * cesaro_truncated_power_norm(a, lo, hi, c, beta, q, p)
        assert abs(got.value - exact) <= got.error + 1e-14 * abs(exact)


class TestEdgeLayer:
    """Breakpoints, in u = log r, of the layer where an output falls to 0 at its input's support edge."""

    @staticmethod
    def layer(hi, rate):
        """The layer below the Cesaro-side window's end hi, as apply_operator places it."""
        return [hi - 2.0**k / rate for k in range(5)]

    @pytest.mark.parametrize("weighted", [False, True], ids=["hardy", "whardy"])
    def test_hardy_side_output_carries_the_layer_above_sup_lo(self, weighted, space1, spec):
        # Hw of r^a on (lo, hi) rises from 0 at lo like 1 - (lo/r)^(a + beta + 1); beta = 3
        # for hardy's Q t^(Q-1) at Q = 4 and for t^3; the layer is the mirror of the reflected input's
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 3.0)) if weighted else HARDY
        out = apply_operator(kind, power_profile(0.7, support=(0.3, 2.7)), space1, spec)
        want = sorted([-u for u in self.layer(-math.log(0.3), 0.7 + 3.0 + 1.0)] + [math.log(0.3), math.log(2.7)])
        assert out.log_support == (math.log(0.3), INF)
        assert out.log_breakpoints == tuple(want)

    @pytest.mark.parametrize("weighted", [False, True], ids=["dual_hardy", "wcesaro"])
    def test_cesaro_side_output_carries_the_layer_below_sup_hi(self, weighted, space1, spec):
        # H*w of r^a on (lo, hi) falls to 0 at hi like 1 - (r/hi)^(beta - Q - a + 1), at Q = 4
        kind, beta = (OperatorKind("weighted_cesaro", power_weight(1.0, 6.0)), 6.0) if weighted else (DUAL_HARDY, 3.0)
        out = apply_operator(kind, power_profile(-1.0, support=(0.5, 1.7)), space1, spec)
        want = sorted(self.layer(math.log(1.7), beta - 4.0 + 1.0 + 1.0) + [math.log(0.5), math.log(1.7)])
        assert out.log_support == (-INF, math.log(1.7))
        assert out.log_breakpoints == tuple(want)

    def test_no_layer_without_a_finite_edge(self, space1, spec):
        # a Hardy-side output of an input reaching 0, or a Cesaro-side one of an input
        # reaching infinity, never falls to 0: only the input's other edge is a breakpoint
        head = power_profile(0.5, support=(0.0, 1.3))
        tail = power_profile(-3.5, support=(0.7, INF))
        assert apply_operator(HARDY, head, space1, spec).log_breakpoints == (math.log(1.3),)
        assert apply_operator(DUAL_HARDY, tail, space1, spec).log_breakpoints == (math.log(0.7),)
        # a probe-like mixture spans (0, inf): its outputs keep its own breakpoints only
        mix = mixture_profile([head, tail, exp_profile(1.5, 0.2)])
        for kind in (HARDY, DUAL_HARDY):
            assert apply_operator(kind, mix, space1, spec).log_breakpoints == mix.log_breakpoints

    @pytest.mark.parametrize("a", [5.0, 0.0])
    def test_no_layer_when_the_window_does_not_decay(self, a, space1, spec):
        # dual_hardy of r^a on (1, 2) has rate_hi = -a <= 0: no decay scale, no layer
        out = apply_operator(DUAL_HARDY, power_profile(a, support=(1.0, 2.0)), space1, spec)
        assert out.log_breakpoints == (0.0, math.log(2.0))

    def test_far_layer_points_are_kept(self, space1, spec):
        # at rate 2^-7 the layer spans 128 to 2048 in u, radii e^128 to e^2048 that float range
        # does not hold: in u every point is kept
        rate, far = 2.0**-7, [128.0, 256.0, 512.0, 1024.0, 2048.0]
        hardy = apply_operator(HARDY, power_profile(rate - 4.0, support=(1.0, INF)), space1, spec)
        assert hardy.log_breakpoints == tuple([0.0] + far)
        cesaro = apply_operator(DUAL_HARDY, power_profile(-rate, support=(1.0, 2.0)), space1, spec)
        assert cesaro.log_breakpoints == tuple(sorted([0.0, math.log(2.0)] + [math.log(2.0) - x for x in far]))

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_far_layer_norm(self, p, space1, spec):
        # the Cesaro-side output above, seeded through its whole layer, against the closed form
        rate, q = 2.0**-7, float(space1.q)
        out = apply_operator(DUAL_HARDY, power_profile(-rate, support=(1.0, 2.0)), space1, spec)
        got = radial_norm_with_error(out, p, p, space1, spec)
        exact = space1.omega_small ** (1.0 / p) * cesaro_truncated_power_norm(-rate, 1.0, 2.0, q, q - 1.0, q, p)
        assert abs(got.value - exact) <= got.error + 1e-14 * abs(exact)


class TestOperatorProperties:
    @pytest.mark.parametrize("kind", [
        HARDY,
        DUAL_HARDY,
        OperatorKind("weighted_hardy", power_weight(1.0, 1.0)),
        OperatorKind("weighted_cesaro", power_weight(1.0, 4.0)),
    ], ids=["hardy", "dual_hardy", "weighted_hardy", "weighted_cesaro"])
    def test_positivity(self, kind, space1, spec):
        f = mixture_profile([exp_profile(1.0), power_profile(-5.0, support=(1.0, INF))])
        out = apply_operator(kind, f, space1, spec)
        for r in (0.2, 1.0, 4.0):
            assert out.eval(r) >= 0.0

    def test_linearity(self, space1, spec):
        f = exp_profile(1.0)
        g = power_profile(-5.0, support=(1.0, INF))
        a, b = 2.0, -0.6
        combo = mixture_profile([
            exp_profile(1.0, coeff=a),
            power_profile(-5.0, coeff=b, support=(1.0, INF)),
        ])
        lhs = apply_operator(HARDY, combo, space1, spec)
        f_out = apply_operator(HARDY, f, space1, spec)
        g_out = apply_operator(HARDY, g, space1, spec)
        for r in (0.5, 1.5, 3.0):
            want = a * f_out.eval(r) + b * g_out.eval(r)
            assert abs(lhs.eval(r) - want) <= 1e-10 * max(1.0, abs(want))

    def test_dual_power_eigenrelation_range(self, space1, spec):
        for alpha in (-0.5, -2.0, -3.5):
            out = apply_operator(DUAL_HARDY, power_profile(alpha), space1, spec)
            for r in (0.8, 2.5):
                want = 4.0 / (-alpha) * r**alpha
                assert abs(out.eval(r) - want) <= 1e-8 * abs(want)


class TestDualityPairing:
    # fixed suite: (f, g, weight beta); all metadata-convergent
    SUITE = [
        (lambda: exp_profile(1.0), lambda: exp_profile(2.0), 0.0),
        (lambda: power_profile(-3.0, support=(1.0, INF)),
         lambda: constant_profile(1.0, support=(0.0, 1.0)), 1.0),
        (lambda: exp_profile(0.5), lambda: exp_profile(1.0), 2.0),
        (lambda: exp_profile(2.0, exponent=1.0), lambda: exp_profile(1.0), 0.5),
        (lambda: power_profile(-4.5, support=(1.0, INF)),
         lambda: power_profile(0.5, support=(0.0, 1.0)), 1.5),
        (lambda: constant_profile(1.0, support=(0.5, 2.0)),
         lambda: exp_profile(1.0), 0.0),
        (lambda: exp_profile(1.0), lambda: power_profile(-0.5, support=(0.0, 3.0)), 2.0),
        (lambda: mixture_profile([exp_profile(1.0),
                                  power_profile(-5.0, support=(1.0, INF))]),
         lambda: exp_profile(2.0), 1.0),
        (lambda: power_profile(-5.0, support=(2.0, INF)),
         lambda: constant_profile(2.0, support=(0.0, 2.0)), 3.0),
        (lambda: exp_profile(3.0), lambda: exp_profile(0.5), 0.0),
    ]

    @pytest.mark.parametrize("idx", range(len(SUITE)))
    def test_pairing_sides_agree(self, idx, space1, spec):
        make_f, make_g, beta = self.SUITE[idx]
        lhs, rhs = duality_pairing_check(make_f(), make_g(), power_weight(1.0, beta),
                                         space1, spec)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1.0)

    def test_zero_gives_zero_pair(self, space1, spec):
        lhs, rhs = duality_pairing_check(zero_profile(), exp_profile(1.0),
                                         power_weight(1.0, 0.0), space1, spec)
        assert (lhs, rhs) == (0.0, 0.0)

    def test_against_scipy_nested_oracle(self, space1, spec):
        # brute-force both sides with QUADPACK only
        q = 4.0
        omega = space1.omega_small
        f = lambda r: math.exp(-r)
        g = lambda r: math.exp(-2.0 * r)
        w = lambda t: 1.0
        hw_g = lambda r: quad(lambda t: g(t * r) * w(t), 0.0, 1.0)[0]
        cw_f = lambda r: quad(lambda t: f(r / t) * t**-q * w(t), 0.0, 1.0)[0]
        lhs_oracle = omega * quad(lambda r: f(r) * hw_g(r) * r ** (q - 1), 0.0, 50.0,
                                  limit=200)[0]
        rhs_oracle = omega * quad(lambda r: g(r) * cw_f(r) * r ** (q - 1), 0.0, 50.0,
                                  limit=200)[0]
        lhs, rhs = duality_pairing_check(exp_profile(1.0), exp_profile(2.0),
                                         power_weight(1.0, 0.0), space1, spec)
        assert abs(lhs - lhs_oracle) <= 1e-5 * abs(lhs_oracle)
        assert abs(rhs - rhs_oracle) <= 1e-5 * abs(rhs_oracle)


class TestApplyPointwise:
    """An operator at a group point is its radial output at r = |x|_h."""

    def test_hardy_constant(self, space1, spec):
        x = np.array([1.0, 1.0, 0.0])
        val = apply_operator(HARDY, constant_profile(1.0), space1, spec).eval(koranyi_norm_array(x))
        assert abs(val - 1.0) <= 1e-9

    def test_hardy_linear_at_radius_two(self, space1, spec):
        x = np.array([0.0, 0.0, 4.0])  # |x|_h = 2
        val = apply_operator(HARDY, power_profile(1.0), space1, spec).eval(koranyi_norm_array(x))
        assert abs(val - 1.6) <= 1e-9

    def test_dual_at_radius_two(self, space1, spec):
        x = np.array([0.0, 0.0, 4.0])
        val = apply_operator(DUAL_HARDY, power_profile(-2.0), space1, spec).eval(koranyi_norm_array(x))
        assert abs(val - 0.5) <= 1e-9

    def test_origin_rejected(self, space1, spec):
        out = apply_operator(HARDY, constant_profile(1.0), space1, spec)
        with pytest.raises(ValueError):
            out.eval(koranyi_norm_array(np.array([0.0, 0.0, 0.0])))


class TestOperatorKind:
    def test_weighted_requires_weight(self):
        with pytest.raises(ValueError):
            OperatorKind("weighted_hardy")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            OperatorKind("hilbert")

    def test_fixed_weight_kind_takes_no_weight(self):
        with pytest.raises(ValueError):
            OperatorKind("hardy", power_weight())

    def test_dispatch(self, space1, spec):
        out = apply_operator(OperatorKind("weighted_hardy", power_weight(1.0, 2.0)),
                             power_profile(-1.0), space1, spec)
        assert abs(out.eval(2.0) - 0.25) <= 1e-9


class TestWeightProfiles:
    """A weight is a profile on (0, 1]: power_weight one term row, weight_from_callable a lazy profile."""

    @pytest.mark.parametrize("c,beta", [(1.0, 0.0), (2.0, 3.0), (0.5, -0.5)])
    def test_power_weight_is_one_term_row(self, c, beta):
        assert power_weight(c, beta).terms == ((c, beta, 0.0, -INF, 0.0),)

    def test_callable_weight_evaluates_as_the_former_weight_class(self):
        # fn(e^max(u, -745)) under errstate(under="ignore"), as WeightFunction.eval_log computed it
        def fn(t):
            return np.sqrt(t) * (1.0 - t) ** 2

        u = np.concatenate([np.linspace(-800.0, 0.0, 4001), [-745.0, -744.5, -1e-300, -0.0]])
        with np.errstate(under="ignore"):
            former = np.asarray(fn(np.exp(np.maximum(u, -745.0))), dtype=float)
        assert np.array_equal(_bits(weight_from_callable(fn, 0.5).logeval(u, 0.0)), _bits(former))

    @pytest.mark.parametrize("order", [math.nan, INF, -INF])
    def test_callable_weight_rejects_a_non_finite_order(self, order):
        # a nan order once passed verify as "unbounded" and failed apply inside the engine;
        # an infinite one raised NonFiniteIntegrandError from the moment quadrature
        with pytest.raises(ValueError, match="finite zero_exponent"):
            weight_from_callable(lambda t: np.asarray(t) ** 2, zero_exponent=order)

    @pytest.mark.parametrize("weight", [
        power_profile(1.0), exp_profile(1.0), mixture_profile([power_weight(1.0, 2.0), power_weight(2.0, 3.0)]),
        scaled_profile(power_weight(1.0, 2.0), -1.0),
    ], ids=["unbounded-support", "exp", "two-rows", "negative-c"])
    @pytest.mark.parametrize("tag", ["weighted_hardy", "weighted_cesaro"])
    def test_kind_rejects_a_profile_that_is_no_weight(self, tag, weight):
        with pytest.raises(ValueError):
            OperatorKind(tag, weight)

    def test_kind_accepts_a_scaled_power_weight(self, space1, spec):
        f = power_profile(-1.0)
        kind = OperatorKind("weighted_hardy", scaled_profile(power_weight(1.0, 2.0), 3.0))
        want = apply_operator(OperatorKind("weighted_hardy", power_weight(3.0, 2.0)), f, space1, spec)
        assert apply_operator(kind, f, space1, spec).eval(2.0) == want.eval(2.0)


def _recording(f, sizes):
    """f, appending the size of every evaluation to `sizes`."""
    def lv(u, kappa):
        sizes.append(np.size(u))
        return f.logeval(u, kappa)

    return RadialProfile(lv, f.origin_exponent, f.tail_exponent, f.log_support, f.log_breakpoints)


class TestPopulationEvaluation:
    """All radii of one evaluation run as one population of inner integrals."""

    KINDS = {
        "hardy": HARDY,
        "dual_hardy": DUAL_HARDY,
        "weighted_hardy": OperatorKind("weighted_hardy", power_weight(1.0, 1.0)),
        "weighted_cesaro": OperatorKind("weighted_cesaro", power_weight(1.0, 4.0)),
        "general_weight": OperatorKind("weighted_cesaro", weight_from_callable(
            lambda t: np.asarray(t) ** 2, zero_exponent=2.0)),
    }
    INPUTS = {
        "power": lambda: power_profile(-5.0, support=(1.0, INF)),
        "exp": lambda: exp_profile(1.0),
        "mixture": lambda: mixture_profile([exp_profile(1.0),
                                            power_profile(-5.0, support=(1.0, INF))]),
    }

    @pytest.mark.parametrize("op", KINDS)
    @pytest.mark.parametrize("inp", INPUTS)
    def test_many_radii_match_one_at_a_time(self, op, inp, space1, spec):
        out = apply_operator(self.KINDS[op], self.INPUTS[inp](), space1, spec)
        u = np.linspace(-3.0, 3.0, 64)
        together = out.logeval(u, 2.0)
        alone = np.array([out.logeval(np.array([ui]), 2.0)[0] for ui in u])
        assert np.array_equal(together, alone)
        assert np.any(together != 0.0)

    @pytest.mark.parametrize("op", ["hardy", "dual_hardy"])
    def test_population_size_changes_no_value(self, op, space1, spec, monkeypatch):
        # 700 radii run as 700, 11, 3 or 1 populations: every member takes its own steps
        out = apply_operator(self.KINDS[op], self.INPUTS["mixture"](), space1, spec)
        u = np.linspace(-4.0, 4.0, 700)
        values = []
        for members in (1, 64, 256, 3840):
            monkeypatch.setattr(quadrature, "_MEMBERS", members)
            values.append(out.logeval(u, 2.0))
        # 4,000 radii run as two populations, and the 700 straddle their boundary
        values.append(out.logeval(np.concatenate([np.linspace(-5.0, 5.0, 3300), u]), 2.0)[3300:])
        assert all(np.array_equal(values[2], v) for v in values)
        assert np.all(values[0] > 0.0)

    @pytest.mark.parametrize("op,inp", [("hardy", "mixture"), ("dual_hardy", "exp")])
    def test_integrand_calls_stay_under_the_point_cap(self, op, inp, space1, spec):
        sizes = []
        out = apply_operator(self.KINDS[op], _recording(self.INPUTS[inp](), sizes), space1, spec)
        vals = out.logeval(np.linspace(-4.0, 4.0, 1000), 0.0)
        assert np.all(np.isfinite(vals))
        cap = quadrature._CALL_PANELS * quadrature._XK.size
        assert sum(sizes) > cap
        assert max(sizes) <= cap

    def test_tail_scan_calls_stay_under_the_point_cap(self, space1, spec):
        # each of 2,000 radii scans its exponential tail for a cutoff, two points
        # a member: the scan's first step alone would be a 4,000-point call
        sizes = []
        out = apply_operator(DUAL_HARDY, _recording(exp_profile(1.0), sizes), space1, spec)
        vals = out.logeval(np.linspace(-4.0, 4.0, 2000), 0.0)
        assert np.all(np.isfinite(vals))
        cap = quadrature._CALL_PANELS * quadrature._XK.size
        assert sizes[:2] == [cap, 2 * 2000 - cap]
        assert max(sizes) <= cap

    @pytest.mark.parametrize("op", ["hardy", "dual_hardy"])
    def test_peak_memory_per_radius_does_not_grow_with_the_population(self, op, space1, spec):
        # traced (numpy included) peak of one evaluation, per radius: 3,840 radii
        # make one population, and must cost no more per member than 256
        out = apply_operator(self.KINDS[op], self.INPUTS["mixture"](), space1, spec)

        def peak_per_radius(k):
            u = np.linspace(-4.0, 4.0, k)
            tracemalloc.start()
            try:
                out.logeval(u, 2.0)
                return tracemalloc.get_traced_memory()[1] / k
            finally:
                tracemalloc.stop()

        assert peak_per_radius(3840) <= peak_per_radius(256)

    def test_inner_tolerance_failure_propagates(self, space1, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        out = apply_operator(HARDY, exp_profile(1.0), space1, spec)
        u = np.linspace(-2.0, 2.0, 10)
        with pytest.raises(ToleranceNotReachedError) as many:
            out.logeval(u, 0.0)
        with pytest.raises(ToleranceNotReachedError) as first:
            out.logeval(u[:1], 0.0)
        # the first failing radius, in order, is the one reported
        assert str(many.value) == str(first.value)


def _hardy_branch_reference(kind, f, space, spec):
    """The Hardy side as apply_operator once computed it, kept verbatim as a reference.

    It convolves f itself over v <= 0 with its own kernel, rates and
    metadata; apply_operator now reaches the Hardy side as the reflected
    Cesaro side, Hw = R H*w' R.  Its metadata rule reads f's support in u = log r.
    """
    w = kind.weight_on(space)
    spec = spec.inner()
    log_lo, log_hi = f.log_support
    power = w.terms is not None  # a built weight is one power row c t^beta
    c, beta = w.terms[0][:2] if power else (math.nan, math.nan)
    rate_lo, rate_hi = f.origin_exponent + (w.origin_exponent + 1.0), 1.0
    if log_lo == -math.inf and rate_lo <= 0:
        raise DivergentIntegralError(
            f"Hardy-side operator diverges at the origin "
            f"(origin {f.origin_exponent} + weight order {w.origin_exponent} <= -1)"
        )
    kernel = ((lambda v, kappa: np.exp((beta + 1.0 - kappa) * v)) if power else
              (lambda v, kappa: w.logeval(v) * np.exp((1.0 - kappa) * v)))
    tail = -math.inf if math.isfinite(log_hi) else f.tail_exponent
    meta = dict(
        origin_exponent=f.origin_exponent, tail_exponent=max(tail, -(w.origin_exponent + 1.0)),
        log_support=(log_lo, math.inf), log_breakpoints=f.log_breakpoints,
    )
    scale = c if power else 1.0
    f_breaks = np.array(f.log_breakpoints)

    def logeval(u, kappa):
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        v_lo, v_hi = log_lo - flat, np.minimum(0.0, log_hi - flat)
        values, _ = quadrature._integrals(lambda v, m: f.logeval(flat[m] + v, kappa) * kernel(v, kappa),
                                          v_lo, v_hi, rate_lo, rate_hi, spec, f_breaks[None, :] - flat[:, None])
        return (scale * values).reshape(u.shape)

    return RadialProfile(logeval, **meta)


_GENERAL_WEIGHT = weight_from_callable(lambda t: t**2 * (1.0 + t), zero_exponent=2.0)


@st.composite
def _hardy_side_case(draw):
    """A head and a tail power cut at [0.3, 3] (the tail bounded or not), maybe an
    exponential part, a Hardy-side kind and 12 radii log-uniform in [e^-4, e^4]."""
    n = draw(st.sampled_from([1, 2]))
    q = 2.0 * n + 2.0
    cut = draw(st.floats(0.3, 3.0))
    top = draw(st.one_of(st.just(INF), st.floats(cut + 0.1, 6.0)))
    parts = [power_profile(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 1.0)), support=(0.0, cut)),
             power_profile(draw(st.floats(-q - 3.0, 1.0)), draw(st.floats(0.2, 1.0)), support=(cut, top))]
    if draw(st.booleans()):
        parts.append(exp_profile(draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 1.5)), draw(st.floats(0.2, 1.0))))
    kind = draw(st.one_of(
        st.just(HARDY), st.just(OperatorKind("weighted_hardy", _GENERAL_WEIGHT)),
        st.floats(q - 1.5, q + 2.0).map(lambda b: OperatorKind("weighted_hardy", power_weight(1.3, b)))))
    radii = np.exp(draw(st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12)))
    return heis_space(n), mixture_profile(parts), kind, radii


class TestHardySideReflection:
    """The Hardy side, reached as R H*w' R, against the branch it replaced."""

    @given(case=_hardy_side_case())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_former_hardy_branch(self, case):
        space, f, kind, radii = case
        spec = QuadratureSpec()
        new, ref = apply_operator(kind, f, space, spec), _hardy_branch_reference(kind, f, space, spec)
        got, want = new.eval(radii), ref.eval(radii)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + spec.inner().abs_tol)
        assert new.origin_exponent == ref.origin_exponent
        # at a tie with the weight's order the output grows by a logarithm: raised by 1e-6
        bound = -(kind.weight_on(space).origin_exponent + 1.0)
        assert (new.tail_exponent == ref.tail_exponent
                or ref.tail_exponent == bound and new.tail_exponent == bound + 1e-6)
        assert new.log_support == ref.log_support
        log_hi = f.log_support[1]
        assert new.log_breakpoints == tuple(sorted(set(ref.log_breakpoints) | ({log_hi} - {INF})))

    def test_divergence_reason_is_unchanged(self, space1, spec):
        for kind in (HARDY, OperatorKind("weighted_hardy", _GENERAL_WEIGHT)):
            with pytest.raises(DivergentIntegralError) as new:
                apply_operator(kind, power_profile(-10.0), space1, spec)
            with pytest.raises(DivergentIntegralError) as ref:
                _hardy_branch_reference(kind, power_profile(-10.0), space1, spec)
            assert str(new.value) == str(ref.value)


_U_ENDS = (-INF, -1.5, -0.25, 0.0, 0.8, 2.0, INF)  # row ends in u, r = 0 and r = inf among them


@st.composite
def _power_rows(draw):
    """A space and 1-3 power rows (c, a, 0, ulo, uhi), a > -Q so that hardy converges."""
    n = draw(st.sampled_from([1, 2]))
    q = 2.0 * n + 2.0
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            i, j = sorted(draw(st.lists(st.integers(0, len(_U_ENDS) - 1), min_size=2, max_size=2, unique=True)))
            ulo, uhi = _U_ENDS[i], _U_ENDS[j]
        else:
            ulo = draw(st.floats(-3.0, 3.0))
            uhi = draw(st.one_of(st.just(INF), st.floats(ulo, 4.0).filter(lambda u: u > ulo)))
        c = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
        rows.append((c, draw(st.floats(-q + 0.5, 3.0)), 0.0, ulo, uhi))
    return heis_space(n), tuple(rows)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class TestReflectionIdentity:
    """H f is R (H*w' R f) with w'(t) = Q t^(2Q-1), bit for bit: R is exact in u = log r."""

    @given(case=_power_rows(), u=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_hardy_is_the_mirrored_cesaro_side_of_the_reflected_input(self, case, u):
        space, rows = case
        q, spec = float(space.q), QuadratureSpec()
        f = quadrature._terms(rows)
        rf = quadrature._terms([(c, -a, 0.0, -uhi, -ulo) for c, a, _, ulo, uhi in rows])
        hardy = apply_operator(HARDY, f, space, spec)
        cesaro = apply_operator(OperatorKind("weighted_cesaro", power_weight(q, 2.0 * q - 1.0)), rf, space, spec)
        assert hardy.log_support == (-cesaro.log_support[1], -cesaro.log_support[0])
        assert hardy.log_breakpoints == tuple(sorted(-b for b in cesaro.log_breakpoints))
        assert (hardy.origin_exponent, hardy.tail_exponent) == (-cesaro.tail_exponent, -cesaro.origin_exponent)
        u = np.array(u + list(hardy.log_breakpoints))
        for kappa in (0.0, q):
            assert np.array_equal(_bits(hardy.logeval(u, kappa)), _bits(cesaro.logeval(-u, -kappa)))


class TestCesaroSideGolden:
    """Cesaro-side values and norms, pinned bit for bit as float.hex literals."""

    RADII = np.array([0.05, 0.7, 1.0, 2.5, 9.0])
    KINDS = {
        "dual_hardy": DUAL_HARDY,
        "power": OperatorKind("weighted_cesaro", power_weight(1.5, 4.0)),
        "general": OperatorKind("weighted_cesaro", weight_from_callable(lambda t: t**4 * (1.0 + t), 4.0)),
    }
    # (n, kind): (values at RADII, (value, error) of the (2, 2) norm)
    GOLDEN = {
        (1, "dual_hardy"): (["0x1.8bac08eb2dee0p+4", "0x1.3524c5c6634bfp+3", "0x1.e8639bed4ae28p+1",
                             "0x1.2639e38978eafp-4", "0x1.124a196fe2435p-11"],
                            ("0x1.a67ddd598497dp+4", "0x1.055c709ed6f97p-28")),
        (1, "power"): (["0x1.e7352cfc46872p+0", "0x1.5a23a59c05b43p+1", "0x1.2fe5a3fc6a840p+0",
                        "0x1.6054349ba81ecp-6", "0x1.40145d7ddc713p-13"],
                       ("0x1.c9617ef4d7a39p+2", "0x1.6573536ee0ee1p-30")),
        (1, "general"): (["0x1.d49521817afebp+0", "0x1.9b204d4e90dc5p+1", "0x1.7769c369ba48ap+0",
                          "0x1.ae430b31c01e3p-6", "0x1.8402e6ae0beb1p-13"],
                         ("0x1.0f9479a6c7755p+3", "0x1.1ed5669f724a1p-29")),
        (2, "dual_hardy"): (["0x1.28c106b062728p+5", "0x1.cfb728a994f1ep+3", "0x1.6e4ab4f1f829ep+2",
                             "0x1.b956d54e35606p-4", "0x1.9b6f2627d3650p-11"],
                            ("0x1.6d371eaea5fa9p+5", "0x1.2a75ea8005f03p-24")),
        (2, "power"): (["0x1.a18be1da90a7dp+6", "0x1.4b4d85d6a78f1p+2", "0x1.cf1fdeebcbcaap+0",
                        "0x1.27b4932ee435cp-5", "0x1.1fed30ad2b1c4p-12"],
                       ("0x1.01745abcf55e1p+4", "0x1.834ff53d0d51dp-26")),
        (2, "general"): (["0x1.2f1801cb134ebp+6", "0x1.7770bc1cf6b01p+2", "0x1.1478dbf496a6ep+1",
                          "0x1.583ffe8ea9eeap-5", "0x1.49188280b889ep-12"],
                         ("0x1.24a09e2f3f9c8p+4", "0x1.b57f1dbf5deabp-26")),
    }

    @pytest.mark.parametrize("n,kind", list(GOLDEN))
    def test_values_and_norm_are_pinned(self, n, kind, spec):
        f = mixture_profile([power_profile(0.5, 2.0, support=(0.0, 1.3)),
                             power_profile(-3.5, support=(0.7, INF)), exp_profile(1.5, 0.2)])
        space = heis_space(n)
        out = apply_operator(self.KINDS[kind], f, space, spec)
        values, norm = self.GOLDEN[(n, kind)]
        assert [x.hex() for x in out.eval(self.RADII).tolist()] == values
        got = radial_norm_with_error(out, 2.0, 2.0, space, spec)
        assert (got.value.hex(), got.error.hex()) == norm
