import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heishardy.geometry import heis_space
from heishardy.mixed_norm import (
    MixedExponents,
    NormEstimate,
    SeparableFunction,
    hardy_radialization_identity_check,
    mixed_norm_separable,
    radial_norm_with_error,
    radialize,
)
from heishardy.quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    ToleranceNotReachedError,
    exp_profile,
    power_profile,
    scaled_profile,
    zero_profile,
)

INF = math.inf


class TestMixedExponents:
    def test_delta(self):
        e = MixedExponents(2.0, 4.0, 2.0)
        assert abs(e.delta - 0.25) < 1e-15

    @pytest.mark.parametrize("bad", [(1.0, 2.0, 2.0), (2.0, 1.0, 2.0),
                                     (2.0, 2.0, math.inf), (0.5, 2.0, 2.0)])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            MixedExponents(*bad)


class TestRadialNorm:
    def test_extremal_family_norm_identity(self, space1, spec):
        # ||f_eps||^p = omega_small^{p/pbar} / (p eps)
        eps, p = 0.01, 2.0
        f = power_profile(-(4.0 / p + eps), support=(1.0, INF))
        want = math.sqrt(space1.omega_small / (p * eps))
        got = radial_norm_with_error(f, p, 2.0, space1, spec).value
        assert abs(got - want) <= 1e-6 * want
        assert abs(want - math.pi * math.sqrt(200.0)) < 1e-10

    def test_exponential_norm(self, space1, spec):
        got = radial_norm_with_error(exp_profile(1.0), 2.0, 2.0, space1, spec).value
        want = 2.0 * math.pi * math.sqrt(0.375)
        assert abs(got - want) <= 1e-6 * want

    def test_zero(self, space1, spec):
        assert radial_norm_with_error(zero_profile(), 2.0, 2.0, space1, spec).value == 0.0

    def test_divergent_norm_is_typed_error(self, space1, spec):
        with pytest.raises(DivergentIntegralError):
            radial_norm_with_error(constant := power_profile(0.0), 2.0, 2.0, space1, spec).value

    def test_scaling_law(self, space1, spec):
        # ||f(lambda .)|| = lambda^{-Q/p} ||f||
        p = 2.0
        base = radial_norm_with_error(exp_profile(1.0), p, 3.0, space1, spec).value
        for lam in (0.35, 2.0, 7.1):
            scaled = radial_norm_with_error(exp_profile(lam), p, 3.0, space1, spec).value
            assert abs(scaled - lam ** (-4.0 / p) * base) <= 1e-7 * base

    @given(st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c):
        space = heis_space(1)
        spec = QuadratureSpec()
        base = radial_norm_with_error(exp_profile(2.0), 2.0, 2.0, space, spec).value
        try:
            got = radial_norm_with_error(scaled_profile(exp_profile(2.0), c), 2.0, 2.0, space, spec).value
        except ToleranceNotReachedError:
            # |c|^p underflowed, and |f|^p with it: a non-zero f's norm came out 0.0
            assert c != 0.0 and abs(c) ** 2.0 < sys.float_info.min
            return
        assert got > 0.0 or c == 0.0
        assert abs(got - abs(c) * base) <= 1e-9 * max(1.0, abs(c))

    def test_underflowed_norm_raises(self, space1, spec):
        # |f|^2 underflows at every node although the norm is about 2.13e-298
        f = scaled_profile(exp_profile(2.0), 2.2146388385829475e-298)
        with pytest.raises(ToleranceNotReachedError, match="came out 0.0"):
            radial_norm_with_error(f, 2.0, 2.0, space1, spec)
        with pytest.raises(ToleranceNotReachedError, match="came out 0.0"):
            mixed_norm_separable(SeparableFunction(f, lambda pts: pts[:, 0]), 2.0, 2.0, space1, spec)
        zero = SeparableFunction(zero_profile(), lambda pts: pts[:, 0])
        assert radial_norm_with_error(zero.radial, 2.0, 2.0, space1, spec).value == 0.0
        assert mixed_norm_separable(zero, 2.0, 2.0, space1, spec) == NormEstimate(0.0, 0.0)

    def test_error_estimate_present(self, space1, spec):
        res = radial_norm_with_error(exp_profile(1.0), 2.0, 2.0, space1, spec)
        assert res.error > 0
        assert res.error < 1e-6 * res.value


class TestSeparableNorm:
    def test_constant_angular_reduces_to_radial(self, space1, spec):
        f = SeparableFunction(radial=exp_profile(1.0), angular=None)
        est = mixed_norm_separable(f, 2.0, 2.0, space1, spec)
        assert est.stderr == 0.0
        assert est.value == radial_norm_with_error(exp_profile(1.0), 2.0, 2.0, space1, spec).value

    def test_sign_partition_matches_radial(self, space1, spec):
        # |h| = 1 for a +/-1 partition, so the norm equals the radial one
        f = SeparableFunction(
            radial=exp_profile(1.0),
            angular=lambda pts: np.sign(pts[:, 0]) + (pts[:, 0] == 0.0),
        )
        est = mixed_norm_separable(f, 2.0, 2.0, space1, spec, mc_count=20_000, seed=3)
        want = 2.0 * math.pi * math.sqrt(0.375)
        assert abs(est.value - want) <= max(3.0 * est.stderr, 1e-8)

    def test_zero_radial(self, space1, spec):
        f = SeparableFunction(radial=zero_profile(), angular=lambda pts: pts[:, 0])
        est = mixed_norm_separable(f, 2.0, 2.0, space1, spec)
        assert est.value == 0.0

    def test_bounded_angular_scales_norm(self, space1, spec):
        f = SeparableFunction(radial=exp_profile(1.0), angular=lambda pts: 3.0 * np.ones(len(pts)))
        est = mixed_norm_separable(f, 2.0, 2.0, space1, spec, mc_count=5_000, seed=1)
        want = 3.0 * 2.0 * math.pi * math.sqrt(0.375)
        assert abs(est.value - want) <= 1e-8 * want  # constant |h|: zero-variance MC


class TestRadialize:
    def test_constant_angular_identity(self, space1):
        f = SeparableFunction(radial=exp_profile(1.0), angular=None)
        assert radialize(f, space1) is f.radial

    def test_scalar_angular_multiplies(self, space1):
        f = SeparableFunction(radial=exp_profile(1.0),
                              angular=lambda pts: 2.0 * np.ones(len(pts)))
        g = radialize(f, space1, mc_count=1000, seed=5)
        assert abs(g.eval(1.3) - 2.0 * math.exp(-1.3)) <= 1e-12

    def test_odd_angular_averages_to_zero(self, space1):
        f = SeparableFunction(radial=exp_profile(1.0), angular=lambda pts: pts[:, 0])
        mc = 100_000
        g = radialize(f, space1, mc_count=mc, seed=6)
        # mean of an odd bounded statistic: zero within 3 standard errors
        se = 1.0 / math.sqrt(mc)  # |theta_1| <= 1 so sd <= 1
        val = g.eval(1.0) if not g.is_zero else 0.0
        assert abs(val) <= 3.0 * se * math.exp(-1.0) + 1e-12


class TestContraction:
    def _random_separable(self, rng, space):
        radial = exp_profile(float(rng.uniform(0.5, 2.5)),
                             exponent=float(rng.uniform(0.0, 1.0)))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        k = int(rng.integers(1, 4))

        def h(pts, a=a, b=b, k=k):
            return 1.0 + a * np.sin(k * math.pi * pts[:, 0]) + b * np.tanh(pts[:, -1])

        return SeparableFunction(radial=radial, angular=h)

    def test_radialization_never_increases_norm(self, space1, spec):
        # Hoelder: || radialize f ||_{p, pbar} <= || f ||_{p, pbar}
        rng = np.random.default_rng(2718)
        p, pbar = 2.0, 2.0
        mc = 40_000
        for trial in range(20):
            f = self._random_separable(rng, space1)
            seed = 100 + trial
            g = radialize(f, space1, mc_count=mc, seed=seed)
            base_norm = radial_norm_with_error(f.radial, p, pbar, space1, spec).value
            lhs = radial_norm_with_error(g, p, pbar, space1, spec).value if not g.is_zero else 0.0
            est = mixed_norm_separable(f, p, pbar, space1, spec, mc_count=mc,
                                       seed=seed + 5000)
            # lhs scales linearly in the MC mean of h, whose sd is <= 3 for
            # these angular families; combine both error bars at 3 sigma
            lhs_se = 3.0 / math.sqrt(mc) * base_norm
            combined = 3.0 * math.hypot(est.stderr, lhs_se)
            assert lhs <= est.value + combined + 1e-9

    def test_hardy_radialization_identity(self, space1, spec):
        f = SeparableFunction(
            radial=exp_profile(1.0),
            angular=lambda pts: 1.0 + 0.5 * np.sin(math.pi * pts[:, 0]),
        )
        chk = hardy_radialization_identity_check(f, space1, spec,
                                                 mc_count=200_000, seed=9, radius=1.0)
        assert chk.agrees(3.0)

    def test_identity_error_bar_is_calibrated(self, space1, spec):
        # the z-scores of the check have unit spread only when mc_stderr
        # carries the sphere mean's error too (without it: 1.37)
        f = SeparableFunction(
            radial=exp_profile(1.0),
            angular=lambda pts: 1.0 + 0.9 * np.sin(math.pi * pts[:, 0]),
        )
        z = []
        for seed in range(0, 2000, 10):
            chk = hardy_radialization_identity_check(f, space1, spec, mc_count=2_000, seed=seed)
            z.append((chk.quadrature_side - chk.mc_side) / chk.mc_stderr)
        # 200 z-scores: their standard deviation has a standard error of 0.05
        assert 0.85 <= np.std(z, ddof=1) <= 1.15

    def test_identity_and_norm_at_n6(self, spec):
        # box rejection runs out of rounds at n = 6; these estimates do not
        space = heis_space(6)
        f = SeparableFunction(
            radial=exp_profile(1.0),
            angular=lambda pts: 1.0 + 0.5 * np.sin(math.pi * pts[:, 0]),
        )
        chk = hardy_radialization_identity_check(f, space, spec, mc_count=20_000, seed=9)
        assert chk.mc_stderr > 0.0 and chk.agrees(3.0)
        est = mixed_norm_separable(f, 2.0, 2.0, space, spec, mc_count=20_000, seed=9)
        assert math.isfinite(est.value) and est.stderr > 0.0

    def test_identity_trivial_for_radial(self, space1, spec):
        f = SeparableFunction(radial=exp_profile(1.0), angular=None)
        chk = hardy_radialization_identity_check(f, space1, spec,
                                                 mc_count=50_000, seed=2, radius=1.0)
        assert chk.agrees(3.0)

    def test_identity_rejects_non_finite_mc_side(self, space1, spec):
        # finite on the radialization draw, NaN on the ball draw of the MC side
        calls = []

        def h(pts):
            calls.append(len(pts))
            return np.full(len(pts), 1.0 if len(calls) == 1 else math.nan)

        f = SeparableFunction(radial=exp_profile(1.0), angular=h)
        with pytest.raises(ValueError, match="non-finite"):
            hardy_radialization_identity_check(f, space1, spec, mc_count=1000, seed=2)
        assert len(calls) == 2

    def test_identity_zero(self, space1, spec):
        f = SeparableFunction(radial=zero_profile(), angular=None)
        chk = hardy_radialization_identity_check(f, space1, spec,
                                                 mc_count=1000, seed=2)
        assert chk.quadrature_side == 0.0 and chk.mc_side == 0.0
