import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heishardy import quadrature
from heishardy.geometry import heis_space
from heishardy.quadrature import (
    DivergentIntegralError,
    NonFiniteIntegrandError,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotReachedError,
    _XK,
    _WG,
    _WK,
    _ENVELOPE_OFFSETS,
    _bisect,
    _cut,
    _ladder,
    _panels,
    abs_power_profile,
    certified_log_integral,
    constant_profile,
    exp_profile,
    integrate_radial,
    mixture_profile,
    power_profile,
    product_profile,
    scaled_profile,
    zero_profile,
)
from heishardy.mixed_norm import MixedExponents, radial_norm_with_error
from heishardy.operators import HARDY
from heishardy.sharp_constants import SharpConstantQuery, extremal_ratio

INF = math.inf


def gamma_over_rate(q, rate):
    return math.gamma(q) / rate**q


# the fixed 20-case closed-form suite: (profile, space n, exact value); each
# integral runs over its profile's support
ORACLE_CASES = [
    # exponentials against r^{Q-1} on (0, inf): Gamma(Q) / rate^Q
    ("exp2_n1", lambda: exp_profile(2.0), 1, gamma_over_rate(4, 2.0)),
    ("exp1_n1", lambda: exp_profile(1.0), 1, gamma_over_rate(4, 1.0)),
    ("exp3_n2", lambda: exp_profile(3.0), 2, gamma_over_rate(6, 3.0)),
    ("exp_half_n1", lambda: exp_profile(0.5), 1, gamma_over_rate(4, 0.5)),
    ("exp_poly_n1", lambda: exp_profile(2.0, exponent=1.5), 1, math.gamma(5.5) / 2.0**5.5),
    # powers on bounded supports: (b^s - a^s)/s with s = alpha + Q
    ("pow_bounded_1", lambda: power_profile(1.0, support=(0.0, 1.0)), 1, 1.0 / 5.0),
    ("pow_bounded_2", lambda: power_profile(-2.0, support=(1.0, 3.0)), 1, (3.0**2 - 1.0) / 2.0),
    ("pow_bounded_3", lambda: power_profile(0.0, support=(0.5, 2.0)), 2,
     (2.0**6 - 0.5**6) / 6.0),
    ("pow_bounded_4", lambda: power_profile(2.5, support=(0.0, 2.0)), 1, 2.0**6.5 / 6.5),
    # singular-at-origin but integrable
    ("pow_singular_1", lambda: power_profile(-3.5, support=(0.0, 1.0)), 1, 1.0 / 0.5),
    ("pow_singular_2", lambda: power_profile(-5.5, support=(0.0, 1.0)), 2, 2.0),
    # slowly decaying tails
    ("pow_tail_slow", lambda: power_profile(-4.02, support=(1.0, INF)), 1, 1.0 / 0.02),
    ("pow_tail_very_slow", lambda: power_profile(-4.002, support=(1.0, INF)), 1, 1.0 / 0.002),
    ("pow_tail_fast", lambda: power_profile(-7.0, support=(2.0, INF)), 1, 2.0**-3 / 3.0),
    # bounded supports away from the origin
    ("clipped", lambda: constant_profile(1.0, support=(1.0, 2.0)), 1, (2.0**4 - 1.0) / 4.0),
    ("clipped_interval", lambda: constant_profile(3.0, support=(0.5, 1.0)), 1,
     3.0 * (1.0 - 0.5**4) / 4.0),
    # mixtures with interior breakpoints
    ("mix_head_tail", lambda: mixture_profile([
        power_profile(1.0, support=(0.0, 1.0)),
        power_profile(-5.0, support=(1.0, INF)),
    ]), 1, 1.0 / 5.0 + 1.0),
    ("mix_exp_pow", lambda: mixture_profile([
        exp_profile(1.0), power_profile(-6.0, support=(1.0, INF)),
    ]), 1, 6.0 + 0.5),
    # scaled and zero
    ("scaled", lambda: scaled_profile(exp_profile(2.0), 4.0), 1, 1.5),
    ("zero", lambda: zero_profile(), 1, 0.0),
]


class TestClosedFormSuite:
    @pytest.mark.parametrize("name,make,n,exact",
                             ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_closed_form(self, name, make, n, exact):
        space = heis_space(n)
        spec = QuadratureSpec()
        res = integrate_radial(make(), space, spec)
        tol = max(spec.rel_tol * abs(exact), spec.abs_tol)
        assert abs(res.value - exact) <= 10 * tol, (res.value, exact)

    @pytest.mark.parametrize("name,make,n,exact",
                             ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_error_estimate_honest(self, name, make, n, exact):
        space = heis_space(n)
        res = integrate_radial(make(), space, QuadratureSpec())
        # the estimate leaves out float round-off, allowed for as in the property tests
        assert abs(res.value - exact) <= res.error + 1e-14 * abs(exact)

    def test_case_count_is_twenty(self):
        assert len(ORACLE_CASES) == 20


class TestDivergenceDetection:
    def test_divergent_tail_rejected(self, space1):
        with pytest.raises(DivergentIntegralError):
            integrate_radial(power_profile(-4.0, support=(1.0, INF)), space1, QuadratureSpec())

    def test_divergent_origin_rejected(self, space1):
        with pytest.raises(DivergentIntegralError):
            integrate_radial(power_profile(-4.0, support=(0.0, 1.0)), space1, QuadratureSpec())

    def test_bounded_support_ignores_tail_metadata(self, space1):
        # growing exponent but clipped support: integrable, no error
        f = power_profile(3.0, support=(0.0, 2.0))
        res = integrate_radial(f, space1, QuadratureSpec())
        assert abs(res.value - 2.0**7 / 7.0) < 1e-8

    @pytest.mark.parametrize("tail", [-10.0, -INF], ids=["power-tail", "exp-tail"])
    def test_divergent_origin_raised_before_any_evaluation(self, space1, tail):
        # r^-5 against r^3 dr diverges at 0 whatever the tail does
        points = []

        def lv(u, kappa):
            points.append(np.size(u))
            return np.exp((-5.0 + kappa) * np.asarray(u, dtype=float))

        f = RadialProfile(lv, origin_exponent=-5.0, tail_exponent=tail)
        with pytest.raises(DivergentIntegralError):
            integrate_radial(f, space1, QuadratureSpec())
        with pytest.raises(DivergentIntegralError):
            radial_norm_with_error(f, 2.0, 2.0, space1, QuadratureSpec())
        assert points == []

    def test_tolerance_not_reached_carries_estimate(self, space1, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ToleranceNotReachedError) as exc_info:
            integrate_radial(exp_profile(2.0), space1, spec)
        err = exc_info.value
        assert abs(err.estimate - 0.375) < 0.05
        assert err.error > 0


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


class TestBatchedAdaptive:
    def test_one_call_for_seeded_panels_then_one_per_bisection(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2000)
        # int_0^1 u^{-1/2} du = 2: the singular end forces many bisections
        calls = []

        def fun(u):
            calls.append(u.shape)
            return 1.0 / np.sqrt(u)

        seeds = (0.25, 0.5, 0.75)
        values, errors = _bisect(lambda u, m: fun(u), np.array([[0.0, *seeds, 1.0]]),
                                 rel_tol=1e-10, abs_tol=1e-300)
        value, err = float(values[0]), float(errors[0])
        assert calls[0] == (15 * (len(seeds) + 1),)
        assert len(calls) > 2
        assert all(shape == (30,) for shape in calls[1:])
        panels_evaluated = len(seeds) + 1 + 2 * (len(calls) - 1)
        assert sum(shape[0] for shape in calls) == 15 * panels_evaluated
        assert abs(value - 2.0) <= 1e-9
        assert err <= 1e-10 * value

    def test_panels_match_per_panel_reference(self):
        # the batched reduction against one dot product per panel
        lo = np.array([-3.0, -1.0, 0.5, 2.0])
        hi = np.array([-1.0, 0.5, 2.0, 9.0])
        failures = {}
        values, errors = _panels(lambda u, m: np.cos(u), lo, hi, np.zeros(4, dtype=int), failures)
        assert failures == {}
        for k, (a, b) in enumerate(zip(lo, hi)):
            half = 0.5 * (b - a)
            y = np.cos(0.5 * (a + b) + half * _XK)
            ik, ig = half * float(_WK @ y), half * float(_WG @ y)
            scale = abs(half) * float(_WK @ np.abs(y))
            assert abs(values[k] - ik) <= 1e-15 * scale
            assert abs(errors[k] - abs(ik - ig)) <= 2e-15 * scale

    def test_non_finite_node_names_its_panel(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2000)
        edges = (0.0, 1.0, 2.0, 3.0, 4.0)
        bad = 2.5  # the center node of the third seeded panel [2, 3]
        fun = lambda u, m: np.where(u == bad, math.nan, 1.0)  # noqa: E731
        with pytest.raises(NonFiniteIntegrandError, match=r"\[2\.0, 3\.0\]"):
            _bisect(fun, np.array([edges]), rel_tol=1e-8, abs_tol=1e-14)

    @given(size=st.integers(1, 600), cuts=st.lists(st.integers(1, 599), max_size=7, unique=True),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_member_values_do_not_depend_on_the_call(self, size, cuts, seed):
        # each member's panels are reduced on their own, so a call of up to 600 panels (it
        # crosses the 256-panel chunk boundary) gives every member, wherever its panels sit,
        # bitwise the values it gets alone
        edges = [0, *sorted(c for c in cuts if c < size), size]
        member = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 5.0, size=size)
        hi = lo + rng.uniform(0.1, 2.0, size=size)
        fun = lambda u, m: np.exp(-u * u) * (1.0 + m)  # noqa: E731
        together = np.concatenate(_panels(fun, lo, hi, member, {}))
        alone = [_panels(fun, lo[member == m], hi[member == m], member[member == m], {})
                 for m in range(len(edges) - 1)]
        assert together.tobytes() == np.concatenate([v for v, _ in alone] + [e for _, e in alone]).tobytes()

    def test_lowest_failing_member_is_raised(self, monkeypatch):
        # member 0 (int_0^1 u^{-1/2} du) runs out of panels many sweeps after
        # member 1 meets a NaN in its seeded panels; in member order, 0 fails first
        def fun(u, m):
            return np.where(u > 1.5, math.nan, 1.0 / np.sqrt(u))

        edges = np.array([[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]])
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 20)
        with pytest.raises(ToleranceNotReachedError):
            _bisect(fun, edges, rel_tol=1e-14, abs_tol=1e-300)
        with pytest.raises(NonFiniteIntegrandError, match=r"\[1\.0, 2\.0\]"):
            _bisect(fun, edges[::-1].copy(), rel_tol=1e-14, abs_tol=1e-300)

    def test_panels_at_machine_resolution_freeze(self):
        # a step at u = 0.3 inside a 2e-14 window: bisection reaches adjacent
        # doubles long before a 1e-300 tolerance, so the step's panel freezes
        # and the call returns with its error instead of running out of panels
        edges = np.array([[0.3 - 1e-14, 0.3 + 1e-14]])
        values, errors = _bisect(lambda u, m: (u >= 0.3).astype(float), edges,
                                 rel_tol=1e-300, abs_tol=1e-300)
        assert 1e-300 < errors[0]
        assert abs(values[0] - (edges[0, 1] - 0.3)) <= errors[0]

    def test_underflowed_envelope_probes_count_as_zero(self):
        # int_0^inf e^{-400 u} du: the far probes underflow to 0 while
        # e^{400 * offset} overflows, which must not poison the cut
        res = certified_log_integral(lambda u: np.exp(-400.0 * u), 0.0, INF,
                                     rate_lo=1.0, rate_hi=400.0, spec=QuadratureSpec())
        assert abs(res.value - 1.0 / 400.0) <= 1e-12

    def test_exponential_tail_scan_evaluates_each_point_once(self):
        # int e^{u - e^u} du = int_0^inf e^{-r} dr = 1; the cutoff scan probes
        # two points (u and u + 1/2) per call, unlike the 6 envelope probes and
        # the 15-point panels, and must not come back to the point it stopped at
        scanned = []

        def fun(u):
            if u.size == 2:
                scanned.extend(u.tolist())
            return np.exp(u - np.exp(u))

        res = certified_log_integral(fun, -INF, INF, rate_lo=1.0, rate_hi=INF,
                                     spec=QuadratureSpec())
        assert len(scanned) >= 2
        assert len(set(scanned)) == len(scanned)
        assert abs(res.value - 1.0) <= 1e-9

    def test_envelope_out_of_float_range_is_typed(self):
        # probes that are themselves infinite leave no finite cutoff, and an
        # integral of 1e309 does not fit float64
        with pytest.raises(NonFiniteIntegrandError):
            certified_log_integral(lambda u: np.exp(800.0 - u), 0.0, INF,
                                   rate_lo=1.0, rate_hi=1.0, spec=QuadratureSpec())
        with pytest.raises(NonFiniteIntegrandError, match="float range"):
            certified_log_integral(lambda u: 1e307 * np.exp(-0.01 * u), 0.0, INF,
                                   rate_lo=1.0, rate_hi=0.01, spec=QuadratureSpec())
        # a constant of 1e300 overflows the cut's log argument at abs_tol 1e-14,
        # and the cut is then taken in logs
        res = certified_log_integral(lambda u: 1e300 * np.exp(-u), 0.0, INF,
                                     rate_lo=1.0, rate_hi=1.0, spec=QuadratureSpec())
        assert abs(res.value - 1e300) <= res.error

    @given(c=_log_uniform(1e-300, 1e307), rate=_log_uniform(1e-2, 1e2))
    @settings(max_examples=300, deadline=None)
    def test_exponential_tail_within_its_error_at_any_scale(self, c, rate):
        # c e^{-rate u} on [0, inf): the envelope cut holds wherever c / rate fits float64,
        # and an answer beyond float64 is a typed failure
        def integral():
            return certified_log_integral(lambda u: c * np.exp(-rate * u), 0.0, INF,
                                          rate_lo=1.0, rate_hi=rate, spec=QuadratureSpec())

        if c / rate == INF:
            with pytest.raises(NonFiniteIntegrandError):
                integral()
            return
        res = integral()
        # the error estimate models truncation and the rule, not float round-off,
        # which reaches about 14 ulps here (c = 1, rate = 10^0.03125)
        assert abs(res.value - c / rate) <= res.error + 1e-14 * (c / rate)

    def test_envelope_out_of_float_range_keeps_a_finite_end(self):
        # the same integrand on a finite window is integrated whole, uncut
        res = certified_log_integral(lambda u: 1e300 * np.exp(-u), 0.0, 100.0,
                                     rate_lo=1.0, rate_hi=1.0, spec=QuadratureSpec())
        assert abs(res.value - 1e300 * -math.expm1(-100.0)) <= 1e-8 * 1e300

    def test_envelope_out_of_float_range_cuts_a_finite_end_too(self):
        # on [0, 2000] the cut in logs falls at u = 726.7, inside the window: past it, the
        # neglected mass of 1e300 e^{-u} is below abs_tol/20, and no node goes there
        nodes = []
        res = certified_log_integral(lambda u: nodes.append(u.max()) or 1e300 * np.exp(-u), 0.0, 2000.0,
                                     rate_lo=1.0, rate_hi=1.0, spec=QuadratureSpec())
        assert max(nodes) <= 800.0
        assert abs(res.value - 1e300) <= res.error


_SUMMAND = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.0, -1.0, 2.0 ** -53, -(2.0 ** -53),
                     1.0 + 2.0 ** -52, 2.0 ** 53, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300),  # subnormals included
)
_ROW = st.one_of(
    st.integers(1, 6).map(lambda k: [-0.0] * k),  # every used panel -0.0
    # optionally followed by the negation of every panel: the row cancels to zero
    st.tuples(st.lists(_SUMMAND, min_size=1, max_size=6), st.booleans()).map(
        lambda t: t[0] + [-x for x in t[0]] if t[1] else t[0]),
)


def _bisect_scripted(rows, splits, pad):
    """_bisect over members whose GK15 panels are given: member m has the seeded panels
    [k, k + 1] of values rows[m] and error 0, except that splits[m] = (k, left, right)
    gives its panel k an error that forces one bisection, into halves of those values.
    Edge rows are nan-padded by `pad` columns past the longest."""
    seeded = iter([True, False])

    def panels(fun, lo, hi, member, failures):
        if next(seeded):
            # each member's panels are contiguous, in order: k is the place in its row
            k = np.arange(len(member)) - np.searchsorted(member, member)
            v = np.array([rows[m][j] for m, j in zip(member.tolist(), k.tolist())])
            e = np.array([0.0 if splits[m] is None or splits[m][0] != j else 1e300
                          for m, j in zip(member.tolist(), k.tolist())])
            return v, e
        return np.array([splits[m][1 + j % 2] for j, m in enumerate(member.tolist())]), np.zeros(len(member))

    width = max(map(len, rows)) + 1 + pad
    edges = np.array([[*range(len(r) + 1)] + [np.nan] * (width - len(r) - 1) for r in rows], dtype=float)
    with mock.patch.object(quadrature, "_panels", panels):
        return _bisect(None, edges, rel_tol=1e-300, abs_tol=1e-300)


_SPLIT = st.one_of(st.none(), st.tuples(st.integers(0, 11), _SUMMAND, _SUMMAND))


@given(rows=st.lists(st.tuples(_ROW, _SPLIT), min_size=1, max_size=5), pad=st.integers(0, 3))
@example(rows=[([-0.0, -0.0], None), ([1.0, 2.0 ** -53], None), ([1.0, 2.0 ** -53, 5e-324], None),
               ([1e300, 1.0, -1e300], None)], pad=3)
@example(rows=[([-0.0], (0, -0.0, -0.0)), ([1.0, -1.0], (1, -1.0, 2.0 ** -53))], pad=0)
@settings(max_examples=300, deadline=None)
def test_values_are_the_in_order_sums_of_the_used_panels_bitwise(rows, pad):
    # _bisect sums all members at once over padded panel rows, after a bisection has put a
    # panel's right half at the end of its row; each value must be the in-order sum of
    # that member's own panels, to the last bit and the sign of zero, in any population
    rows, splits = [r for r, _ in rows], [None if s is None else (s[0] % len(r), *s[1:]) for r, s in rows]
    want = []
    for r, split in zip(rows, splits):
        used = list(r) if split is None else [*r[:split[0]], split[1], *r[split[0] + 1:], split[2]]
        total = used[0]
        for x in used[1:]:
            total += x
        want.append(total)
    values, errors = _bisect_scripted(rows, splits, pad)
    assert values.tobytes() == np.array(want).tobytes()
    assert not errors.any()
    alone = [_bisect_scripted([r], [split], pad)[0] for r, split in zip(rows, splits)]
    assert np.concatenate(alone).tobytes() == values.tobytes()


def test_bisect_sums_negative_zero_nodes_as_its_panels_do():
    # two members whose nodes are all -0.0, on rows of different widths: each value is
    # the in-order sum of the panel values _panels gives
    edges = np.array([[0.0, 1.0, 2.0, np.nan], [0.0, 1.0, 2.0, 3.0]])
    fun = lambda u, m: np.full(u.shape, -0.0)  # noqa: E731
    values, errors = _bisect(fun, edges, rel_tol=1e-8, abs_tol=1e-14)
    ik, _ = _panels(fun, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), np.zeros(3, int), {})
    assert values.tobytes() == np.array([ik[0] + ik[1], ik[0] + ik[1] + ik[2]]).tobytes()
    assert np.all(errors == 0.0)


_WINDOW = _log_uniform(1e-3, 50.0)


@given(windows=st.lists(st.tuples(st.sampled_from(["lo", "hi", "both"]), _WINDOW, _WINDOW),
                        min_size=1, max_size=4),
       rate=_log_uniform(1.0, 1e12), c=_log_uniform(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
def test_peak_at_the_clamped_centre_within_its_error(windows, rate, c):
    # c e^{-rate |v|} peaks at v = 0, the clamped centre of each window, at any
    # steepness: the seed panels must start there, or a peak far narrower than
    # the window reads 0 with an error estimate that covers nothing.  (Away from
    # v = 0 the nodes' own rounding, rate * ulp(v) relative, would dominate.)
    ends = [{"lo": (-w1, 0.0), "hi": (0.0, w1), "both": (-w1, w2)}[side] for side, w1, w2 in windows]
    lo, hi = np.array(ends).T
    values, errors = quadrature._integrals(lambda v, m: c * np.exp(-rate * np.abs(v)), lo, hi, rate, rate,
                                           QuadratureSpec(), np.full((len(lo), 0), np.nan))
    want = c * (-np.expm1(rate * lo) - np.expm1(-rate * hi)) / rate
    # as above, the estimate leaves out float round-off
    assert np.all(np.abs(values - want) <= errors + 1e-14 * want)


def _ladder_160(a, b, cap_near, cap_far):
    """The seed ladder built on all 160 columns, trimmed after: _ladder's reference."""
    width = b - a
    step = np.minimum(cap_near, width) / 2.0
    steps = np.minimum(step[:, None] * 2.0 ** np.arange(160), np.maximum(cap_far, width / 64.0)[:, None])
    x = np.cumsum(np.hstack([a[:, None], steps]), axis=1)[:, 1:]
    inside = x < b[:, None]
    return np.where(inside, x, np.nan)[:, :inside.sum(axis=1).max()]


class TestLadder:
    @given(windows=st.lists(st.tuples(st.floats(min_value=-1e3, max_value=1e3), _log_uniform(1e-9, 1e5)),
                            min_size=1, max_size=4),
           caps=st.tuples(_log_uniform(1e-7, 1e3), _log_uniform(1e-7, 1e3)).map(sorted))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_160_column_build_bitwise(self, windows, caps):
        # the window-sized build adds the same steps in the same order
        a = np.array([w[0] for w in windows])
        b = a + np.array([w[1] for w in windows])
        got, want = _ladder(a, b, *caps), _ladder_160(a, b, *caps)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


@given(windows=st.lists(st.tuples(st.floats(min_value=-1e3, max_value=1e3), _log_uniform(1e-9, 1e5)),
                        min_size=1, max_size=4),
       cap_near=_log_uniform(1e-7, 1e3))
@settings(max_examples=200, deadline=None)
def test_ladder_without_a_far_cap_doubles_as_the_160_column_build(windows, cap_near):
    # a side that does not decay passes an infinite far cap: the ladder only doubles
    a = np.array([w[0] for w in windows])
    b = a + np.array([w[1] for w in windows])
    got, want = _ladder(a, b, cap_near, INF), _ladder_160(a, b, cap_near, INF)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@given(rate=_log_uniform(1e-4, 0.25), a=st.floats(min_value=0.5, max_value=10.0), k=st.integers(1, 5),
       sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=200, deadline=None)
def test_slow_tail_within_its_error_in_few_panels(rate, a, k, sign):
    # e^{-rate u} (1 - e^{-a u})^k on [0, inf), or its mirror on (-inf, 0], is
    # B(rate/a, k + 1)/a.  The window runs out to u ~ 45/rate: far seed panels
    # spanning 6.9 e-folds of the slow rate at rel_tol 1e-8 (_far_span) cover it
    # in a few dozen panels, where 64 equal panels of a 64th of the window took 67-81
    want = math.exp(math.lgamma(rate / a) + math.lgamma(k + 1.0) - math.lgamma(rate / a + k + 1.0)) / a
    panels, real = [], quadrature._panels

    def counted(fun, lo, *args):
        panels.append(len(lo))
        return real(fun, lo, *args)

    def fun(u):
        v = sign * u
        return np.exp(-rate * v) * (-np.expm1(-a * v)) ** k

    ends, rates = ((0.0, INF), (1.0, rate)) if sign > 0 else ((-INF, 0.0), (rate, 1.0))
    with mock.patch.object(quadrature, "_panels", counted):
        res = certified_log_integral(fun, *ends, *rates, spec=QuadratureSpec())
    # as elsewhere, the estimate leaves out float round-off
    assert abs(res.value - want) <= res.error + 1e-14 * want
    assert sum(panels) <= 40


def _slow_tail(rate, a, k, sign, spec):
    """e^{-rate u} (1 - e^{-a u})^k on [0, inf), or its mirror on (-inf, 0]: the result,
    its exact value B(rate/a, k + 1)/a (lgamma, to 4e-15 here) and the panels it took."""
    want = math.exp(math.lgamma(rate / a) + math.lgamma(k + 1.0) - math.lgamma(rate / a + k + 1.0)) / a
    panels, real = [], quadrature._panels

    def counted(fun, lo, *args):
        panels.append(len(lo))
        return real(fun, lo, *args)

    def fun(u):
        v = sign * u
        return np.exp(-rate * v) * (-np.expm1(-a * v)) ** k

    ends, rates = ((0.0, INF), (1.0, rate)) if sign > 0 else ((-INF, 0.0), (rate, 1.0))
    with mock.patch.object(quadrature, "_panels", counted):
        res = certified_log_integral(fun, *ends, *rates, spec=spec)
    return res, want, sum(panels)


_SLOW_TAIL = dict(rate=_log_uniform(1e-4, 0.25), a=st.floats(min_value=0.5, max_value=10.0),
                  k=st.integers(1, 5), sign=st.sampled_from([1.0, -1.0]))


@given(**_SLOW_TAIL)
@settings(max_examples=200, deadline=None)
def test_slow_tail_at_a_loose_tolerance_in_fewer_panels(rate, a, k, sign):
    # at rel_tol 1e-4 far panels span 16.8 e-folds: at most 17 panels (over 8,000
    # random draws of this family), never more than far panels of 4 e-folds, which
    # took up to 23; and within its error wherever the 4-e-fold seeding is (0.65%
    # of the draws are not, with either seeding: see the xfail below)
    spec = QuadratureSpec(rel_tol=1e-4)
    res, want, panels = _slow_tail(rate, a, k, sign, spec)
    with mock.patch.object(quadrature, "_far_span", lambda rel_tol: 4.0):
        ref, _, ref_panels = _slow_tail(rate, a, k, sign, spec)
    assert panels <= min(ref_panels, 17)
    if abs(ref.value - want) <= ref.error + 1e-14 * want:
        assert abs(res.value - want) <= res.error + 1e-14 * want


@pytest.mark.xfail(strict=True, reason="certified wrong: |K15 - G7| falls short of a panel's own error "
                   "(ROADMAP item 9, envelope defeats)")
@pytest.mark.parametrize("rate, a, k, sign, rel_tol", [
    (1.319e-4, 7.558, 5, 1.0, 1e-8), (1.319e-4, 7.558, 5, -1.0, 1e-8),
    (2.1e-4, 9.721, 3, 1.0, 1e-6), (2.1e-4, 9.721, 3, -1.0, 1e-6),
    (1e-4, 7.6856721332681435, 2, -1.0, 1e-8), (1e-4, 9.754552130422741, 3, 1.0, 1e-4),
    (0.025477786523582353, 7.638055456766901, 2, -1.0, 1e-4),
    (0.06059883137331935, 9.577096686763989, 3, -1.0, 1e-4),
])
def test_slow_tail_known_to_miss_its_error(rate, a, k, sign, rel_tol):
    # the first case is 1.39e-8 relative off against an error of 9.45e-9, its
    # final panel [0, 4] off by 1.05e-4 against a |K15 - G7| of 7.2e-5; the third
    # is 3.08e-7 off against 1.11e-7.  The last four are draws of the Hypothesis
    # tests of this family.  All miss with 4-e-fold far panels as well
    res, want, _ = _slow_tail(rate, a, k, sign, QuadratureSpec(rel_tol=rel_tol))
    assert abs(res.value - want) <= res.error + 1e-14 * want


@given(tols=st.lists(_log_uniform(1e-16, 1.0), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_far_span_grows_with_the_tolerance(tols):
    spans = [quadrature._far_span(t) for t in sorted(tols)]
    assert spans == sorted(spans)
    assert all(4.0 <= s <= 40.0 for s in spans)


@pytest.mark.parametrize("rel_tol", [1e-11, 1.01e-11, 1e-12, 1e-13, 1e-16])
def test_tight_tolerances_keep_far_panels_of_4_efolds(rel_tol):
    # |K15 - G7| of the 4-e-fold model panel is 1.02e-11 of its integral
    assert quadrature._far_span(rel_tol) == 4.0


@pytest.mark.parametrize("rel_tol, span", [(1e-4, 16.8), (1e-6, 10.4), (1e-8, 6.9), (1e-10, 4.8)])
def test_far_panel_of_the_span_meets_its_tolerance(rel_tol, span):
    # e^{-x} from its peak over one far panel, through the engine's own GK15 panel
    far = quadrature._far_span(rel_tol)
    assert abs(far - span) < 0.05
    ik, err = _panels(lambda x, m: np.exp(-x), np.array([0.0]), np.array([far]), np.zeros(1, int), {})
    assert err[0] <= rel_tol * ik[0]
    ik, err = _panels(lambda x, m: np.exp(-x), np.array([0.0]), np.array([far + 0.01]), np.zeros(1, int), {})
    assert err[0] > rel_tol * ik[0]


def test_far_span_is_computed_once_per_tolerance(space1):
    # the span is a memo lookup made before any population starts: a whole
    # extremal ratio at the default spec (outer rel_tol 1e-8, inner 1e-10)
    # computes it twice across its three populations, and a repeat not at all
    query = SharpConstantQuery(HARDY, MixedExponents(2.0, 2.0, 2.0), space1)
    quadrature._far_span.cache_clear()
    populations, real = [], quadrature._population
    with mock.patch.object(quadrature, "_population", lambda *args: populations.append(args[-1]) or real(*args)):
        extremal_ratio(query, 0.01, QuadratureSpec())
        assert quadrature._far_span.cache_info().misses == 2
        extremal_ratio(query, 0.01, QuadratureSpec())
    assert quadrature._far_span.cache_info().misses == 2
    assert len(populations) == 6
    assert set(populations) == {quadrature._far_span(1e-8), quadrature._far_span(1e-10)}


@pytest.mark.parametrize("lo, hi", [(0.0, 1000.0), (-1000.0, 0.0), (-400.0, 600.0)])
def test_non_decaying_finite_window(lo, hi):
    # declared rates of 0 give no decay scale: both ladders double from the centre
    res = certified_log_integral(lambda u: np.full(u.shape, 2.0), lo, hi, rate_lo=0.0, rate_hi=0.0,
                                 spec=QuadratureSpec())
    want = 2.0 * (hi - lo)
    assert abs(res.value - want) <= res.error + 1e-14 * want


_RATE_MEMBER = st.tuples(st.sampled_from(["power", "exp", "flat", "nan"]), _log_uniform(1e-2, 10.0),
                         _log_uniform(1e-2, 10.0), _log_uniform(1e-3, 1e3),
                         st.one_of(st.just(INF), st.floats(min_value=0.5, max_value=50.0)),
                         st.one_of(st.just(INF), st.floats(min_value=0.5, max_value=50.0)))


@given(members=st.lists(_RATE_MEMBER, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_per_member_rates_give_each_member_its_own_integral(members):
    # one rate pair per member: power tails, exponential tails (rate_hi = inf),
    # rate-0 finite windows and infinite ends, side by side in one population;
    # a "nan" member fails past u = 0.1, by its envelope probes or its panels
    kind, r1, r2, c, w_lo, w_hi = (np.array(x) for x in zip(*members))
    flat = kind == "flat"
    lo, hi = -np.where(flat, np.minimum(w_lo, 50.0), w_lo), np.where(flat, np.minimum(w_hi, 50.0), w_hi)
    rate_lo = np.where(flat, 0.0, r1)
    rate_hi = np.where(flat, 0.0, np.where(kind == "exp", INF, r2))

    def fun(u, m):
        with np.errstate(over="ignore", under="ignore"):
            y = np.where(kind[m] == "exp", r1[m] * u - np.exp(u), np.where(u < 0.0, r1[m] * u, -r2[m] * u))
            y = c[m] * np.where(flat[m], 1.0, np.exp(y))
        return np.where((kind[m] == "nan") & (u > 0.1), math.nan, y)

    def run(ids, offset=0):
        return quadrature._integrals(lambda u, m: fun(u, m + offset), lo[ids], hi[ids], rate_lo[ids],
                                     rate_hi[ids], QuadratureSpec(), np.full((len(ids), 0), np.nan))

    alone = []
    for m in range(len(members)):
        try:
            alone.append(run(np.array([m]), m))
        except ArithmeticError as exc:
            alone.append(exc)
    failed = [a for a in alone if isinstance(a, ArithmeticError)]
    if failed:
        with pytest.raises(type(failed[0])) as raised:
            run(np.arange(len(members)))
        assert str(raised.value) == str(failed[0])
    else:
        values, errors = run(np.arange(len(members)))
        assert values.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert errors.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()


def test_lowest_divergent_member_is_raised_before_any_evaluation():
    # member 1 has no decay toward +inf, member 2 none toward -inf: member 1's own error
    calls = []
    with pytest.raises(DivergentIntegralError, match="upper tail \\(rate -1.0"):
        quadrature._integrals(lambda u, m: calls.append(u) or np.ones(u.shape),
                              np.array([0.0, 0.0, -INF]), np.array([1.0, INF, 0.0]),
                              np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 1.0]),
                              QuadratureSpec(), np.full((3, 0), np.nan))
    assert calls == []


def test_a_failed_tail_scan_keeps_its_error_through_the_lower_cut():
    # member 0's exponential-tail scan never stops, and its lower envelope probes are
    # infinite: the lower cut, which runs for every member, must not replace the scan's error
    def fun(u, m):
        with np.errstate(over="ignore"):
            return np.where(m == 0, INF, np.exp(u - np.exp(u)))

    with pytest.raises(ToleranceNotReachedError, match="exponential tail"):
        quadrature._integrals(fun, np.array([-INF, -INF]), np.array([INF, INF]), 1.0, INF,
                              QuadratureSpec(), np.full((2, 0), np.nan))


def _cut_loop(call, sel, base, end, rate, sign, abs_tol, trunc, failures):
    """_cut as a scalar loop over its members, in logs: the array cut's reference."""
    probes = call(base[sel, None] + sign * _ENVELOPE_OFFSETS, np.repeat(sel[:, None], 6, axis=1))
    for m, b, row in zip(sel.tolist(), base[sel].tolist(), probes):
        log_c = math.log(2.0) + float(np.max(np.log(row) + rate * _ENVELOPE_OFFSETS))
        width = max((log_c + math.log(20.0) - math.log(abs_tol) - float(np.log(rate))) / rate, 13.0)
        if not math.isfinite(width) and math.isinf(end[m]):
            failures.setdefault(m, None)
        elif sign * (b + sign * width) < sign * end[m]:
            end[m] = b + sign * width
            trunc[m] += float(np.exp(log_c - rate * width)) / rate


def _linear_width(row, rate, abs_tol):
    """The cut width from C = 2 max(probes e^{rate offsets}) without logs (inf where it overflows),
    and the size of the log rule's terms over rate, which bounds where that rule rounds."""
    c = 2.0 * np.max(np.where(row == 0.0, 0.0, row * np.exp(rate * _ENVELOPE_OFFSETS)))
    if c == 0.0:
        return 13.0, 13.0
    terms = abs(math.log(c)) + math.log(20.0) + abs(math.log(abs_tol)) + abs(math.log(rate))
    return max(float(np.log(20.0 * c / (abs_tol * rate))) / rate, 13.0), terms / rate


class TestCut:
    @given(members=st.lists(st.tuples(st.floats(min_value=-50.0, max_value=50.0),
                                      st.floats(min_value=-3.0, max_value=3.0),
                                      st.floats(min_value=-700.0, max_value=709.0),
                                      st.sampled_from(["decay", "zero", "inf"]), st.booleans(),
                                      _log_uniform(1e-3, 1e12)),
                            min_size=1, max_size=6),
           abs_tol=_log_uniform(1e-30, 1e-2), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_loop_bitwise(self, members, abs_tol, sign):
        # probes of e^{log_c - rate |u - base|}, or all 0, or all inf; ends finite or infinite;
        # each member has its own rate, and the reference cuts one member at a time
        base, span, log_c, kind, cut, rate = (np.array(x) for x in zip(*members))
        end0 = np.where(cut, sign * INF, base + sign * 10.0**span)

        def call(x, m):
            with np.errstate(over="ignore", under="ignore"):
                g = np.exp(log_c[m] - rate[m] * np.abs(x - base[m]))
            return np.where(kind[m] == "zero", 0.0, np.where(kind[m] == "inf", INF, g))

        sel = np.arange(len(members))
        got, want = [], []
        for out in (got, want):
            end, trunc, failures = end0.copy(), np.zeros(len(members)), {}
            # as under _integrals, which runs every cut
            with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
                if out is got:  # every member at once
                    probes = call(base[sel, None] + sign * _ENVELOPE_OFFSETS,
                                  np.repeat(sel[:, None], 6, axis=1))
                    _cut(probes, sel, base, end, rate, sign, abs_tol, trunc, failures)
                else:  # one member, with its own rate, at a time
                    for m in sel.tolist():
                        _cut_loop(call, np.array([m]), base, end, float(rate[m]), sign, abs_tol, trunc,
                                  failures)
            out.extend([end, trunc, sorted(failures)])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        # wherever the linear formula is finite, the log rule moves its cut by rounding only:
        # 4e-14 of the width, or of the log terms where they cancel to a far narrower width
        # (rate 1.8e-3, probes of e^{-56.8 - rate |u - base|}, abs_tol 4.4e-21: width 28.7, moved 8.3e-14 of it)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            probes = call(base[sel, None] + sign * _ENVELOPE_OFFSETS, np.repeat(sel[:, None], 6, axis=1))
            for m in sel.tolist():
                width, terms = _linear_width(probes[m], float(rate[m]), abs_tol)
                if math.isfinite(width):
                    linear = end0[m] if width >= sign * (end0[m] - base[m]) else base[m] + sign * width
                    assert abs(got[0][m] - linear) <= 4e-14 * max(width, terms)


class TestProfileAlgebra:
    def test_eval_matches_formula(self):
        f = power_profile(-1.5, coeff=2.0)
        r = np.array([0.5, 1.0, 4.0])
        assert np.allclose(f.eval(r), 2.0 * r**-1.5)

    def test_eval_scalar_returns_float(self):
        assert isinstance(exp_profile(1.0).eval(2.0), float)

    def test_support_clipping(self):
        f = power_profile(0.0, support=(1.0, 2.0))
        assert f.eval(0.5) == 0.0
        assert f.eval(1.5) == 1.0
        assert f.eval(3.0) == 0.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            power_profile(1.0).eval(0.0)

    @pytest.mark.parametrize("log_support", [(1.0, 1.0), (math.nan, 1.0)], ids=["empty", "nan"])
    def test_rejects_a_log_support_without_lo_below_hi(self, log_support):
        with pytest.raises(ValueError, match="log support"):
            RadialProfile(lambda u, kappa: u, 0.0, 0.0, log_support=log_support)

    def test_logeval_scaling_identity(self):
        f = exp_profile(1.5, exponent=0.5)
        u = np.array([-2.0, 0.0, 1.0])
        kappa = 3.0
        lhs = f.logeval(u, kappa)
        rhs = f.eval(np.exp(u)) * np.exp(kappa * u)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_logeval_extreme_radii_finite(self):
        # scaled evaluation must survive radii far beyond float range
        f = power_profile(-2.001, support=(1.0, INF))
        vals = f.logeval(np.array([5_000.0, 20_000.0]), 2.0)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0)

    def test_mixture_sums_pointwise(self):
        f = mixture_profile([power_profile(1.0), exp_profile(1.0)])
        r = np.array([0.3, 1.7])
        assert np.allclose(f.eval(r), r + np.exp(-r))

    def test_mixture_metadata_ignores_vacuous_parts(self):
        # a part supported away from zero must not poison the origin exponent
        f = mixture_profile([
            power_profile(1.0, support=(0.0, 1.0)),
            power_profile(-3.0, support=(1.0, INF)),
        ])
        assert f.origin_exponent == 1.0
        assert f.tail_exponent == -3.0

    def test_mixture_of_zero_parts_is_zero(self):
        assert mixture_profile([zero_profile()]).is_zero

    def test_product_of_disjoint_supports_is_zero(self):
        f = product_profile(constant_profile(1.0, support=(0.0, 1.0)),
                            constant_profile(1.0, support=(2.0, 3.0)))
        assert f.is_zero

    def test_product_metadata(self):
        f = product_profile(power_profile(-1.0), exp_profile(2.0))
        assert f.origin_exponent == -1.0
        assert f.tail_exponent == -math.inf

    def test_abs_power(self):
        f = abs_power_profile(scaled_profile(power_profile(-1.0), -3.0), 2.0)
        assert abs(f.eval(2.0) - 9.0 / 4.0) < 1e-12
        assert f.origin_exponent == -2.0

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_scaled_profile_linearity(self, r, c):
        f = power_profile(0.7)
        assert abs(scaled_profile(f, c).eval(r) - c * f.eval(r)) <= 1e-12 * max(1.0, abs(c))


class TestSpecValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)

    def test_inner_spec_is_tighter(self):
        spec = QuadratureSpec()
        assert spec.inner().rel_tol < spec.rel_tol
        assert spec.inner().abs_tol < spec.abs_tol
