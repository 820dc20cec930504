"""Built profiles as term tables, against the per-family closures they replaced.

Before term tables, power_profile, exp_profile, zero_profile, mixture_profile
and scaled_profile each built their own closure, and mixture_profile read
the metadata off its parts.  _Reference below copies those closures verbatim
and that rule, applied to the supports in u = log r where profiles keep
them (neighbouring radii can share a u, so their edges merge there); every
built profile must evaluate and describe itself bit for bit as they did.
scaled_profile is the exception: a term table scales each coefficient,
(c c') e^x, where the closure scaled the value, c (c' e^x), so the two
differ by rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from heishardy.mixed_norm import SeparableFunction, radialize
from heishardy.operators import HARDY, apply_operator
from heishardy.quadrature import (
    RadialProfile,
    constant_profile,
    exp_profile,
    mixture_profile,
    power_profile,
    scaled_profile,
    zero_profile,
)

INF = math.inf


def _log_support(support):
    lo, hi = support
    return math.log(lo) if lo > 0.0 else -INF, math.log(hi) if math.isfinite(hi) else INF


class _Reference:
    """The former RadialProfile: a closure, its metadata (in u) and the support mask."""

    def __init__(self, logeval, origin_exponent, tail_exponent, log_support=(-INF, INF), log_breakpoints=(),
                 is_zero=False):
        lo, hi = log_support
        if not lo < hi:
            raise ValueError(f"log support must satisfy lo < hi, got {log_support}")
        self._logeval = logeval
        self.origin_exponent = float(origin_exponent)
        self.tail_exponent = float(tail_exponent)
        self.log_support = (float(lo), float(hi))
        self.log_breakpoints = tuple(sorted({u for u in (*log_breakpoints, lo, hi) if math.isfinite(u)}))
        self.is_zero = is_zero

    def logeval(self, u, kappa=0.0):
        u = np.asarray(u, dtype=float)
        vals = np.asarray(self._logeval(u, kappa), dtype=float)
        ulo, uhi = self.log_support
        if ulo > -INF or uhi < INF:
            vals = np.where((u >= ulo) & (u <= uhi), vals, 0.0)
        return vals


def _ref_zero():
    return _Reference(lambda u, kappa: np.zeros_like(np.asarray(u, dtype=float)), 0.0, -INF, is_zero=True)


def _ref_power(exponent, coeff=1.0, support=(0.0, INF)):
    def lv(u, kappa):
        return coeff * np.exp((exponent + kappa) * u)

    profile = _Reference(lv, origin_exponent=exponent, tail_exponent=exponent, log_support=_log_support(support))
    return _ref_zero() if coeff == 0.0 else profile


def _ref_exp(rate, exponent=0.0, coeff=1.0):
    if coeff == 0.0:
        return _ref_zero()

    def lv(u, kappa):
        arg = (exponent + kappa) * u - rate * np.exp(u)
        return coeff * np.exp(arg)

    return _Reference(lv, origin_exponent=exponent, tail_exponent=-INF)


def _ref_mixture(parts):
    parts = [p for p in parts if not p.is_zero]
    if not parts:
        return _ref_zero()
    if len(parts) == 1:
        return parts[0]

    def lv(u, kappa):
        acc = parts[0].logeval(u, kappa).copy()
        for p in parts[1:]:
            acc = acc + p.logeval(u, kappa)
        return acc

    lo = min(p.log_support[0] for p in parts)
    hi = max(p.log_support[1] for p in parts)
    at_lo = [p for p in parts if p.log_support[0] == lo]
    at_hi = [p for p in parts if p.log_support[1] == hi]
    breaks = []
    for p in parts:
        breaks.extend(p.log_breakpoints)
    return _Reference(lv, origin_exponent=min(p.origin_exponent for p in at_lo),
                      tail_exponent=max(p.tail_exponent for p in at_hi), log_support=(lo, hi),
                      log_breakpoints=tuple(breaks))


def _ref_scaled(f, c):
    if c == 0.0 or f.is_zero:
        return _ref_zero()
    return _Reference(lambda u, kappa: c * f.logeval(u, kappa), f.origin_exponent, f.tail_exponent,
                      f.log_support, f.log_breakpoints)


# support edges from one grid, so that parts nest, touch and lie apart; and some off it
_EDGES = (0.0, 0.25, 0.5, 1.0, 1.0 + 2.0**-40, 2.0, 7.0, INF)


@st.composite
def _support(draw):
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, len(_EDGES) - 1), min_size=2, max_size=2, unique=True)))
        return _EDGES[i], _EDGES[j]
    lo = draw(st.floats(0.0, 5.0))
    return lo, draw(st.one_of(st.just(INF), st.floats(lo, 10.0).filter(lambda hi: hi > lo)))


_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0))


@st.composite
def _part(draw, coeff=_COEFF):
    """(family, args): a power part on a support or an exponential part."""
    if draw(st.booleans()):
        return "power", (draw(st.floats(-12.0, 12.0)), draw(coeff), draw(_support()))
    return "exp", (draw(st.floats(0.05, 8.0)), draw(st.floats(-12.0, 12.0)), draw(coeff))


def _magnitude(part):
    """The part with |coefficient|."""
    family, args = part
    return family, (args[0], abs(args[1]), args[2]) if family == "power" else (args[0], args[1], abs(args[2]))


def _both(part):
    family, args = part
    if family == "power":
        ulo, uhi = _log_support(args[2])
        if not ulo < uhi:  # neighbouring radii with one u: a support neither accepts
            with pytest.raises(ValueError, match="support"):
                _ref_power(*args)
            with pytest.raises(ValueError, match="support"):
                power_profile(*args)
            reject()
        return power_profile(*args), _ref_power(*args)
    return exp_profile(*args), _ref_exp(*args)


def _grid(draw, profiles, lo, hi):
    """Draws of u in [lo, hi], with every support edge of the profiles there in u (and its neighbours)."""
    u = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=24))
    for p in profiles:
        for e in p.log_breakpoints:
            u.extend(x for x in (e, math.nextafter(e, -INF), math.nextafter(e, INF)) if lo <= x <= hi)
    return np.array(u)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _assert_same_metadata(new, ref):
    assert new.origin_exponent == ref.origin_exponent
    assert new.tail_exponent == ref.tail_exponent
    assert new.log_support == ref.log_support
    assert new.log_breakpoints == ref.log_breakpoints
    assert new.is_zero == ref.is_zero


class TestTermTableParity:
    @given(data=st.data(), parts=st.lists(_part(), min_size=1, max_size=4), split=st.integers(0, 4),
           kappa=st.floats(-10.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_mixtures_match_the_former_closures_bit_for_bit(self, data, parts, split, kappa):
        pairs = [_both(p) for p in parts]
        new_parts, ref_parts = [n for n, _ in pairs], [r for _, r in pairs]
        # nested at `split`: a mixture concatenates its parts' terms
        new = mixture_profile([mixture_profile(new_parts[:split])] + new_parts[split:])
        ref = _ref_mixture([_ref_mixture(ref_parts[:split])] + ref_parts[split:])
        _assert_same_metadata(new, ref)
        u = _grid(data.draw, [ref] + ref_parts, -800.0, 800.0)
        with np.errstate(all="ignore"):
            assert np.array_equal(_bits(new.logeval(u, kappa)), _bits(ref.logeval(u, kappa)))
            for n, r in pairs:
                _assert_same_metadata(n, r)
                assert np.array_equal(_bits(n.logeval(u, kappa)), _bits(r.logeval(u, kappa)))

    @given(data=st.data(), parts=st.lists(_part(), min_size=1, max_size=4),
           c=st.one_of(st.just(0.0), st.floats(-5.0, 5.0).filter(lambda c: abs(c) >= 1e-3)),
           kappa=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_scaled_profiles_match_up_to_rounding(self, data, parts, c, kappa):
        pairs = [_both(p) for p in parts]
        new = scaled_profile(mixture_profile([n for n, _ in pairs]), c)
        ref = _ref_scaled(_ref_mixture([r for _, r in pairs]), c)
        _assert_same_metadata(new, ref)
        # the same terms with |coefficients| bound the rounding of both sums
        size = _ref_mixture([_both(_magnitude(p))[1] for p in parts])
        u = _grid(data.draw, [ref], -5.0, 3.0)  # no overflow: inf - inf is nan
        got, want = new.logeval(u, kappa), ref.logeval(u, kappa)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * abs(c) * size.logeval(u, kappa) + 1e-300)


class TestTermTables:
    def test_built_profiles_carry_their_rows(self):
        # rows (c, a, lam, ulo, uhi): the radius supports in u = log r
        assert power_profile(-3.0, 2.0, (1.0, 5.0)).terms == ((2.0, -3.0, 0.0, 0.0, math.log(5.0)),)
        assert exp_profile(2.0, 1.0, -2.0).terms == ((-2.0, 1.0, 2.0, -INF, INF),)
        assert constant_profile(4.0, (0.5, 2.0)).terms == ((4.0, 0.0, 0.0, math.log(0.5), math.log(2.0)),)
        mix = mixture_profile([power_profile(-3.0, support=(1.0, INF)), zero_profile(), exp_profile(2.0)])
        assert mix.terms == ((1.0, -3.0, 0.0, 0.0, INF), (1.0, 0.0, 2.0, -INF, INF))
        assert scaled_profile(mix, -0.5).terms == ((-0.5, -3.0, 0.0, 0.0, INF), (-0.5, 0.0, 2.0, -INF, INF))

    def test_zero_is_the_empty_table(self):
        for f in (zero_profile(), power_profile(1.0, 0.0), exp_profile(1.0, coeff=0.0), mixture_profile([]),
                  scaled_profile(exp_profile(1.0), 0.0), mixture_profile([zero_profile(), zero_profile()])):
            assert f.terms == () and f.is_zero
            assert (f.log_support, f.origin_exponent, f.tail_exponent) == ((-INF, INF), 0.0, -INF)

    def test_a_zero_coefficient_still_checks_its_support(self):
        with pytest.raises(ValueError, match="support"):
            power_profile(1.0, 0.0, (2.0, 1.0))

    def test_lazy_profiles_have_no_table(self, space1, spec):
        out = apply_operator(HARDY, exp_profile(1.0), space1, spec)
        assert out.terms is None and not out.is_zero
        assert RadialProfile(lambda u, kappa: u, 0.0, -INF).terms is None


class TestLazyPartsRejected:
    """mixture_profile and scaled_profile take built profiles only."""

    def test_mixture_names_itself(self, space1, spec):
        lazy = apply_operator(HARDY, exp_profile(1.0), space1, spec)
        with pytest.raises(TypeError, match="mixture_profile"):
            mixture_profile([exp_profile(1.0), lazy])

    def test_scaled_names_itself(self, space1, spec):
        lazy = apply_operator(HARDY, exp_profile(1.0), space1, spec)
        with pytest.raises(TypeError, match="scaled_profile"):
            scaled_profile(lazy, 2.0)

    def test_radialize_of_a_lazy_radial_part(self, space1, spec):
        lazy = apply_operator(HARDY, exp_profile(1.0), space1, spec)
        f = SeparableFunction(lazy, lambda x: np.ones(len(x)))
        with pytest.raises(TypeError, match="scaled_profile"):
            radialize(f, space1, mc_count=100, seed=1)
