"""Certified 1-D radial quadrature and seeded Monte Carlo sampling.

Radial integrals of the form  int g(r) r^{Q-1} dr  over (0, infinity) are
computed in the log-radius variable u = log r with an adaptive 15-point
Gauss-Kronrod rule.  Each subdivision step evaluates all its panels in one
integrand call (every seeded panel of an integral at once, then the two
halves of each bisection), so integrands must be elementwise in their
array argument.  Working in u has three payoffs at once:

* power-law endpoint singularities at r -> 0 become plain exponential
  decay toward u = -infinity,
* slowly decaying tails r^{-1-s} (s as small as 1e-3 here) become
  exponentials e^{-s u} whose certified truncation point follows from the
  decay metadata in closed form,
* radii far beyond float64 range never need to be materialized, because
  profiles are evaluated through ``logeval(u, kappa) = f(e^u) e^{kappa u}``
  with the measure power folded in before anything can overflow.

Truncation is always driven by declared decay exponents, never by blind
sampling: the neglected mass is bounded by a closed-form power-law (or
exponential) tail estimate pushed below abs_tol/10, with the bound's
constant estimated by probing the integrand and doubling.  A divergent
integral is recognized from the same exponents and raised as
DivergentIntegralError before the integrand is evaluated at all; an
integrand that leaves float range raises NonFiniteIntegrandError.

The Monte Carlo half of the module draws uniform points of the Koranyi
unit ball by rejection from the enclosing box [-1, 1]^{2n+1}, using
counter-based Philox streams keyed by (seed, round): the candidate for
index i in round t is a pure function of (seed, t, i), so batches are
bitwise reproducible and disjoint index ranges can be produced
independently with identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import HeisSpace, koranyi_norm_array, sphere_project_array

__all__ = [
    "DivergentIntegralError",
    "NonFiniteIntegrandError",
    "ToleranceNotReachedError",
    "QuadratureSpec",
    "QuadResult",
    "RadialProfile",
    "power_profile",
    "exp_profile",
    "constant_profile",
    "zero_profile",
    "mixture_profile",
    "scaled_profile",
    "product_profile",
    "abs_power_profile",
    "integrate_radial",
    "certified_log_integral",
    "SamplingBudgetError",
    "SampleBatch",
    "mc_ball_sample",
    "mc_sphere_sample",
]


class DivergentIntegralError(ArithmeticError):
    """Decay metadata says the requested integral diverges."""


class NonFiniteIntegrandError(ArithmeticError):
    """The integrand, or the constant of its decay envelope, left float range."""


class SamplingBudgetError(RuntimeError):
    """Rejection sampling ran out of rounds before it filled the batch."""


class ToleranceNotReachedError(ArithmeticError):
    """Subdivision budget exhausted; carries the best estimate found."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def inner(self) -> "QuadratureSpec":
        """Tighter spec for quadratures nested inside another integrand."""
        return QuadratureSpec(
            rel_tol=max(self.rel_tol * 1e-2, 1e-13),
            abs_tol=max(self.abs_tol * 1e-2, 1e-18),
            max_subdivisions=self.max_subdivisions,
        )


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float


# 15-point Kronrod nodes with the embedded 7-point Gauss weights at the odd
# positions (QUADPACK dqk15 constants).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]


def _panels(
    fun: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GK15 values and error estimates of the panels [lo[k], hi[k]] from one call of fun.

    fun sees the panel-major flat node array of shape (len(lo) * 15,).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XK).ravel()
    y = np.asarray(fun(x), dtype=float).reshape(len(lo), _XK.size)
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteIntegrandError(
            f"integrand not finite on panel [{float(lo[k])}, {float(hi[k])}]"
        )
    ik = half * (y @ _WK)
    ig = half * (y @ _WG)
    return ik, np.abs(ik - ig)


def _adaptive(
    fun: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    abs_tol: float,
    max_panels: int,
    seeds: Sequence[float] = (),
) -> tuple[float, float]:
    """Globally adaptive GK15 bisection over [a, b] with seeded panel edges.

    All seeded panels are evaluated in one call of fun, and each bisection
    evaluates its two children in one more.
    """
    if not b > a:
        return 0.0, 0.0
    edges = sorted({a, b, *(s for s in seeds if a < s < b)})
    values, errors = _panels(fun, np.array(edges[:-1]), np.array(edges[1:]))
    panels = [list(p) for p in zip(edges[:-1], edges[1:], values.tolist(), errors.tolist())]
    total = 0.0
    err = 0.0
    for _, _, v, e in panels:
        total += v
        err += e
    heap = [(-p[3], i) for i, p in enumerate(panels)]
    heapq.heapify(heap)
    frozen = 0.0  # error on panels at machine resolution, not reducible
    while err + frozen > max(rel_tol * abs(total), abs_tol):
        if len(panels) >= max_panels or not heap:
            value = math.fsum(p[2] for p in panels)
            if not heap:
                return value, err + frozen
            raise ToleranceNotReachedError(
                f"tolerance not reached after {len(panels)} panels "
                f"(estimate {value!r}, error {err + frozen!r})",
                estimate=value,
                error=err + frozen,
            )
        _, i = heapq.heappop(heap)
        lo, hi, v_old, e_old = panels[i]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            frozen += e_old
            err -= e_old
            panels[i][3] = 0.0
            continue
        values, errors = _panels(fun, np.array([lo, mid]), np.array([mid, hi]))
        (v1, v2), (e1, e2) = values.tolist(), errors.tolist()
        total += v1 + v2 - v_old
        err += e1 + e2 - e_old
        panels[i] = [lo, mid, v1, e1]
        heapq.heappush(heap, (-e1, i))
        panels.append([mid, hi, v2, e2])
        heapq.heappush(heap, (-e2, len(panels) - 1))
    return math.fsum(p[2] for p in panels), err + frozen


def _ladder(a: float, b: float, cap_near: float, cap_far: float) -> list[float]:
    """Dyadic seed points growing away from `a` toward `b`, width-capped.

    The near-edge cap resolves structure on the local decay scale; the far
    cap bounds panel widths so smooth exponential variation stays inside
    the rule's reach on every panel.
    """
    width = b - a
    cap_near = max(cap_near, width / 64.0)
    cap_far = max(cap_far, width / 64.0)
    seeds = []
    step = min(cap_near, width) / 2.0
    if step <= 0:
        return seeds
    x = a + step
    while x < b and len(seeds) < 160:
        seeds.append(x)
        step = min(step * 2.0, cap_far)
        x += step
    return seeds


def _two_sided_seeds(a: float, b: float, cap_lo: float, cap_hi: float) -> set[float]:
    cap = max(cap_lo, cap_hi)
    left = _ladder(a, b, cap_lo, cap)
    right = [a + b - s for s in _ladder(a, b, cap_hi, cap)]
    return set(left) | set(right)


_TRUNC_EFOLDS = 45.0  # window length, in e-folds of decay, beyond which we cut
_ENVELOPE_OFFSETS = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 12.0])


def _envelope_cut(
    fun, base: float, end: float, rate: float, sign: float, abs_tol: float
) -> tuple[float, float]:
    """Pull `end`, on side `sign` of `base`, in to where the decay envelope is negligible.

    The envelope C e^{-rate |u - base|} takes its constant from probing fun
    and doubling; the cut sits where the neglected mass drops below
    abs_tol/20, but no nearer than 13 units of u.  Returns the new end and that mass.
    When the constant leaves float range a finite end is kept whole, and an
    infinite one raises NonFiniteIntegrandError.
    """
    offsets = _ENVELOPE_OFFSETS
    probes = np.abs(fun(base + sign * offsets))
    # a probe that underflowed to zero bounds nothing, even where exp overflows
    c_est = 2.0 * float(np.max(np.where(probes == 0.0, 0.0, probes * np.exp(rate * offsets))))
    width = 13.0 if c_est == 0.0 else max(math.log(20.0 * c_est / (abs_tol * rate)) / rate, 13.0)
    if not math.isfinite(width) and math.isinf(end):
        raise NonFiniteIntegrandError(
            f"no finite cutoff for the decay envelope at u = {base!r} (constant {c_est!r})"
        )
    cut = base + sign * width
    if not sign * cut < sign * end:
        return end, 0.0
    return cut, c_est * math.exp(-rate * width) / rate


def certified_log_integral(
    fun: Callable[[np.ndarray], np.ndarray],
    u_lo: float,
    u_hi: float,
    rate_lo: float,
    rate_hi: float,
    spec: QuadratureSpec,
    seeds: Sequence[float] = (),
) -> QuadResult:
    """Adaptive integral of fun(u) du over [u_lo, u_hi] with certified cutoffs.

    Endpoints may be infinite.  Toward u_lo the integrand must obey
    |fun| <= C e^{rate_lo (u - center)} with rate_lo > 0, and toward u_hi
    |fun| <= C e^{-rate_hi (u - center)} with rate_hi > 0; center is 0
    clamped into [u_lo, u_hi].  rate_hi = inf declares an exponential tail
    in r = e^u, whose upper cutoff is found by scanning for the
    doubly-exponential collapse.  An infinite end whose rate is not
    positive raises DivergentIntegralError before fun is evaluated.
    The envelope constants are estimated by probing fun near the center
    and doubling; windows are cut where the envelope bound drops below
    abs_tol/10 and the neglected mass joins the returned error estimate.
    Finite windows far longer than the decay scale are cut the same way,
    which also keeps profile evaluations away from regions where
    individual factors of an integrand would leave float range.
    """
    if math.isinf(u_hi) and not rate_hi > 0:
        raise DivergentIntegralError(
            f"non-decaying upper tail (rate {rate_hi} <= 0); divergent integral"
        )
    if math.isinf(u_lo) and not rate_lo > 0:
        raise DivergentIntegralError(
            f"non-decaying lower tail (rate {rate_lo} <= 0); divergent integral"
        )
    # over/underflow in far-out evaluations is expected and handled
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        center = 0.0
        if math.isfinite(u_lo):
            center = max(center, u_lo)
        if math.isfinite(u_hi):
            center = min(center, u_hi)
        trunc_err = 0.0
        exp_decay = rate_hi == math.inf

        if exp_decay:
            # a finite window needs no cut under exponential decay
            if math.isinf(u_hi):
                u = center + 1.0
                for _ in range(300):
                    g0 = abs(float(fun(np.array(u))))
                    g1 = abs(float(fun(np.array(u + 0.5))))
                    if g0 < spec.abs_tol / 20.0 and g1 <= g0 * math.exp(-0.5) + spec.abs_tol / 100.0:
                        break
                    u += 1.0
                else:
                    raise DivergentIntegralError("no certified cutoff for exponential tail")
                u_hi = u
                trunc_err += g0 * 2.0
        elif math.isinf(u_hi) or rate_hi * (u_hi - center) > _TRUNC_EFOLDS:
            u_hi, err = _envelope_cut(fun, center, u_hi, rate_hi, 1.0, spec.abs_tol)
            trunc_err += err

        if math.isinf(u_lo) or rate_lo * (center - u_lo) > _TRUNC_EFOLDS:
            u_lo, err = _envelope_cut(fun, min(center, u_hi), u_lo, rate_lo, -1.0, spec.abs_tol)
            trunc_err += err

        if not u_lo < u_hi:
            return QuadResult(0.0, trunc_err)

        cap_lo = 4.0 / max(abs(rate_lo), 0.25)
        cap_hi = 2.0 if exp_decay else 4.0 / max(abs(rate_hi), 0.25)
        all_seeds = _two_sided_seeds(u_lo, u_hi, cap_lo, cap_hi)
        all_seeds.update(s for s in seeds if u_lo < s < u_hi)
        value, err = _adaptive(
            fun, u_lo, u_hi,
            rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
            max_panels=spec.max_subdivisions, seeds=sorted(all_seeds),
        )
        return QuadResult(value, err + trunc_err)


# --- radial profiles ----------------------------------------------------------


class RadialProfile:
    """A radial function r in (0, inf) -> R with decay metadata.

    The metadata is what makes improper integrals certifiable:
    |f(r)| = O(r^origin_exponent) as r -> 0+ and O(r^tail_exponent) as
    r -> infinity; tail_exponent = -inf declares an exponential tail
    e^{-c r} that beats every power.  `support` clips the function to an
    interval; outside it the profile evaluates to zero, and a bounded
    support makes the tail exponent irrelevant.

    Evaluation goes through ``logeval(u, kappa) = f(e^u) * e^{kappa u}`` so
    measure powers can be folded in without overflow at extreme radii.
    """

    def __init__(
        self,
        logeval: Callable[[np.ndarray, float], np.ndarray],
        origin_exponent: float,
        tail_exponent: float,
        support: tuple[float, float] = (0.0, math.inf),
        breakpoints: tuple[float, ...] = (),
        is_zero: bool = False,
    ):
        lo, hi = support
        if not (0.0 <= lo < hi):
            raise ValueError(f"support must satisfy 0 <= lo < hi, got {support}")
        self._logeval = logeval
        self.origin_exponent = float(origin_exponent)
        self.tail_exponent = float(tail_exponent)
        self.support = (float(lo), float(hi))
        self.breakpoints = tuple(sorted({b for b in breakpoints if 0.0 < b < math.inf}))
        self.is_zero = is_zero

    def logeval(self, u, kappa: float = 0.0) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.is_zero:
            return np.zeros_like(u)
        vals = np.asarray(self._logeval(u, kappa), dtype=float)
        lo, hi = self.support
        if lo > 0.0 or math.isfinite(hi):
            ulo = math.log(lo) if lo > 0.0 else -math.inf
            uhi = math.log(hi) if math.isfinite(hi) else math.inf
            vals = np.where((u >= ulo) & (u <= uhi), vals, 0.0)
        return vals

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radial profiles are defined for r > 0 only")
        out = self.logeval(np.log(r), 0.0)
        return float(out) if out.ndim == 0 else out

    __call__ = eval

    def log_breakpoints(self) -> tuple[float, ...]:
        pts = [math.log(b) for b in self.breakpoints]
        for s in self.support:
            if 0.0 < s < math.inf:
                pts.append(math.log(s))
        return tuple(sorted(set(pts)))


def power_profile(
    exponent: float,
    coeff: float = 1.0,
    support: tuple[float, float] = (0.0, math.inf),
) -> RadialProfile:
    """coeff * r^exponent, optionally truncated to `support`."""

    def lv(u, kappa):
        return coeff * np.exp((exponent + kappa) * u)

    return RadialProfile(lv, origin_exponent=exponent, tail_exponent=exponent, support=support)


def exp_profile(rate: float, exponent: float = 0.0, coeff: float = 1.0) -> RadialProfile:
    """coeff * r^exponent * e^{-rate * r} with rate > 0; its tail exponent is -inf."""
    if not rate > 0:
        raise ValueError("decay rate must be positive")

    def lv(u, kappa):
        arg = (exponent + kappa) * u - rate * np.exp(u)
        return coeff * np.exp(arg)

    return RadialProfile(lv, origin_exponent=exponent, tail_exponent=-math.inf)


def constant_profile(c: float, support: tuple[float, float] = (0.0, math.inf)) -> RadialProfile:
    return power_profile(0.0, c, support)


def zero_profile() -> RadialProfile:
    return RadialProfile(
        lambda u, kappa: np.zeros_like(np.asarray(u, dtype=float)),
        origin_exponent=0.0, tail_exponent=-math.inf, is_zero=True,
    )


def mixture_profile(parts: Sequence[RadialProfile]) -> RadialProfile:
    """Pointwise sum; metadata takes the worst case over the parts."""
    parts = [p for p in parts if not p.is_zero]
    if not parts:
        return zero_profile()
    if len(parts) == 1:
        return parts[0]

    def lv(u, kappa):
        acc = parts[0].logeval(u, kappa).copy()
        for p in parts[1:]:
            acc = acc + p.logeval(u, kappa)
        return acc

    lo = min(p.support[0] for p in parts)
    hi = max(p.support[1] for p in parts)
    # only parts that actually reach an edge grade the behavior there
    at_lo = [p for p in parts if p.support[0] == lo]
    at_hi = [p for p in parts if p.support[1] == hi]
    breaks = []
    for p in parts:
        breaks.extend(p.breakpoints)
        breaks.extend(s for s in p.support if 0.0 < s < math.inf)
    return RadialProfile(
        lv,
        origin_exponent=min(p.origin_exponent for p in at_lo),
        tail_exponent=max(p.tail_exponent for p in at_hi),
        support=(lo, hi),
        breakpoints=tuple(breaks),
    )


def scaled_profile(f: RadialProfile, c: float) -> RadialProfile:
    if c == 0.0 or f.is_zero:
        return zero_profile()
    return RadialProfile(
        lambda u, kappa: c * f.logeval(u, kappa),
        origin_exponent=f.origin_exponent,
        tail_exponent=f.tail_exponent,
        support=f.support,
        breakpoints=f.breakpoints,
    )


def product_profile(f: RadialProfile, g: RadialProfile) -> RadialProfile:
    """Pointwise product; exponents add, supports intersect."""
    if f.is_zero or g.is_zero:
        return zero_profile()
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    if not lo < hi:
        return zero_profile()
    return RadialProfile(
        lambda u, kappa: f.logeval(u, 0.5 * kappa) * g.logeval(u, 0.5 * kappa),
        origin_exponent=f.origin_exponent + g.origin_exponent,
        tail_exponent=f.tail_exponent + g.tail_exponent,
        support=(lo, hi),
        breakpoints=f.breakpoints + g.breakpoints,
    )


def abs_power_profile(f: RadialProfile, p: float) -> RadialProfile:
    """|f|^p with the decay metadata scaled by p."""
    if f.is_zero:
        return zero_profile()
    return RadialProfile(
        lambda u, kappa: np.abs(f.logeval(u, kappa / p)) ** p,
        origin_exponent=p * f.origin_exponent,
        tail_exponent=p * f.tail_exponent,
        support=f.support,
        breakpoints=f.breakpoints,
    )


# --- radial integration --------------------------------------------------------


def integrate_radial(
    g: RadialProfile,
    space: HeisSpace,
    interval: tuple[float, float] = (0.0, math.inf),
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """int g(r) r^{Q-1} dr over the interval, with a certified error estimate.

    Raises DivergentIntegralError when decay metadata rules out convergence
    and ToleranceNotReachedError (carrying the best estimate) when the
    subdivision budget runs out.
    """
    spec = spec or QuadratureSpec()
    lo, hi = interval
    if not (0.0 <= lo < hi):
        raise ValueError(f"bad interval {interval}")
    if g.is_zero:
        return QuadResult(0.0, 0.0)
    lo, hi = max(lo, g.support[0]), min(hi, g.support[1])
    if not lo < hi:
        return QuadResult(0.0, 0.0)

    q = float(space.q)
    u_lo = math.log(lo) if lo > 0.0 else -math.inf
    u_hi = math.log(hi) if math.isfinite(hi) else math.inf
    rate_lo = g.origin_exponent + q          # required > 0 if u_lo = -inf
    rate_hi = -(g.tail_exponent + q)         # required > 0 if u_hi = +inf
    return certified_log_integral(
        lambda u: g.logeval(u, q),
        u_lo, u_hi, rate_lo, rate_hi, spec,
        seeds=g.log_breakpoints(),
    )


# --- Monte Carlo samplers -------------------------------------------------------

# Box acceptance is the ball's share of [-1, 1]^{2n+1}: 0.62 at n = 1, 0.048
# at n = 3, 1.5e-4 at n = 6.  After this many rounds each point stays
# unfilled with probability 2e-212 at n = 3, 4.9e-6 at n = 5, 0.23 at n = 6.
_MC_ROUNDS = 10_000


@dataclass
class SampleBatch:
    """Points drawn in or on the Koranyi unit ball/sphere.

    coords has shape (count, 2n+1).  attempts counts every candidate the
    rejection loop consumed, so acceptance_rate = count / attempts.
    """

    coords: np.ndarray
    seed: int
    acceptance_rate: float
    attempts: int
    kind: str = "ball"

    def __len__(self) -> int:
        return len(self.coords)

    def radii(self) -> np.ndarray:
        return koranyi_norm_array(self.coords)


def mc_ball_sample(space: HeisSpace, count: int, seed: int) -> SampleBatch:
    """Uniform points of {|x|_h <= 1} by rejection from the box [-1, 1]^{2n+1}.

    The ball sits inside the box because |x|_h <= 1 forces both the
    horizontal square-sum and the last coordinate into [-1, 1].  Candidate
    row i of round t comes from the Philox stream keyed (seed, t), so the
    accepted point at index i depends only on (seed, t, i).  Raises
    SamplingBudgetError when some index is still unfilled after _MC_ROUNDS
    rounds, which is likely from n = 6 on.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d = space.dim
    out = np.empty((count, d), dtype=float)
    pending = np.arange(count)
    attempts = 0
    for rnd in range(_MC_ROUNDS):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, rnd], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        cand = gen.random((count, d)) * 2.0 - 1.0
        cand = cand[pending]
        attempts += len(pending)
        accept = koranyi_norm_array(cand) <= 1.0
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
        if len(pending) == 0:
            break
    else:
        raise SamplingBudgetError(
            f"rejection sampling left {len(pending)} of {count} points unfilled after "
            f"{_MC_ROUNDS} rounds (acceptance {(count - len(pending)) / attempts:.3g})"
        )
    return SampleBatch(
        coords=out, seed=seed, acceptance_rate=count / attempts,
        attempts=attempts, kind="ball",
    )


def mc_sphere_sample(space: HeisSpace, count: int, seed: int) -> SampleBatch:
    """Uniform points of the unit gauge sphere via delta_{1/|x|_h} projection.

    Under the polar factorization dx = r^{Q-1} dr dtheta the projected
    angle of a uniform ball point has law dtheta / omega_small and is
    independent of the radius, whose own density is Q r^{Q-1} on [0, 1].
    """
    ball = mc_ball_sample(space, count, seed)
    coords = sphere_project_array(ball.coords, space.n)
    return SampleBatch(
        coords=coords, seed=seed, acceptance_rate=ball.acceptance_rate,
        attempts=ball.attempts, kind="sphere",
    )
