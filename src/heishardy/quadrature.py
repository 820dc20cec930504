"""Certified 1-D radial quadrature and seeded Monte Carlo sampling.

Radial integrals of the form  int g(r) r^{Q-1} dr  over (0, infinity) are
computed in the log-radius variable u = log r with an adaptive 15-point
Gauss-Kronrod rule.  Integrals run as populations: one engine takes many
integrals at once, each with its own window, decay rates and seeds and
exactly the steps it would take alone, and evaluates each step of all of
them together (the envelope probes of both ends, every seeded panel,
then the two halves of each member's worst panel) through integrand
calls fun(u, member) of at most _CALL_PANELS = 256 panels (3,840 points)
each, so integrands must be elementwise in their array argument.  A
population holds up to _MEMBERS = 3,840 integrals, the points of one
call: the inner integrals that one outer call asks for run as one
population, which pays its fixed cost per step once, and so do the
numerator and denominator of a norm ratio (_radial_integrals, whose
integrand sends each member's points to its own profile).  Seed panels
grow from each window's centre, where the decay envelope peaks, in steps
that start at a fraction of the local decay scale and double up to
_far_span(rel_tol) e-folds of their own side's decay rate (4 at rel_tol
1e-11, 6.9 at 1e-8, 16.8 at 1e-4), so a tail decaying like e^{-1e-3 u}
is seeded with 13-18 panels rather than 64 equal ones.
Working in u has three payoffs at once:

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
exponential) tail estimate pushed below abs_tol/20, with the bound's
constant estimated by probing the integrand and doubling.  A divergent
integral is recognized from the same exponents and raised as
DivergentIntegralError before the integrand is evaluated at all; an
integrand that leaves float range raises NonFiniteIntegrandError.

The Monte Carlo half of the module draws uniform points of the Koranyi
unit ball from the seeded streams of the geometry module (geometry._stream
and its blocks of fixed-width rows, geometry._gaussian_rows): index i's point depends
only on (seed mod 2^64, stream, i), so batches are bitwise reproducible and
a batch is the prefix of any larger one.  exact_ball_sample draws from the
ball law directly and serves every Monte Carlo estimate of the package, at
any n.  The box samplers mc_ball_sample and mc_sphere_sample reject from
[-1, 1]^{2n+1} along one stream of candidate rows, point i the i-th
accepted row, report their acceptance rate, 1.5e-4 at n = 6, and raise at
the first point they cannot fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .geometry import _BLOCK, HeisSpace, _gaussian_rows, _stream, koranyi_norm_array, sphere_project_array

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
    "exact_ball_sample",
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

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def inner(self) -> "QuadratureSpec":
        """Tighter spec for quadratures nested inside another integrand."""
        return QuadratureSpec(
            rel_tol=max(self.rel_tol * 1e-2, 1e-13),
            abs_tol=max(self.abs_tol * 1e-2, 1e-18),
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


_CALL_PANELS = 256  # GK15 panels per integrand call, i.e. 3,840 points, the cap of every call
# integrals per population: an outer call's points make at most one population
_MEMBERS = _CALL_PANELS * _XK.size
_MAX_PANELS = 2000  # panels per integral before ToleranceNotReachedError
_POW2 = 2.0 ** np.arange(160)  # the doublings of a seed ladder's steps (_ladder)


def _panels(fun: Callable, lo: np.ndarray, hi: np.ndarray, member: np.ndarray, failures: dict):
    """GK15 values and error estimates of the panels [lo[k], hi[k]].

    Panel k belongs to integral member[k] (ascending, each member's panels
    contiguous); fun sees the flat nodes and their members, at most
    _CALL_PANELS panels per call, and each call's panels are reduced before
    the next is made, so no population-sized node array exists.  Each panel
    reduces in a row sum of its own (_gk15), so a member's values are
    bitwise those it gets alone.  A call's first non-finite panel fails its
    member in `failures`.
    """
    ik, err = np.empty(len(lo)), np.empty(len(lo))
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    for k in range(0, len(lo), _CALL_PANELS):
        s = slice(k, k + _CALL_PANELS)
        x = np.multiply.outer(half[s], _XK)
        x += mid[s, None]
        y = np.asarray(fun(x.ravel(), np.repeat(member[s], _XK.size)), dtype=float).reshape(-1, _XK.size)
        ik[s], err[s] = _gk15(y, half[s])
        # a non-finite node makes K15 non-finite (every Kronrod weight is positive), so the
        # nodes are looked at only then: K15 may also overflow from finite ones
        if not np.isfinite(ik[s]).all() and not np.isfinite(y).all():
            j = k + int(np.argmax(~np.isfinite(y).all(axis=1)))
            failures.setdefault(int(member[j]), NonFiniteIntegrandError(
                f"integrand not finite on panel [{float(lo[j])}, {float(hi[j])}]"))
    return ik, err


def _gk15(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 and |K15 - G7| of panels of half-widths `half`, node values in the rows of y: einsum
    reduces each row alike wherever it sits, where a BLAS product (y @ w) may not."""
    ik = half * np.einsum("ij,j->i", y, _WK)
    return ik, np.abs(ik - half * np.einsum("ij,j->i", y, _WG))


def _bisect(
    fun: Callable, edges: np.ndarray, rel_tol: float, abs_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Globally adaptive GK15 bisection of the integrals m of fun(u, m), one edge row each.

    Row m of `edges` holds sorted distinct edges, nan-padded.  All seeded
    panels are evaluated together; then each sweep bisects the worst live
    panel (largest error, ties to the lowest index) of every unfinished
    member and evaluates all the children in one call.  A panel at machine
    resolution is frozen (its key -inf) and keeps its error in the member's
    one error sum, which the tolerance test, ToleranceNotReachedError and
    the result all read.  A member stops at its first failure; the lowest
    failing member's error is raised once all have stopped.  Panel rows
    start as wide as the seeded edges and double only when a bisection
    needs room.  Returns the values, each the in-order sum of its member's
    own panels (in row order), and the error estimates; both are bitwise a
    member's own in any population.
    """
    n = len(edges)
    failures = {}
    lo, hi = edges[:, :-1].copy(), edges[:, 1:].copy()  # rows of the panels, split in place
    used = ~np.isnan(hi)
    counts = used.sum(axis=1)
    v, e = _panels(fun, lo[used], hi[used], np.nonzero(used)[0], failures)

    def wider(x, fill):  # panel rows with room for as many bisections again
        return np.hstack([x, np.full(x.shape, fill)])

    val = np.zeros(lo.shape)
    key = np.full(lo.shape, -np.inf)  # error of each live panel; -inf once frozen or unused
    val[used], key[used] = v, e
    # running sums add the panels in order, as a scalar loop does (np.sum pairs them)
    total = np.cumsum(val, axis=1)[:, -1]
    err = np.cumsum(np.where(used, key, 0.0), axis=1)[:, -1]
    done, top = np.zeros(n, dtype=bool), int(counts.max())  # top bounds every member's panel count
    while True:
        if failures:
            done[list(failures)] = True
        act = np.flatnonzero(~done)
        if not act.size:
            break
        k = key[act].argmax(axis=1)
        e_old = key[act, k]
        tol = np.maximum(rel_tol * np.abs(total[act]), abs_tol)
        more = (err[act] > tol) & (e_old > -np.inf)
        done[act[~more]] = True
        if top >= _MAX_PANELS:
            full = more & (counts[act] >= _MAX_PANELS)
            for m in act[full].tolist():
                value, error = float(np.cumsum(val[m, :counts[m]])[-1]), float(err[m])
                failures[m] = ToleranceNotReachedError(
                    f"tolerance not reached after {int(counts[m])} panels "
                    f"(estimate {value!r}, error {error!r})", estimate=value, error=error)
            more &= ~full
        act, k, e_old = act[more], k[more], e_old[more]
        a, b = lo[act, k], hi[act, k]
        mid = 0.5 * (a + b)
        flat = (mid <= a) | (mid >= b)
        if flat.any():
            key[act[flat], k[flat]] = -np.inf
            act, k, e_old, a, b, mid = (x[~flat] for x in (act, k, e_old, a, b, mid))
        if not act.size:
            continue
        if top >= lo.shape[1] and counts[act].max() >= lo.shape[1]:
            lo, hi, val, key = wider(lo, np.nan), wider(hi, np.nan), wider(val, 0.0), wider(key, -np.inf)
        ends = np.stack([a, mid, b], axis=1)
        v, e = (x.reshape(-1, 2) for x in _panels(
            fun, ends[:, :2].ravel(), ends[:, 1:].ravel(), np.repeat(act, 2), failures))
        total[act] += v[:, 0] + v[:, 1] - val[act, k]
        err[act] += e[:, 0] + e[:, 1] - e_old
        c = counts[act]
        lo[act, c], hi[act, c], val[act, c], key[act, c] = mid, b, v[:, 1], e[:, 1]
        hi[act, k], val[act, k], key[act, k] = mid, v[:, 0], e[:, 0]
        counts[act] += 1
        top += 1
    for m in np.flatnonzero(~np.isfinite(total + err)).tolist():
        failures.setdefault(m, NonFiniteIntegrandError(
            f"integral leaves float range (estimate {float(total[m])!r})"))
    if failures:
        raise failures[min(failures)]
    # each value is read at its member's last panel: the padding past it cannot turn a
    # -0.0 sum into 0.0
    return np.cumsum(val[:, :counts.max()], axis=1)[np.arange(n), counts - 1], err


def _ladder(a: np.ndarray, b: np.ndarray, cap_near: float, cap_far: float) -> np.ndarray:
    """Dyadic seed points growing away from a[m] toward b[m], width-capped; nan-padded rows.

    The first step is half the near cap (or of the window, if narrower), so
    structure on the local decay scale next to a[m] is resolved however
    steep it is; steps double up to the far cap, which bounds panel widths
    so smooth exponential variation stays inside the rule's reach on every
    panel.  The far cap is floored at a 64th of the window; an infinite one
    leaves pure doubling; caps are scalars or one per row.  An empty window
    gives no seeds.  The seeds are built in one (members, k) buffer and
    returned as a view of it.
    """
    width = b - a
    step = np.minimum(cap_near, width) / 2.0
    far = np.maximum(cap_far, width / 64.0)
    # 2^d >= min(far, width)/step (binary exponents, so an empty window needs no 0/0), so d
    # doublings reach the far cap or cross the window and ceil(width/far) far steps then
    # cross it: k columns hold every seed (two spare for rounding)
    d = np.frexp(np.minimum(far, width))[1] - np.frexp(step)[1] + 1
    k = int(min(np.max(d + np.ceil(width / far)) + 2, 160))
    # steps double (exactly) up to the far cap; seeds are their running sums from a, in
    # order: a joins the first step and the sums accumulate in place
    x = np.multiply(step[:, None], _POW2[:k])
    np.minimum(x, far[:, None], out=x)
    x[:, 0] += a
    np.cumsum(x, axis=1, out=x)
    inside = x < b[:, None]
    np.copyto(x, np.nan, where=~inside)
    return x[:, :np.count_nonzero(inside.any(axis=0))]  # rows never decrease: seeds are a prefix


@lru_cache(maxsize=64)
def _far_span(rel_tol: float) -> float:
    """Far seed panel span in e-folds: the largest in [4, 40] (to 4e-11) over which one GK15
    panel of e^{-x} from its peak has |K15 - G7| <= rel_tol K15; 4 at rel_tol <= 1.02e-11."""
    lo, hi = 4.0, 40.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        # the nodes as _panels places them, and its reduction
        (k,), (e,) = _gk15(np.exp(-(0.5 * mid + 0.5 * mid * _XK))[None], np.array([0.5 * mid]))
        lo, hi = (mid, hi) if e <= rel_tol * k else (lo, mid)
    return lo


_TRUNC_EFOLDS = 45.0  # window length, in e-folds of decay, beyond which we cut
_ENVELOPE_OFFSETS = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 12.0])


def _cut(probes, sel, base, end, rate, sign, abs_tol, trunc, failures) -> None:
    """Pull end[m], on side `sign` of base[m], in to where the decay envelope is negligible.

    For each member m in sel, the envelope C e^{-rate[m] |u - base|} takes
    log C = log 2 + max(log probes + rate offsets) from probes (|integrand|
    at base[m] + sign * offsets, a row per member of sel), so a zero probe
    bounds nothing.  Finite and infinite ends alike are cut where the
    neglected mass e^{log C - rate w} / rate, added to trunc[m], drops below
    abs_tol/20, but no nearer than w = 13 units of u.  An infinite end left
    with no finite cut fails m with NonFiniteIntegrandError unless m failed
    before; _integrals' errstate ignores zero and infinite probes.
    """
    if not sel.size:
        return
    rate, old = rate[sel], end[sel]
    log_c = math.log(2.0) + np.max(np.log(probes) + rate[:, None] * _ENVELOPE_OFFSETS, axis=1)
    width = np.maximum((log_c + math.log(20.0) - math.log(abs_tol) - np.log(rate)) / rate, 13.0)
    new = base[sel] + sign * width
    cut = sign * new < sign * old  # never where the width is not finite
    end[sel[cut]] = new[cut]
    trunc[sel[cut]] += (np.exp(log_c - rate * width) / rate)[cut]
    for j in np.flatnonzero(~np.isfinite(width) & np.isinf(old)).tolist():
        failures.setdefault(int(sel[j]), NonFiniteIntegrandError(
            f"no finite cutoff for the decay envelope at u = {float(base[sel[j]])!r} "
            f"(constant {math.exp(log_c[j])!r})"))


def _population(fun, ids, lo, hi, rate_lo, rate_hi, spec, seeds, far) -> tuple[np.ndarray, np.ndarray]:
    """The integrals ids[m] over [lo[m], hi[m]] as one population; see _integrals.

    Each window, cut to its decay envelope, is seeded with its centre c (0
    clamped into it), one _ladder from c out to each end and the caller's
    seeds; _bisect refines from there.  One call probes the envelopes of
    both sides of every member, and one _ladder call builds both sides'
    ladders, which start at a fraction of their own side's decay scale (4
    e-folds, at most 16 units) and grow to far panels of `far` e-folds
    (_far_span of spec.rel_tol) of their own side's rate, never shorter than
    the larger near cap.  A side with rate 0 only doubles, and the
    exponential-tail side keeps the larger near cap.  Both sides of every
    member are cut, and a member keeps its first failure (the tail scan's,
    then either cut's); the lowest failing member's error is raised after
    the members below it are bisected.
    """
    def call(x, m):  # |fun| at envelope probes and tail scans, in calls no larger than _panels makes
        x, m, y = x.ravel(), ids[m.ravel()], np.empty(x.shape)
        cap = _CALL_PANELS * _XK.size
        for k in range(0, x.size, cap):
            y.flat[k:k + cap] = fun(x[k:k + cap], m[k:k + cap])
        return np.abs(y)

    n = len(ids)
    center = np.minimum(np.maximum(0.0, lo), hi)
    trunc = np.zeros(n)
    failures = {}  # member -> the error it raised; later stages skip members above the lowest
    exp_decay = rate_hi == math.inf
    # an infinite end under exponential decay is scanned for its cutoff; a finite one needs no cut
    scan = np.flatnonzero(exp_decay & np.isinf(hi))
    if scan.size:
        u = center[scan] + 1.0
        for _ in range(300):
            g = call(np.column_stack([u, u + 0.5]), np.column_stack([scan, scan]))
            stop = (g[:, 0] < spec.abs_tol / 20.0) & (
                g[:, 1] <= g[:, 0] * math.exp(-0.5) + spec.abs_tol / 100.0)
            hi[scan[stop]] = u[stop]
            trunc[scan[stop]] += g[stop, 0] * 2.0
            scan, u = scan[~stop], u[~stop] + 1.0
            if not scan.size:
                break
        failures.update((m, ToleranceNotReachedError(
            "no certified cutoff for exponential tail", estimate=math.nan, error=math.inf))
            for m in scan.tolist())
    up = np.flatnonzero(~exp_decay & (np.isinf(hi) | (rate_hi * (hi - center) > _TRUNC_EFOLDS)))
    down = np.flatnonzero(np.isinf(lo) | (rate_lo * (center - lo) > _TRUNC_EFOLDS))
    if up.size or down.size:
        probes = call(np.vstack([center[up, None] + _ENVELOPE_OFFSETS, center[down, None] - _ENVELOPE_OFFSETS]),
                      np.repeat(np.concatenate([up, down])[:, None], _ENVELOPE_OFFSETS.size, axis=1))
        _cut(probes[:up.size], up, center, hi, rate_hi, 1.0, spec.abs_tol, trunc, failures)
        _cut(probes[up.size:], down, center, lo, rate_lo, -1.0, spec.abs_tol, trunc, failures)
    live = min(failures, default=n)  # windows are non-empty: _integrals passes no other, cuts keep c inside
    if live:
        a, b, c = lo[:live], hi[:live], center[:live]
        rates = np.abs([rate_lo[:live], rate_hi[:live]])
        caps = 4.0 / np.maximum(rates, 0.25)  # the near caps of the lower and the upper side
        caps[1, exp_decay[:live]] = 2.0
        cap = np.maximum(caps[0], caps[1])
        # the envelope peaks at the centre, so each side's ladder grows away from it; far
        # panels span up to `far` e-folds of their own side's decay, an exponential tail's
        # (rate inf) the larger near cap, and a side that does not decay (rate 0) only doubles
        rungs = _ladder(np.concatenate([-c, c]), np.concatenate([-a, b]), caps.ravel(),
                        np.maximum(cap, far / rates).ravel())
        edges = np.hstack([a[:, None], c[:, None], -rungs[:live], rungs[live:], seeds[:live], b[:, None]])
        inner = edges[:, 1:-1]
        inner[(inner <= a[:, None]) | (inner >= b[:, None])] = np.nan
        # sorted in place: a sorted copy would keep a second edge array alive through _bisect
        edges.sort(axis=1)
        same = edges[:, 1:] == edges[:, :-1]
        if same.any():  # a set of edges, as sorted(set(...))
            edges[:, 1:][same] = np.nan
            edges.sort(axis=1)
        value, err = _bisect(lambda x, m: fun(x, ids[m]), edges, spec.rel_tol, spec.abs_tol)
    if failures:
        raise failures[min(failures)]
    return value, err + trunc


def _integrals(
    fun: Callable, lo: np.ndarray, hi: np.ndarray, rate_lo, rate_hi, spec: QuadratureSpec, seeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified integrals of fun(u, m) du over [lo[m], hi[m]] for every member m at once.

    The engine behind certified_log_integral: each member takes exactly the
    steps of one such integral, with its own rates rate_lo[m] and
    rate_hi[m] (a scalar serves all) and seeds[m] (nan-padded) as extra
    panel edges; fun is elementwise in u, and m names each point's member.
    Populations hold at most _MEMBERS (3,840) members, as many as the
    points of one integrand call, so the integrals that one outer call
    asks for run as one population; a member's values are bitwise the same
    in any population, alone included.  An empty window gives 0; the first
    failing member, in index order, raises its error when the population
    ends (a divergent one before fun is evaluated at all); fun's own
    exceptions propagate at once, whichever member's points raised them.
    """
    rate_lo, rate_hi = (np.full(len(lo), r, dtype=float) for r in (rate_lo, rate_hi))
    up, down = np.isinf(hi) & ~(rate_hi > 0), np.isinf(lo) & ~(rate_lo > 0)
    for m in np.flatnonzero(up | down)[:1].tolist():
        side, rate = ("upper", float(rate_hi[m])) if up[m] else ("lower", float(rate_lo[m]))
        raise DivergentIntegralError(f"non-decaying {side} tail (rate {rate} <= 0); divergent integral")
    values, errors = np.zeros(len(lo)), np.zeros(len(lo))
    todo, far = np.flatnonzero(lo < hi), _far_span(spec.rel_tol)
    # over/underflow far out, and the decay scale 4/rate at rate 0, are expected and handled
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for k in range(0, len(todo), _MEMBERS):
            ids = todo[k:k + _MEMBERS]
            values[ids], errors[ids] = _population(
                fun, ids, lo[ids], hi[ids], rate_lo[ids], rate_hi[ids], spec, seeds[ids], far)
    return values, errors


def certified_log_integral(
    fun: Callable[[np.ndarray], np.ndarray],
    u_lo: float,
    u_hi: float,
    rate_lo: float,
    rate_hi: float,
    spec: QuadratureSpec,
) -> QuadResult:
    """Adaptive integral of fun(u) du over [u_lo, u_hi] with certified cutoffs.

    Endpoints may be infinite.  Toward u_lo the integrand must obey
    |fun| <= C e^{rate_lo (u - center)} with rate_lo > 0, and toward u_hi
    |fun| <= C e^{-rate_hi (u - center)} with rate_hi > 0; center is 0
    clamped into [u_lo, u_hi].  rate_hi = inf declares an exponential tail
    in r = e^u, whose upper cutoff is found by scanning for the
    doubly-exponential collapse; such a tail converges, so a scan that finds
    no cut within 300 steps raises ToleranceNotReachedError.  An infinite
    end whose rate is not positive raises DivergentIntegralError before fun
    is evaluated.
    The envelope constants are estimated by probing fun near the center
    and doubling; windows are cut where the envelope bound drops below
    abs_tol/20 and the neglected mass joins the returned error estimate.
    Finite windows far longer than the decay scale are cut the same way,
    which also keeps profile evaluations away from regions where
    individual factors of an integrand would leave float range.
    """
    values, errors = _integrals(lambda u, m: fun(u), np.array([u_lo], dtype=float),
                                np.array([u_hi], dtype=float), rate_lo, rate_hi, spec, np.empty((1, 0)))
    return QuadResult(float(values[0]), float(errors[0]))


# --- radial profiles ----------------------------------------------------------


class RadialProfile:
    """A radial function r in (0, inf) -> R with decay metadata.

    The metadata is what makes improper integrals certifiable:
    |f(r)| = O(r^origin_exponent) as r -> 0+ and O(r^tail_exponent) as
    r -> infinity; tail_exponent = -inf declares an exponential tail
    e^{-c r} that beats every power.  Its geometry is in u = log r.
    `log_support` (lo < hi) clips the function; outside it the profile
    evaluates to zero, and a bounded support makes the tail exponent
    irrelevant.  `log_breakpoints` is the sorted set of the finite support
    ends and of the finite breakpoints given, where the local scale changes
    (kinks, and the edge layer where an operator output falls to 0 at a
    support edge); every integral over the profile seeds its panels there.

    A built profile (power, exp, constant, zero, mixture, scaled) sums the
    terms c r^a e^{-lam r} on u in [ulo, uhi] of the rows (c, a, lam, ulo,
    uhi) of its table `terms`, which give its metadata (_terms); the zero
    profile is the empty table, so `is_zero` is `terms == ()`.  A lazy profile
    (operator outputs, product_profile, abs_power_profile) has `terms` None.

    Evaluation goes through ``logeval(u, kappa) = f(e^u) * e^{kappa u}`` so
    measure powers can be folded in without overflow at extreme radii.
    """

    def __init__(
        self,
        logeval: Callable[[np.ndarray, float], np.ndarray],
        origin_exponent: float,
        tail_exponent: float,
        log_support: tuple[float, float] = (-math.inf, math.inf),
        log_breakpoints: Sequence[float] = (),
        terms: tuple[tuple[float, ...], ...] | None = None,
    ):
        lo, hi = map(float, log_support)
        if not lo < hi:
            raise ValueError(f"log support must satisfy lo < hi, got {log_support}")
        self._logeval = logeval
        self.origin_exponent = float(origin_exponent)
        self.tail_exponent = float(tail_exponent)
        self.log_support = (lo, hi)
        self.log_breakpoints = tuple(sorted({float(u) for u in (*log_breakpoints, lo, hi) if math.isfinite(u)}))
        self.terms, self.is_zero = terms, terms == ()

    def logeval(self, u, kappa: float = 0.0) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        vals = np.asarray(self._logeval(u, kappa), dtype=float)
        ulo, uhi = self.log_support
        if ulo > -math.inf or uhi < math.inf:
            vals = np.where((u >= ulo) & (u <= uhi), vals, 0.0)
        return vals

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radial profiles are defined for r > 0 only")
        out = self.logeval(np.log(r), 0.0)
        return float(out) if out.ndim == 0 else out

    __call__ = eval


def _log_ends(support: tuple[float, float]) -> tuple[float, float]:
    """The radius support [lo, hi] in u = log r: the one r -> u conversion, and its check."""
    lo, hi = support
    ends = math.log(lo) if lo > 0.0 else -math.inf, math.log(hi) if 0.0 < hi < math.inf else math.inf
    if not (0.0 <= lo < hi and ends[0] < ends[1]):
        raise ValueError(f"support must satisfy 0 <= lo < hi with log lo < log hi, got {(lo, hi)}")
    return ends


def _terms(table) -> RadialProfile:
    """The built profile sum of c r^a e^{-lam r} on u in [ulo, uhi] over the rows (c, a, lam, ulo, uhi).

    Rows have ulo < uhi (the constructors check); rows with c = 0 drop out,
    and the empty table is the zero profile.  The log support is the rows'
    hull ((-inf, inf) if none), the origin (tail) exponent the least
    (greatest) order of the rows at its lower (upper) end (0 and -inf if
    none; -inf for lam > 0), and two rows or more make every finite row edge
    a breakpoint.  Rows sum in order, each masked where narrower than the
    hull (logeval masks that); lam = 0 skips e^{-lam r}: 0 e^u is nan past u = 709.78.
    """
    terms = tuple(t for t in table if t[0] != 0.0)
    lo, hi = min((t[3] for t in terms), default=-math.inf), max((t[4] for t in terms), default=math.inf)
    rows = [(c, a, lam, None if (ulo, uhi) == (lo, hi) else (ulo, uhi)) for c, a, lam, ulo, uhi in terms]

    def lv(u, kappa):
        acc = None
        for c, a, lam, ends in rows:
            arg = (a + kappa) * u
            v = c * np.exp(arg - lam * np.exp(u) if lam > 0.0 else arg)
            if ends is not None:
                v = np.where((u >= ends[0]) & (u <= ends[1]), v, 0.0)
            acc = v if acc is None else acc + v
        return np.zeros_like(u) if acc is None else acc

    origin = min((a for _, a, _, ulo, _ in terms if ulo == lo), default=0.0)
    tail = max((-math.inf if lam > 0.0 else a for _, a, lam, _, uhi in terms if uhi == hi), default=-math.inf)
    breaks = tuple(s for t in terms for s in t[3:]) if len(terms) > 1 else ()
    return RadialProfile(lv, origin, tail, (lo, hi), breaks, terms)


def _rows(parts: Sequence[RadialProfile], name: str) -> list:
    """The terms of the built profiles `parts`, in order; TypeError naming `name` for a lazy one."""
    if any(p.terms is None for p in parts):
        raise TypeError(f"{name} takes built profiles, not lazy ones such as operator outputs")
    return [t for p in parts for t in p.terms]


def power_profile(exponent: float, coeff: float = 1.0,
                  support: tuple[float, float] = (0.0, math.inf)) -> RadialProfile:
    """coeff * r^exponent, optionally truncated to the radii `support`; zero_profile() when coeff is 0."""
    return _terms(((coeff, exponent, 0.0, *_log_ends(support)),))


def exp_profile(rate: float, exponent: float = 0.0, coeff: float = 1.0) -> RadialProfile:
    """coeff * r^exponent * e^{-rate * r} with rate > 0, tail exponent -inf; zero_profile() when coeff is 0."""
    if not rate > 0:
        raise ValueError("decay rate must be positive")
    return _terms(((coeff, exponent, rate, -math.inf, math.inf),))


def constant_profile(c: float, support: tuple[float, float] = (0.0, math.inf)) -> RadialProfile:
    return _terms(((c, 0.0, 0.0, *_log_ends(support)),))


def zero_profile() -> RadialProfile:
    return _terms(())


def mixture_profile(parts: Sequence[RadialProfile]) -> RadialProfile:
    """Pointwise sum of built profiles: their terms, in order; metadata takes the worst case over them."""
    return _terms(_rows(parts, "mixture_profile"))


def scaled_profile(f: RadialProfile, c: float) -> RadialProfile:
    """c * f of a built f: its terms with coefficients times c (one that underflows to 0 drops out)."""
    return _terms([(c * t[0], *t[1:]) for t in _rows([f], "scaled_profile")])


def product_profile(f: RadialProfile, g: RadialProfile) -> RadialProfile:
    """Pointwise product; exponents add, supports intersect."""
    if f.is_zero or g.is_zero:
        return zero_profile()
    lo = max(f.log_support[0], g.log_support[0])
    hi = min(f.log_support[1], g.log_support[1])
    if not lo < hi:
        return zero_profile()
    return RadialProfile(
        lambda u, kappa: f.logeval(u, 0.5 * kappa) * g.logeval(u, 0.5 * kappa),
        origin_exponent=f.origin_exponent + g.origin_exponent,
        tail_exponent=f.tail_exponent + g.tail_exponent,
        log_support=(lo, hi),
        log_breakpoints=f.log_breakpoints + g.log_breakpoints,
    )


def abs_power_profile(f: RadialProfile, p: float) -> RadialProfile:
    """|f|^p with the decay metadata scaled by p."""
    if f.is_zero:
        return zero_profile()
    return RadialProfile(
        lambda u, kappa: np.abs(f.logeval(u, kappa / p)) ** p,
        origin_exponent=p * f.origin_exponent,
        tail_exponent=p * f.tail_exponent,
        log_support=f.log_support,
        log_breakpoints=f.log_breakpoints,
    )


# --- radial integration --------------------------------------------------------


def _radial_integrals(gs, space: HeisSpace, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """int g(r) r^{Q-1} dr over each support of the profiles gs, as one population, with errors.

    The integrand sends each member's points, in order, to that member's
    own profile, so an operator output's points still make one inner
    population per call.  A zero profile gives 0 with error 0.
    """
    q = float(space.q)
    ends = np.array([(0.0, 0.0) if g.is_zero else g.log_support for g in gs])
    breaks = [g.log_breakpoints for g in gs]
    seeds = np.array([b + (np.nan,) * (max(map(len, breaks)) - len(b)) for b in breaks])

    def fun(u, m):
        y = np.empty(u.shape)
        for k, g in enumerate(gs):
            at = m == k
            if at.any():
                y[at] = g.logeval(u[at], q)
        return y

    # an infinite end needs a positive rate: rate_lo = origin + Q, rate_hi = -(tail + Q)
    return _integrals(fun, ends[:, 0], ends[:, 1], [g.origin_exponent + q for g in gs],
                      [-(g.tail_exponent + q) for g in gs], spec, seeds)


def integrate_radial(
    g: RadialProfile,
    space: HeisSpace,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """int g(r) r^{Q-1} dr over g's support, with a certified error estimate.

    Raises DivergentIntegralError when decay metadata rules out convergence
    and ToleranceNotReachedError (carrying the best estimate) when the
    subdivision budget runs out.
    """
    values, errors = _radial_integrals([g], space, spec)
    return QuadResult(float(values[0]), float(errors[0]))


# --- Monte Carlo samplers -------------------------------------------------------

# Box acceptance is the ball's share of [-1, 1]^{2n+1}: 0.62 at n = 1, 0.048
# at n = 3, 1.5e-4 at n = 6.  A run of this many rejections leaves a point
# unfilled with probability 2e-212 at n = 3, 4.9e-6 at n = 5, 0.23 at n = 6,
# so the package's own estimates draw from exact_ball_sample instead.
_MC_ROUNDS = 10_000
_BOX_TAG = 0x424F58  # "BOX": the candidate stream of the box samplers
_BALL_TAG = 0x42414C4C  # "BALL": stream tag of exact_ball_sample


@dataclass
class SampleBatch:
    """Points drawn in or on the Koranyi unit ball/sphere.

    coords has shape (count, 2n+1).  attempts counts each point's candidates
    up to and including its accepted one, so acceptance_rate = count / attempts.
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
    horizontal square-sum and the last coordinate into [-1, 1].  Candidates
    are the rows of _stream(seed, _BOX_TAG), 2n+1 uniforms u each mapped to
    2u - 1 and gauge-tested _BLOCK rows at a time; point i is the i-th
    accepted row, so a batch is the prefix of any larger one and no bit
    depends on the blocking.  A point's run is the candidates after the
    previous acceptance.  At the end of the block where some run reaches
    _MC_ROUNDS rejections, likely from n = 6 on, SamplingBudgetError names
    the first such point, with the acceptance of the candidates through
    that rejection.  The batch is coordinate-major (Fortran order).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng, out = _stream(seed, _BOX_TAG), np.empty((count, space.dim), order="F")
    filled, tested, start = 0, 0, 0
    while filled < count:
        cand = rng.random((_BLOCK, space.dim)) * 2.0 - 1.0
        hits = np.flatnonzero(koranyi_norm_array(cand) <= 1.0)[:count - filled]
        ends = tested + 1 + hits  # candidates through each acceptance
        tested += _BLOCK
        # a run still open at the block end counts as if accepted just after it
        starts = np.append(start, ends)
        runs = np.diff(starts if filled + len(hits) == count else np.append(starts, tested + 1))
        late = np.flatnonzero(runs > _MC_ROUNDS)
        if late.size:
            i = late[0]
            raise SamplingBudgetError(
                f"rejection sampling left point {filled + i} of {count} unfilled after "
                f"{_MC_ROUNDS} rounds (acceptance {(filled + i) / (starts[i] + _MC_ROUNDS):.3g})"
            )
        out[filled:filled + len(hits)] = cand[hits]
        filled, start = filled + len(hits), int(starts[-1])
    return SampleBatch(
        coords=out, seed=seed, acceptance_rate=count / start,
        attempts=start, kind="ball",
    )


def mc_sphere_sample(space: HeisSpace, count: int, seed: int) -> SampleBatch:
    """Uniform points of the unit gauge sphere via delta_{1/|x|_h} projection.

    Under the polar factorization dx = r^{Q-1} dr dtheta the projected
    angle of a uniform ball point has law dtheta / omega_small and is
    independent of the radius, whose own density is Q r^{Q-1} on [0, 1].
    """
    ball = mc_ball_sample(space, count, seed)
    coords = sphere_project_array(ball.coords)
    return SampleBatch(
        coords=coords, seed=seed, acceptance_rate=ball.acceptance_rate,
        attempts=ball.attempts, kind="sphere",
    )


def exact_ball_sample(space: HeisSpace, count: int, seed: int) -> np.ndarray:
    """Uniform points of {|x|_h <= 1}, shape (count, 2n+1), without rejection.

    The batch is coordinate-major (Fortran order), the geometry kernels'
    layout, filled in blocks of geometry._BLOCK rows: only it grows with count.

    For x = (z, t): u = |z|^4 ~ Beta(n/2, 3/2), drawn as A/(A+B) with A and B
    sums of n and 3 squared normals; t is uniform on [-sqrt(1-u), sqrt(1-u)];
    the direction of z is a normalized Gaussian.
    """
    n = space.n
    out, lo = np.empty((count, 2 * n + 1), order="F"), 0
    for g, t in _gaussian_rows(count, 3 * n + 3, seed, _BALL_TAG):
        rows, lo = slice(lo, lo + len(t)), lo + len(t)
        a, b = np.sum(g[:, 2 * n:3 * n] ** 2, axis=1), np.sum(g[:, 3 * n:] ** 2, axis=1)
        u = a / (a + b)
        out[rows, :-1] = g[:, :2 * n] * (u**0.25 / np.linalg.norm(g[:, :2 * n], axis=1))[:, None]
        out[rows, -1] = t * np.sqrt(1.0 - u)
    return out
