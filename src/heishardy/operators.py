"""The four Hardy-type operators on radial profiles, behind one entry point.

`apply_operator(kind, f, space, spec)` applies every operator, through its
exact one-dimensional reduction, valid for radial functions on H^n
(Q = 2n + 2).  The kind is HARDY, DUAL_HARDY or OperatorKind(tag, w):

    hardy          H f(r)   = (Q / r^Q) int_0^r f(s) s^{Q-1} ds
    dual_hardy     H* f(r)  = Q int_r^inf f(s) / s ds
    weighted_hardy Hw f(r)  = int_0^1 f(t r) w(t) dt
    weighted_cesaro H*w f(r) = int_0^1 f(r / t) t^{-Q} w(t) dt

All four are one Mellin convolution in v = log(s / r): the Hardy side
integrates over v <= 0, the Cesaro side over v >= 0, and hardy/dual_hardy
are the weighted kinds at w(t) = Q t^{Q-1}.  A weight is a RadialProfile on
(0, 1] whose origin exponent is its order at t = 0: power_weight(c, beta) is
the one term row c t^beta, weight_from_callable any other as a lazy profile.
The reflection R f(r) = f(1/r) swaps the two sides (Hw = R H*w' R with
w'(t) = t^Q w(t)), so one Cesaro-side routine implements both.  Outputs are
lazily evaluated profiles: each radius evaluated is one certified quadrature
in the log domain, so the power scaling demanded by downstream norm
integrals never overflows.  Output decay metadata is
propagated symbolically from the input metadata, which keeps
improper-integral certification sound end to end.  Divergence is always
detected from metadata up front and raised as a typed error.

Only these radial forms are implemented.  On a separable non-radial input
g(|x|_h) h(theta) the kinds differ: hardy and dual_hardy integrate over a
ball or its complement, so they see h only through its sphere mean and
radializing the input first loses nothing; weighted_hardy and
weighted_cesaro act along dilation rays, T(g h) = (T g) h, so the angular
factor is carried along and radialization does not describe them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import HeisSpace
from .quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    RadialProfile,
    _integrals,
    _radial_integrals,
    power_profile,
    product_profile,
    zero_profile,
)

__all__ = [
    "power_weight",
    "weight_from_callable",
    "OperatorKind",
    "HARDY",
    "DUAL_HARDY",
    "apply_operator",
    "duality_pairing_check",
]


def power_weight(c: float = 1.0, beta: float = 0.0) -> RadialProfile:
    """The weight c t^beta on (0, 1]: the one term row (c, beta, 0, -inf, 0)."""
    if not (0 < c < math.inf and math.isfinite(beta)):
        raise ValueError(f"power-law weight needs finite c > 0 and beta, got c={c}, beta={beta}")
    return power_profile(beta, c, support=(0.0, 1.0))


def weight_from_callable(fn: Callable[[np.ndarray], np.ndarray], zero_exponent: float) -> RadialProfile:
    """A general weight t -> fn(t) on (0, 1] vanishing like t^zero_exponent at 0, as a lazy profile.

    fn must be elementwise in its array argument: one quadrature step
    evaluates it on the nodes of all its panels at once.
    """
    if not math.isfinite(zero_exponent):
        raise ValueError(f"a general weight needs a finite zero_exponent, got {zero_exponent}")

    def logeval(u, kappa):  # fn(e^u) e^{kappa u}, e^u clamped at the bottom of float range
        with np.errstate(under="ignore"):
            return np.asarray(fn(np.exp(np.maximum(u, -745.0))), dtype=float) * np.exp(kappa * u)

    return RadialProfile(logeval, zero_exponent, zero_exponent, (-math.inf, 0.0))


@dataclass(frozen=True)
class OperatorKind:
    """Which operator to apply; weighted variants carry their weight, a profile on (0, 1]."""

    tag: str  # "hardy" | "dual_hardy" | "weighted_hardy" | "weighted_cesaro"
    weight: RadialProfile | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("hardy", "dual_hardy", "weighted_hardy", "weighted_cesaro"):
            raise ValueError(f"unknown operator tag {self.tag!r}")
        if self.tag in ("weighted_hardy", "weighted_cesaro") and self.weight is None:
            raise ValueError(f"{self.tag} requires a weight function")
        if self.tag in ("hardy", "dual_hardy") and self.weight is not None:
            raise ValueError(f"{self.tag} has the fixed weight Q t^(Q-1) and takes none")
        w = self.weight
        if w is not None and w.log_support[1] > 0.0:
            raise ValueError(f"a weight lives on (0, 1], but its log support is {w.log_support}")
        # a built weight is the one row of power_weight(c, beta), which checks c and beta
        if w is not None and w.terms is not None and w.terms != power_weight(*w.terms[0][:2]).terms:
            raise ValueError(f"a built weight is one power row c t^beta on (0, 1], got the rows {w.terms}")

    @property
    def dual(self) -> bool:
        """True for the Cesaro-side kinds (dual_hardy, weighted_cesaro)."""
        return self.tag in ("dual_hardy", "weighted_cesaro")

    def weight_on(self, space: HeisSpace) -> RadialProfile:
        """The kind's weight; hardy and dual_hardy use w(t) = Q t^{Q-1}."""
        if self.weight is not None:
            return self.weight
        q = float(space.q)
        return power_weight(q, q - 1.0)


HARDY = OperatorKind("hardy")
DUAL_HARDY = OperatorKind("dual_hardy")


def apply_operator(
    kind: OperatorKind, f: RadialProfile, space: HeisSpace, spec: QuadratureSpec = QuadratureSpec()
) -> RadialProfile:
    """The operator `kind` applied to f, as a lazy profile: the one operator entry point.

    It convolves a profile g against the kind's weight w over v = log(s / r)
    >= 0: for w(t) = c t^beta, H*w g(r) = c int_{v>=0} g(r e^v) e^{(shift-1-beta) v} dv,
    and a lazy weight puts w(e^{-v}) in place of c e^{-beta v}.  The
    Cesaro side (kind.dual) is g = f at shift = Q.  The Hardy side is g = R f,
    R f(r) = f(1/r), at shift = 0, by the reflection Hw = R H*w' R with
    w'(t) = t^Q w(t), whose t^Q cancels the kernel's t^{-Q}:

        H*w' (R f)(rho) = int_0^1 (R f)(rho / t) t^{-Q} t^Q w(t) dt
                        = int_0^1 f(t / rho) w(t) dt,
        which at rho = 1/r is int_0^1 f(t r) w(t) dt = Hw f(r).

    R acts in u = log r, where it is exact in floats: u -> -u and kappa ->
    -kappa, f's log support and breakpoints negated, its origin and tail
    exponents negated and swapped.  An evaluation at the radii r = e^u runs
    one certified quadrature per radius, all of them in one call of the
    population engine, each over the part of the half-line meeting g's
    support, with the caller's measure power kappa folded into the kernel
    and a built weight's c applied outside.

    Soundness of the output metadata (a, b: g's origin and tail exponents;
    beta0: the weight's order at t = 0; bound = beta0 + 1 - shift):
    * H*w g(r) <= c r^b int_0^1 t^{-b-shift} w(t) dt at infinity, finite by
      the check bound - b > 0 whenever g's support is unbounded, so the tail
      b carries over; an exponential tail (b = -inf) passes the check and
      gives each evaluation rate_hi = inf, a scanned cutoff.  Near 0 the
      integrand grows like e^{(a+shift-1-beta0) v} up to v = log(1/r): the
      origin order is min(a, bound), with a = +inf if g vanishes near 0,
      lowered by 1e-6 at a tie for the logarithm.  The output lives on
      (0, g's sup_hi) and is kinked at g's sup_lo, a breakpoint.  Reflected
      back, a Hardy-side output keeps f's origin order, decays like
      max(f's tail, -(beta0 + 1)), raised at a tie (H r^{-Q} = Q r^{-Q} log r
      on r > 1), lives on (sup_lo, inf) and is kinked at sup_hi.
    * At a finite hi with 0 < rate_hi < inf the output falls to 0 at hi:
      its window [0, hi - u] shrinks to nothing, so it goes like
      1 - e^{-rate_hi (hi - u)} (exactly, for a power input) and changes
      scale within about 1 / rate_hi of hi.  Five breakpoints at
      u = hi - 2^k / rate_hi, k = 0..4, grade that layer one doubling per
      panel, so an integral over the output is seeded through it instead
      of bisecting into it sweep by sweep; past 16 / rate_hi the layer term
      is e^{-16} ~ 1e-7 of the output and the integral's own seed ladders
      take over; a Hardy-side output has them mirrored, at -hi + 2^k / rate_hi.
      A window that does not decay away from hi (rate_hi <= 0) has no such
      scale and no layer.  Breakpoints only seed integrals over the output;
      its values do not depend on them.

    The check runs on metadata before any evaluation and raises
    DivergentIntegralError: for hardy, f must be integrable against s^{Q-1}
    near 0; for dual_hardy, f(s)/s must be integrable at infinity.
    """
    w, spec = kind.weight_on(space), spec.inner()
    if f.is_zero:
        return zero_profile()
    if kind.dual:  # g = f
        shift, g, (lo, hi), breaks = float(space.q), f.logeval, f.log_support, np.array(f.log_breakpoints)
        origin, tail = f.origin_exponent, f.tail_exponent
    else:  # g = R f
        shift, g, lo, hi = 0.0, (lambda u, kappa: f.logeval(-u, -kappa)), -f.log_support[1], -f.log_support[0]
        breaks, origin, tail = -np.array(f.log_breakpoints), -f.tail_exponent, -f.origin_exponent
    bound = w.origin_exponent + 1.0 - shift
    rate_hi = bound - tail
    if math.isinf(hi) and rate_hi <= 0:
        raise DivergentIntegralError(
            f"Cesaro-side operator diverges at t -> 0 (screening rate {rate_hi} <= 0)" if kind.dual else
            f"Hardy-side operator diverges at the origin "
            f"(origin {f.origin_exponent} + weight order {w.origin_exponent} <= -1)")
    own = origin if lo == -math.inf else math.inf
    low = min(own, bound) - (1e-6 if own == bound else 0.0)  # the output's origin order
    # a built weight's row c t^beta: beta is folded into the one exp, which keeps the
    # factors in float range even on slowly converging windows, and c is applied outside
    if w.terms is not None:
        (scale, beta, *_), = w.terms
        kernel = lambda v, kappa: np.exp((shift - 1.0 - kappa - beta) * v)
    else:
        scale, kernel = 1.0, lambda v, kappa: w.logeval(-v) * np.exp((shift - 1.0 - kappa) * v)

    def logeval(u, kappa):
        # r^kappa (H*w g)(r) at r = e^u: one inner integral per radius, all in one engine call
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        values, _ = _integrals(lambda v, m: g(flat[m] + v, kappa) * kernel(v, kappa),
                               np.maximum(0.0, lo - flat), hi - flat, 1.0, rate_hi, spec,
                               breaks[None, :] - flat[:, None])
        return (scale * values).reshape(u.shape)

    # the output's breakpoints, apart from the inner seeds `breaks`: g's and the edge layer below hi
    out = breaks
    if math.isfinite(hi) and 0.0 < rate_hi < math.inf:
        out = np.concatenate([breaks, hi - 2.0 ** np.arange(5) / rate_hi])
    if kind.dual:
        return RadialProfile(logeval, low, tail, (-math.inf, hi), out)
    return RadialProfile(lambda u, kappa: logeval(-np.asarray(u, dtype=float), -kappa),
                         -tail, -low, (-hi, math.inf), -out)


def duality_pairing_check(
    f: RadialProfile,
    g: RadialProfile,
    w: RadialProfile,
    space: HeisSpace,
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Both sides of the adjointness identity between Hw and H*w.

    Returns (lhs, rhs) with
        lhs = omega_small * int f(r) (Hw g)(r) r^{Q-1} dr
        rhs = omega_small * int g(r) (H*w f)(r) r^{Q-1} dr,
    each by its own nested quadrature, the two as one outer population
    (DivergentIntegralError on divergent metadata); callers assert closeness.
    """
    hw_g = apply_operator(OperatorKind("weighted_hardy", w), g, space, spec)
    cw_f = apply_operator(OperatorKind("weighted_cesaro", w), f, space, spec)
    lhs, rhs = _radial_integrals([product_profile(f, hw_g), product_profile(g, cw_f)], space, spec)[0]
    return space.omega_small * float(lhs), space.omega_small * float(rhs)
