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
are the weighted kinds at w(t) = Q t^{Q-1}.  One routine implements both
sides.  Outputs are lazily evaluated profiles: each radius evaluated is one
certified quadrature in the log domain, so the power scaling demanded by
downstream norm integrals never overflows.  Output decay metadata is
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
from fractions import Fraction
from typing import Callable

import numpy as np

from .geometry import HeisSpace
from .quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    RadialProfile,
    _integrals,
    _radial_integrals,
    certified_log_integral,
    product_profile,
    zero_profile,
)

__all__ = [
    "WeightFunction",
    "power_weight",
    "weight_from_callable",
    "OperatorKind",
    "HARDY",
    "DUAL_HARDY",
    "apply_operator",
    "duality_pairing_check",
]


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight on [0, 1] with its vanishing order at t = 0.

    Power-law weights w(t) = c t^beta have exact rational moments;
    anything else integrates through the certified engine.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    family: str  # "power" or "general"
    c: float
    beta: float
    zero_exponent: float

    def eval_log(self, v) -> np.ndarray:
        """w(e^v) for v <= 0."""
        v = np.asarray(v, dtype=float)
        with np.errstate(under="ignore"):
            t = np.exp(np.maximum(v, -745.0))
        return np.asarray(self.eval(t), dtype=float)

    def moment(self, exponent: float | Fraction, spec: QuadratureSpec = QuadratureSpec()) -> float:
        """int_0^1 t^exponent w(t) dt, or DivergentIntegralError if exponent + beta0 + 1 <= 0.

        A power weight's moment c / (exponent + beta + 1) is exact rational
        arithmetic on the exponent as given (float or Fraction), rounded
        once; a general weight's is a certified quadrature at float(exponent).
        """
        power = self.family == "power"
        exponent = Fraction(exponent) if power else float(exponent)
        rate = exponent + (Fraction(self.beta) if power else self.zero_exponent) + 1
        if rate <= 0:
            raise DivergentIntegralError(f"weight moment diverges: t -> 0 rate {float(rate)} <= 0")
        if power:
            return float(Fraction(self.c) / rate)
        res = certified_log_integral(
            lambda v: self.eval_log(v) * np.exp((exponent + 1.0) * v),
            -math.inf, 0.0, rate_lo=rate, rate_hi=1.0, spec=spec,
        )
        return res.value


def power_weight(c: float = 1.0, beta: float = 0.0) -> WeightFunction:
    if not (0 < c < math.inf and math.isfinite(beta)):
        raise ValueError(f"power-law weight needs finite c > 0 and beta, got c={c}, beta={beta}")

    def ev(t):
        return c * np.asarray(t, dtype=float) ** beta

    return WeightFunction(eval=ev, family="power", c=c, beta=beta, zero_exponent=beta)


def weight_from_callable(fn: Callable[[np.ndarray], np.ndarray], zero_exponent: float) -> WeightFunction:
    """A general weight t -> fn(t) on [0, 1] vanishing like t^zero_exponent at 0.

    fn must be elementwise in its array argument: one quadrature step
    evaluates it on the nodes of all its panels at once.
    """
    return WeightFunction(eval=fn, family="general", c=math.nan, beta=math.nan,
                          zero_exponent=zero_exponent)


@dataclass(frozen=True)
class OperatorKind:
    """Which operator to apply; weighted variants carry their weight."""

    tag: str  # "hardy" | "dual_hardy" | "weighted_hardy" | "weighted_cesaro"
    weight: WeightFunction | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("hardy", "dual_hardy", "weighted_hardy", "weighted_cesaro"):
            raise ValueError(f"unknown operator tag {self.tag!r}")
        if self.tag in ("weighted_hardy", "weighted_cesaro") and self.weight is None:
            raise ValueError(f"{self.tag} requires a weight function")
        if self.tag in ("hardy", "dual_hardy") and self.weight is not None:
            raise ValueError(f"{self.tag} has the fixed weight Q t^(Q-1) and takes none")

    @property
    def dual(self) -> bool:
        """True for the Cesaro-side kinds (dual_hardy, weighted_cesaro)."""
        return self.tag in ("dual_hardy", "weighted_cesaro")

    def weight_on(self, space: HeisSpace) -> WeightFunction:
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

    It convolves f against the kind's weight w in v = log(s / r).  For
    w(t) = c t^beta the Hardy side (kind.dual False) is
    Hw f(r) = c int_{v<=0} f(r e^v) e^{(beta+1) v} dv and the Cesaro side is
    H*w f(r) = c int_{v>=0} f(r e^v) e^{(Q-1-beta) v} dv; a general weight
    puts w(e^{+-v}) in place of c e^{+-beta v}.  An evaluation at the radii
    r = e^u runs one certified quadrature per radius, all of them in one
    call of the population engine, each over the part of the
    half-line meeting f's support, with the caller's measure power kappa
    folded into the kernel and a power weight's c applied outside.

    Soundness of the output metadata (a, b: f's origin and tail exponents;
    beta0: the weight's order at t = 0):
    * Hardy side: Hw f(r) <= c r^a int_0^1 t^{a+beta0} dt near 0, finite by
      the up-front check a + beta0 + 1 > 0, so the origin order is a.  At
      infinity f's mass below a fixed radius, swept against w, decays like
      r^{-(beta0+1)} and the rest like f's tail (any order for a bounded
      support).  The output lives on (sup_lo, inf).
    * Cesaro side: H*w f(r) <= c r^b int_0^1 t^{-b-Q} w(t) dt at infinity,
      finite by the screening check beta0 + 1 - Q - b > 0, so f's tail
      carries over; an exponential tail (b = -inf) passes the check and
      gives each evaluation rate_hi = inf, a scanned cutoff.  Near 0 the
      integrand grows like e^{(a+Q-1-beta0) v} up to v = log(1/r): the origin order is
      min(a, beta0 + 1 - Q), with a = +inf if f vanishes near 0, lowered by
      1e-6 at a tie for the logarithm.  The output lives on (0, sup_hi),
      kinked at sup_lo, which is therefore a breakpoint.

    Both checks run on metadata before any evaluation and raise
    DivergentIntegralError: for hardy, f must be integrable against s^{Q-1}
    near 0; for dual_hardy, f(s)/s must be integrable at infinity.
    """
    w, dual = kind.weight_on(space), kind.dual
    spec = spec.inner()
    q = float(space.q)
    if f.is_zero:
        return zero_profile()
    sup_lo, sup_hi = f.support
    log_lo, log_hi = f.log_support
    # a power weight's exponent is folded into the one exp, which keeps the
    # factors in float range even on slowly converging windows
    power = w.family == "power"
    if dual:
        rate_lo, rate_hi = 1.0, w.zero_exponent + 1.0 - q - f.tail_exponent
        if math.isinf(sup_hi) and rate_hi <= 0:
            raise DivergentIntegralError(
                f"Cesaro-side operator diverges at t -> 0 (screening rate {rate_hi} <= 0)"
            )
        kernel = ((lambda v, kappa: np.exp((q - 1.0 - kappa - w.beta) * v)) if power else
                  (lambda v, kappa: w.eval_log(-v) * np.exp((q - 1.0 - kappa) * v)))
        own = f.origin_exponent if sup_lo == 0.0 else math.inf
        bound = w.zero_exponent + 1.0 - q
        meta = dict(
            origin_exponent=min(own, bound) - (1e-6 if own == bound else 0.0),
            tail_exponent=f.tail_exponent, support=(0.0, sup_hi),
            breakpoints=f.breakpoints + ((sup_lo,) if sup_lo > 0.0 else ()),
        )
    else:
        rate_lo, rate_hi = f.origin_exponent + (w.zero_exponent + 1.0), 1.0
        if sup_lo == 0.0 and rate_lo <= 0:
            raise DivergentIntegralError(
                f"Hardy-side operator diverges at the origin "
                f"(origin {f.origin_exponent} + weight order {w.zero_exponent} <= -1)"
            )
        kernel = ((lambda v, kappa: np.exp((w.beta + 1.0 - kappa) * v)) if power else
                  (lambda v, kappa: w.eval_log(v) * np.exp((1.0 - kappa) * v)))
        tail = -math.inf if math.isfinite(sup_hi) else f.tail_exponent
        meta = dict(
            origin_exponent=f.origin_exponent, tail_exponent=max(tail, -(w.zero_exponent + 1.0)),
            support=(sup_lo, math.inf), breakpoints=f.breakpoints,
        )
    scale = w.c if power else 1.0
    f_breaks = np.array(f.log_breakpoints())

    def logeval(u, kappa):
        # r^kappa (T f)(r) at r = e^u: one inner integral per radius, all in one engine call
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        if dual:
            v_lo, v_hi = np.maximum(0.0, log_lo - flat), log_hi - flat
        else:
            v_lo, v_hi = log_lo - flat, np.minimum(0.0, log_hi - flat)
        values, _ = _integrals(lambda v, m: f.logeval(flat[m] + v, kappa) * kernel(v, kappa),
                               v_lo, v_hi, rate_lo, rate_hi, spec, f_breaks[None, :] - flat[:, None])
        return (scale * values).reshape(u.shape)

    return RadialProfile(logeval, **meta)


def duality_pairing_check(
    f: RadialProfile,
    g: RadialProfile,
    w: WeightFunction,
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
