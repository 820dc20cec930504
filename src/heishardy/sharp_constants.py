"""Sharp operator-norm constants and their numerical verification.

The exact constants, with Delta = 1/pbar_2 - 1/pbar_1 and the angular mass
omega_small = Q * omega_big, are one formula, omega_small^Delta times a
moment of the kind's weight (w = Q t^{Q-1} for hardy and dual_hardy):

    hardy            p/(p-1) * omega_small^Delta
    dual_hardy       p       * omega_small^Delta
    weighted_hardy   omega_small^Delta * int_0^1 t^{-Q/p} w(t) dt
    weighted_cesaro  omega_small^Delta * int_0^1 t^{-Q(1-1/p)} w(t) dt

Verification runs two independent probes against each constant.  From
below, the power-tail family

    f_eps(r) = r^{-(Q/p + eps)} for r > 1, zero otherwise

has operator-norm ratio approaching the constant as eps -> 0; ratios are
computed end to end by certified quadrature and packaged with the constant
into RatioReports.  From above, randomized admissible profiles (mixtures
of truncated powers and exponential bumps, metadata-admissible by
construction) must never beat the constant beyond tolerance.  `verify`
answers the package's question for one query: it owns the verdict on both
probes, and a beaten constant or a failed quadrature fails only its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import HeisSpace, _stream
from .mixed_norm import MixedExponents, _radial_norms
from .operators import OperatorKind, apply_operator
from .quadrature import (
    DivergentIntegralError,
    NonFiniteIntegrandError,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotReachedError,
    certified_log_integral,
    exp_profile,
    mixture_profile,
    power_profile,
)

__all__ = [
    "UnboundedOperatorError",
    "SharpConstantQuery",
    "RatioReport",
    "theoretical_constant",
    "extremal_profile",
    "extremal_ratio",
    "check_eps_grid",
    "convergence_table",
    "upper_bound_probe",
    "verify",
    "DEFAULT_EPS_GRID",
]

DEFAULT_EPS_GRID = (0.1, 0.03, 0.01, 0.003, 0.001)
# the fields of one convergence-table entry in a verify row
_TABLE = ("epsilon", "ratio", "constant", "relative_gap", "error_estimate")


class UnboundedOperatorError(ArithmeticError):
    """The defining weight moment diverges: no finite operator norm."""


@dataclass(frozen=True)
class SharpConstantQuery:
    kind: OperatorKind
    exps: MixedExponents
    space: HeisSpace


@dataclass(frozen=True)
class RatioReport:
    """A computed norm ratio against the theoretical constant.

    relative_gap = 1 - ratio / constant; error_estimate is a relative
    bound on the computed ratio, combining the quadrature certificates of
    numerator and denominator with the nested-evaluation tolerance.
    """

    epsilon: float
    ratio: float
    constant: float
    relative_gap: float
    error_estimate: float
    seeds_and_tolerances: dict = field(default_factory=dict)

    @property
    def sandwich_ok(self) -> bool:
        """ratio <= constant * (1 + 1e-6 + error_estimate); False for a NaN ratio."""
        return self.ratio <= self.constant * (1.0 + 1e-6 + self.error_estimate)


def theoretical_constant(q: SharpConstantQuery, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """The sharp constant omega_small^Delta * int_0^1 t^e w(t) dt, one formula for all kinds.

    e = -Q/p on the Hardy side and -Q + Q/p on the Cesaro side, exact in Q
    and p.  A built weight's moment is the integral of its one row c t^beta,
    c / (e + beta + 1) in exact rational arithmetic rounded once (p/(p-1) for
    hardy, p for dual_hardy); a lazy weight's is a certified quadrature at
    float(e).  Raises UnboundedOperatorError when the moment diverges at t -> 0.
    """
    exps, space, w = q.exps, q.space, q.kind.weight_on(q.space)
    q_over_p = Fraction(space.q) / Fraction(exps.p)
    exponent = q_over_p - space.q if q.kind.dual else -q_over_p
    built = w.terms is not None  # its one row (c, beta, 0, -inf, 0)
    rate = exponent + Fraction(w.terms[0][1]) + 1 if built else float(exponent) + w.origin_exponent + 1
    if rate <= 0:
        raise UnboundedOperatorError(
            f"unbounded operator for this weight: weight moment diverges: t -> 0 rate {float(rate)} <= 0")
    moment = (float(Fraction(w.terms[0][0]) / rate) if built else certified_log_integral(
        lambda v: w.logeval(v, float(exponent) + 1.0), -math.inf, 0.0, rate, 1.0, spec).value)
    return space.omega_small ** exps.delta * moment


def extremal_profile(eps: float, p: float, space: HeisSpace) -> RadialProfile:
    """f_eps = r^{-(Q/p + eps)} beyond radius 1, zero inside, for eps in (0, 1) not lost in Q/p."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if space.q / p + eps == space.q / p:
        raise DivergentIntegralError(
            f"epsilon {eps!r} vanishes beside Q/p = {space.q / p!r}: f_eps has no finite norm")
    return power_profile(-(space.q / p + eps), support=(1.0, math.inf))


def _ratio_report(
    q: SharpConstantQuery,
    f: RadialProfile,
    constant: float,
    spec: QuadratureSpec,
    epsilon: float,
    **seeds,
) -> RatioReport:
    """||T f||_{p, pbar2} / ||f||_{p, pbar1} by quadrature, against `constant`.

    A norm that comes out 0.0 raises ToleranceNotReachedError (f is non-zero).
    """
    # numerator and denominator share one outer population; the numerator's error comes first
    num, den = _radial_norms([apply_operator(q.kind, f, q.space, spec), f], q.exps.p,
                             [q.exps.p_bar_2, q.exps.p_bar_1], q.space, spec)
    ratio = num.value / den.value
    return RatioReport(
        epsilon=epsilon,
        ratio=ratio,
        constant=constant,
        relative_gap=1.0 - ratio / constant,
        error_estimate=num.error / num.value + den.error / den.value,
        seeds_and_tolerances={"rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol, **seeds},
    )


def extremal_ratio(
    q: SharpConstantQuery, eps: float, spec: QuadratureSpec = QuadratureSpec()
) -> RatioReport:
    """Norm ratio ||T f_eps||_{p, pbar2} / ||f_eps||_{p, pbar1} by quadrature."""
    constant = theoretical_constant(q, spec)
    f = extremal_profile(eps, q.exps.p, q.space)
    return _ratio_report(q, f, constant, spec, eps, inner_rel_tol=spec.inner().rel_tol)


def check_eps_grid(eps_list: Sequence[float]) -> list[float]:
    """The grid as a list if non-empty, inside (0, 1) and strictly decreasing; else ValueError."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("epsilon grid is empty")
    if any(not (0.0 < e < 1.0) for e in eps_list):
        raise ValueError("epsilon grid must lie inside (0, 1)")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    return eps_list


def convergence_table(
    q: SharpConstantQuery,
    eps_list: Sequence[float] = DEFAULT_EPS_GRID,
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[RatioReport]:
    """One RatioReport per epsilon, for a strictly decreasing grid in (0, 1)."""
    return [extremal_ratio(q, eps, spec) for eps in check_eps_grid(eps_list)]


def _random_admissible_profile(rng: np.random.Generator, q: SharpConstantQuery) -> RadialProfile:
    """A random mixture with finite mixed norm and finite operator output.

    Tail exponents are drawn below -Q/p and origin exponents above -Q/p, so
    the norm integrals converge by construction; weighted kinds narrow the
    origin draw (Hardy side) or the tail draw (Cesaro side) further so the
    weight moments stay finite.
    """
    p, Q = q.exps.p, float(q.space.q)
    beta0 = q.kind.weight_on(q.space).origin_exponent
    origin_floor = -Q / p + 0.1
    tail_ceiling = -Q / p - 0.1
    if q.kind.dual:
        tail_ceiling = min(tail_ceiling, beta0 + 1.0 - Q - 0.1)
    else:
        origin_floor = max(origin_floor, -beta0 - 0.9)

    parts: list[RadialProfile] = []
    cut = float(rng.uniform(0.3, 3.0))
    # head piece on (0, cut]
    a0 = float(rng.uniform(origin_floor, 2.0))
    parts.append(power_profile(a0, coeff=float(rng.uniform(0.2, 1.0)), support=(0.0, cut)))
    # tail piece on (cut, inf)
    at = float(rng.uniform(-Q / p - 2.0, tail_ceiling))
    parts.append(power_profile(at, coeff=float(rng.uniform(0.2, 1.0)), support=(cut, math.inf)))
    if rng.uniform() < 0.5:
        parts.append(exp_profile(float(rng.uniform(0.5, 3.0)),
                                 exponent=float(rng.uniform(0.0, 1.5)),
                                 coeff=float(rng.uniform(0.2, 1.0))))
    return mixture_profile(parts)


def upper_bound_probe(
    q: SharpConstantQuery,
    trials: int,
    seed: int,
    spec: QuadratureSpec = QuadratureSpec(),
) -> RatioReport:
    """The worst norm ratio over random admissible profiles (epsilon NaN).

    Returns the first trial report that fails `sandwich_ok` (a ratio beyond
    constant * (1 + 1e-6) plus the computed quadrature allowance, which the
    boundedness theorems rule out, or a NaN ratio), else the report of the
    largest ratio.  The caller judges the returned report by `sandwich_ok`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    constant = theoretical_constant(q, spec)
    worst: RatioReport | None = None
    for trial in range(trials):
        f = _random_admissible_profile(_stream(seed, 0x9E3779B9 + trial), q)
        report = _ratio_report(q, f, constant, spec, math.nan, seed=seed, trial=trial)
        if not report.sandwich_ok:
            return report
        if worst is None or report.ratio > worst.ratio:
            worst = report
    return worst


def verify(
    q: SharpConstantQuery, eps_grid: Sequence[float], trials: int, seed: int, spec: QuadratureSpec
) -> tuple[dict, dict | None]:
    """The verdict on one query: its verify-sharp row and its offending fields, or None.

    The row holds the convergence table over eps_grid and the probe of
    `trials` random profiles.  It passes when every table ratio and the
    probe are sandwich_ok and the final gap is at most 0.05.  A failing
    row's offending fields give that gap, plus an `error` naming the trial
    and seed of a probe that beat the constant.  An unbounded operator is
    the passing row {"verdict": "unbounded"}.  A failed quadrature (tolerance,
    non-finite integrand or divergence) is the row {"verdict": "failed",
    "reason": msg}, and its offending fields are {"error": msg}.
    """
    try:
        table = convergence_table(q, eps_grid, spec)
        probe = upper_bound_probe(q, trials, seed, spec)
    except UnboundedOperatorError:
        return {"verdict": "unbounded"}, None
    except (ToleranceNotReachedError, NonFiniteIntegrandError, DivergentIntegralError) as exc:
        return {"verdict": "failed", "reason": str(exc)}, {"error": str(exc)}
    final = table[-1]
    sandwich_ok = all(r.sandwich_ok for r in (*table, probe))
    converged = final.relative_gap <= 0.05
    row = {"verdict": "bounded", "constant": final.constant,
           "table": [{k: getattr(r, k) for k in _TABLE} for r in table],
           "probe_worst_ratio": probe.ratio, "probe_trials": trials,
           "sandwich_ok": sandwich_ok, "converged": converged}
    if sandwich_ok and converged:
        return row, None
    offending = {"relative_gap": final.relative_gap}
    if not probe.sandwich_ok:
        offending["error"] = (
            f"probe trial {probe.seeds_and_tolerances['trial']} (seed {seed}) gave ratio "
            f"{probe.ratio!r} above constant {probe.constant!r} beyond tolerance")
    return row, offending
