"""Mixed radial-angular norms and the sphere-averaging (radialization) map.

For a function split as f(x) = g(|x|_h) h(theta(x)) the mixed norm with
radial exponent p and angular exponent pbar factorizes:

    ||f|| = A^{1/pbar} ( int_0^inf |g(r)|^p r^{Q-1} dr )^{1/p},
    A = int_{unit gauge sphere} |h|^{pbar} dtheta.

For radial f (h constant 1) this collapses to the closed form with the
prefactor omega_small^{1/pbar}, computed purely by certified quadrature.
The angular factor of a genuinely separable function is estimated by
seeded Monte Carlo over the gauge sphere (exact_ball_sample, any n) with a
reported standard error; every acceptance check against such estimates
uses three-sigma bands.

Radialization replaces f by its angular mean at each radius.  It leaves
Hardy-operator output unchanged and never increases the mixed norm, and
both facts are exposed here as numerical checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import HeisSpace, dilate_array, koranyi_norm_array, sphere_project_array
from .quadrature import (
    QuadratureSpec,
    QuadResult,
    RadialProfile,
    ToleranceNotReachedError,
    abs_power_profile,
    _radial_integrals,
    exact_ball_sample,
    scaled_profile,
)
from .operators import HARDY, apply_operator

__all__ = [
    "MixedExponents",
    "SeparableFunction",
    "NormEstimate",
    "radial_norm_with_error",
    "mixed_norm_separable",
    "radialize",
    "RadializationCheck",
    "hardy_radialization_identity_check",
]


@dataclass(frozen=True)
class MixedExponents:
    """The exponent triple (p, pbar_1, pbar_2); delta drives every constant."""

    p: float
    p_bar_1: float
    p_bar_2: float

    def __post_init__(self) -> None:
        for v in (self.p, self.p_bar_1, self.p_bar_2):
            if not (1.0 < v < math.inf):
                raise ValueError(f"exponents must lie in (1, inf), got {v}")

    @property
    def delta(self) -> float:
        return 1.0 / self.p_bar_2 - 1.0 / self.p_bar_1


@dataclass
class SeparableFunction:
    """f(x) = radial(|x|_h) * angular(theta(x)).

    `angular` maps an array of sphere points with shape (N, 2n+1) to N
    values; None means the constant 1 (a purely radial function).
    """

    radial: RadialProfile
    angular: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def is_radial(self) -> bool:
        return self.angular is None


@dataclass(frozen=True)
class NormEstimate:
    value: float
    stderr: float


def radial_norm_with_error(
    f: RadialProfile,
    p: float,
    p_bar: float,
    space: HeisSpace,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Mixed norm omega_small^{1/pbar} (int |f|^p r^{Q-1} dr)^{1/p} of a radial f.

    Raises DivergentIntegralError when f's decay metadata rules the norm out,
    and ToleranceNotReachedError when a non-zero f's norm comes out 0.0.

    The returned error combines the outer quadrature certificate with an
    allowance for the tolerance of any quadratures nested inside f's
    evaluations (operator outputs), both mapped through the 1/p power.
    """
    return _radial_norms([f], p, [p_bar], space, spec)[0]


def _radial_norms(fs, p: float, p_bars, space: HeisSpace, spec: QuadratureSpec) -> list[QuadResult]:
    """radial_norm_with_error of each fs[m] at p_bars[m], in one population: the lowest failure is raised."""
    values, errors = _radial_integrals([abs_power_profile(f, p) for f in fs], space, spec)
    norms = []
    for f, p_bar, value, error in zip(fs, p_bars, values.tolist(), errors.tolist()):
        if value <= 0.0:
            if not f.is_zero:
                raise ToleranceNotReachedError(f"the norm of a non-zero function came out 0.0 "
                                               f"(error {error!r})", estimate=0.0, error=error)
            norms.append(QuadResult(0.0, error))
            continue
        norm = space.omega_small ** (1.0 / p_bar) * value ** (1.0 / p)
        rel = error / value + 2.0 * spec.inner().rel_tol
        norms.append(QuadResult(norm, norm * rel / p))
    return norms


def _mc_mean(vals) -> tuple[float, float]:
    """(mean, standard error) of Monte Carlo samples; ValueError if any is non-finite."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluated non-finite on Monte Carlo samples")
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(np.mean(vals)), se


def _sphere_mean(
    g: Callable[[np.ndarray], np.ndarray], space: HeisSpace, mc_count: int, seed: int
) -> tuple[float, float]:
    """(mean, standard error) of g over uniform gauge-sphere samples."""
    return _mc_mean(g(sphere_project_array(exact_ball_sample(space, mc_count, seed))))


def mixed_norm_separable(
    f: SeparableFunction,
    p: float,
    p_bar: float,
    space: HeisSpace,
    spec: QuadratureSpec = QuadratureSpec(),
    mc_count: int = 20_000,
    seed: int = 0,
) -> NormEstimate:
    """Mixed norm of a separable function with Monte Carlo standard error.

    Separability factorizes the norm as M^{1/pbar} times the radial part's
    norm from radial_norm_with_error, whose errors it raises; M is the mean
    of |h|^pbar over gauge-sphere points.  Radial f is the radial norm with
    zero standard error.
    """
    radial = radial_norm_with_error(f.radial, p, p_bar, space, spec).value
    if f.is_radial:
        return NormEstimate(radial, 0.0)
    mean, se = _sphere_mean(lambda x: np.abs(np.asarray(f.angular(x), dtype=float)) ** p_bar,
                            space, mc_count, seed)
    value = mean ** (1.0 / p_bar) * radial
    # a zero mean has only zero samples, so no standard error
    return NormEstimate(value, value * se / (p_bar * mean) if mean > 0 else 0.0)


def radialize(
    f: SeparableFunction,
    space: HeisSpace,
    mc_count: int = 20_000,
    seed: int = 0,
) -> RadialProfile:
    """Angular mean of f at each radius, as a radial profile.

    For separable f this is radial * (mean of h over the sphere measure);
    the Monte Carlo mean of h over uniform sphere samples estimates
    exactly that normalized mean.
    """
    if f.is_radial:
        return f.radial
    return scaled_profile(f.radial, _sphere_mean(f.angular, space, mc_count, seed)[0])


@dataclass(frozen=True)
class RadializationCheck:
    """Both routes to the Hardy value at one radius, plus the error bar of their difference."""

    quadrature_side: float
    mc_side: float
    mc_stderr: float

    def agrees(self, n_sigma: float = 3.0) -> bool:
        return abs(self.quadrature_side - self.mc_side) <= n_sigma * self.mc_stderr + 1e-9


def hardy_radialization_identity_check(
    f: SeparableFunction,
    space: HeisSpace,
    spec: QuadratureSpec = QuadratureSpec(),
    mc_count: int = 50_000,
    seed: int = 0,
    radius: float = 1.0,
) -> RadializationCheck:
    """Hardy output is blind to the angular part: check both routes at one radius.

    The quadrature side is H(radialize f)(radius) = H(f.radial)(radius)
    times the sphere mean of h; the Monte Carlo side averages f over a
    uniform sample of the gauge ball of that radius (the ball average IS
    the Hardy value there).  mc_stderr combines both sides' errors.
    """
    h0 = float(apply_operator(HARDY, f.radial, space, spec).eval(radius))  # 0.0 for a zero radial part
    mean_h, se_h = (1.0, 0.0) if f.is_radial else _sphere_mean(f.angular, space, mc_count, seed + 1)

    pts = exact_ball_sample(space, mc_count, seed)
    radii = koranyi_norm_array(pts)
    vals = np.asarray(f.radial.eval(radius * radii), dtype=float)
    if f.angular is not None:
        # dilation preserves direction, so angles come from the unit-ball
        # points, projected as sphere_project_array does with the gauge above
        vals = vals * np.asarray(f.angular(dilate_array(1.0 / radii, pts)), dtype=float)
    mc, se = _mc_mean(vals)
    return RadializationCheck(quadrature_side=h0 * mean_h, mc_side=mc,
                              mc_stderr=math.hypot(se, abs(h0) * se_h))
