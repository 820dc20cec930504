"""Heisenberg group algebra, anisotropic dilations, and the Koranyi gauge.

A point of H^n is an array of shape (..., 2n+1): one point is (2n+1,), a
batch has leading axes, and every kernel reads n from the last axis and
rejects one that is even or shorter than 3.  The group law adds the first
2n coordinates componentwise and twists the last one by the standard
symplectic form; the dilation delta_r scales the first 2n coordinates by r
and the last by r^2.  The homogeneous dimension is Q = 2n + 2, and the
gauge ball B(0, r) has homogeneous measure omega_big * r^Q.  Kernels add
coordinate columns x[..., j] left to right, so their results do not depend
on the input's memory layout; coordinate-major batches run fastest.

A normalization note that matters for Monte Carlo work: the volume constant
`omega_big` used throughout the operator and norm calculus is exactly twice
the coordinate-space Lebesgue volume of the unit gauge ball
{x : |x|_h <= 1}.  Both closed forms are exposed on HeisSpace
(`omega_big` and `unit_ball_lebesgue`); the volume check of
run_geometry_checks estimates the latter at any n.

Every seeded draw of the package starts from _stream(seed, tag), the
counter-based random stream keyed (seed mod 2^64, tag); _gaussian_rows
turns one such stream into blocks of fixed-width rows of normals and a
uniform, so row i depends only on (seed, tag, i).  The Monte Carlo kernels
run in blocks of _BLOCK rows: flat memory, no bit depending on the blocking.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "HeisSpace",
    "heis_space",
    "heis_distance",
    "group_mul_array",
    "koranyi_norm_array",
    "dilate_array",
    "sphere_project_array",
    "run_geometry_checks",
    "GeometryReport",
]


def _gamma_exact(x: float) -> float:
    """Gamma at a positive integer or half-integer, via exact factorials.

    Integer k >= 1: (k-1)!.  Half-integer k + 1/2: (2k)! sqrt(pi) / (4^k k!).
    """
    m = round(2.0 * x)
    if m % 2 == 0:
        return float(math.factorial(m // 2 - 1))
    k = (m - 1) // 2
    return math.factorial(2 * k) * math.sqrt(math.pi) / (4.0**k * math.factorial(k))


@dataclass(frozen=True)
class HeisSpace:
    """Ambient structure of H^n with its measure constants precomputed.

    omega_big is the homogeneous volume constant of the unit gauge ball
    (the Gamma-function closed form); omega_small = Q * omega_big is the
    total mass of the angular measure on the unit gauge sphere.
    unit_ball_lebesgue is the plain Lebesgue volume of {|x|_h <= 1} in
    R^{2n+1} coordinates and equals omega_big / 2 exactly.
    """

    n: int
    q: int
    omega_big: float
    omega_small: float
    unit_ball_lebesgue: float

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


def heis_space(n: int) -> HeisSpace:
    """Build the H^n ambient structure for integer n >= 1.

    Raises ValueError unless the volume constants come out as finite normal
    floats; from n = 130 on the Gamma-function product overflows.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    q = 2 * n + 2
    try:
        omega_big = (
            2.0
            * math.pi ** (n + 0.5)
            * _gamma_exact(n / 2.0)
            / ((n + 1) * _gamma_exact(float(n)) * _gamma_exact((n + 1) / 2.0))
        )
    except OverflowError:
        omega_big = math.nan
    if not all(math.isfinite(v) and v >= sys.float_info.min for v in (omega_big, q * omega_big)):
        raise ValueError(f"n = {n} is too large: the volume constants of H^n overflow float64")
    return HeisSpace(
        n=n,
        q=q,
        omega_big=omega_big,
        omega_small=q * omega_big,
        unit_ball_lebesgue=omega_big / 2.0,
    )


# --- vectorized kernels -----------------------------------------------------
# The group inverse is negation: the twist term of x o (-x) cancels.


def _half_dim(*points: np.ndarray) -> int:
    """n of points of shape (..., 2n+1); ValueError unless all share one odd last axis >= 3."""
    dims = {x.shape[-1] if x.ndim else 0 for x in points}
    d = dims.pop()
    if dims or d < 3 or d % 2 == 0:
        raise ValueError(f"points need shape (..., 2n+1) with n >= 1, got {[x.shape for x in points]}")
    return (d - 1) // 2


def group_mul_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group product x o y; the last coordinate gains 2 sum_j (y_j x_{n+j} - x_j y_{n+j})."""
    n = _half_dim(x, y)
    out = np.add(x, y, dtype=float)
    # reduce starts from the first term: starting from 0 would turn a -0.0 into 0.0
    out[..., 2 * n] += 2.0 * reduce(
        operator.iadd, (y[..., j] * x[..., n + j] - x[..., j] * y[..., n + j] for j in range(n)))
    return out


def koranyi_norm_array(x: np.ndarray) -> np.ndarray:
    """Gauge |x|_h = [(sum of first 2n squares)^2 + last^2]^{1/4}."""
    n = _half_dim(x)
    horiz = reduce(operator.iadd, (x[..., j] ** 2 for j in range(2 * n)))
    # np.power: a float64 scalar's ** rounds unlike the array loop that a batch row takes
    return np.power(horiz**2 + x[..., 2 * n] ** 2, 0.25)


def dilate_array(r, x: np.ndarray) -> np.ndarray:
    """Anisotropic dilation delta_r, with r a scalar or one value per point."""
    n = _half_dim(x)
    r = np.asarray(r, dtype=float)
    out = np.multiply(r[..., None], x, dtype=float)
    out[..., 2 * n] = r**2 * x[..., 2 * n]
    return out


def sphere_project_array(x: np.ndarray) -> np.ndarray:
    """Project nonzero points onto the unit gauge sphere via delta_{1/|x|_h}."""
    radii = koranyi_norm_array(x)
    return dilate_array(1.0 / radii, x)


def heis_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Left-invariant gauge distance d(p, q) = |q^{-1} o p|_h."""
    return koranyi_norm_array(group_mul_array(-q, p))


# --- seeded streams -----------------------------------------------------------

_BLOCK = 2048  # rows per Monte Carlo block: 16 KB a column, 208 KB a block of points at n = 6


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The Philox stream keyed (seed mod 2^64, tag); tags keep the package's draws apart."""
    return np.random.Generator(np.random.Philox(
        key=np.array([operator.index(seed) & 0xFFFFFFFFFFFFFFFF, tag], dtype=np.uint64)))


def _stream_at(seed: int, tag: int, k: int) -> np.random.Generator:
    """_stream(seed, tag) after k doubles: Philox makes 4 per counter step."""
    rng = _stream(seed, tag)
    rng.bit_generator.advance(k // 4)
    rng.random(k % 4)
    return rng


def _gaussian_rows(count: int, k: int, seed: int, tag: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of at most _BLOCK rows of k standard normals and one uniform on [-1, 1) each.

    The blocks read on through one stream (seed, tag), and Box-Muller keeps
    the uniforms per row fixed (Generator.standard_normal and Generator.beta
    consume a variable number), so row i depends only on (seed, tag, i).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    h, rng = (k + 1) // 2, _stream(seed, tag)
    for lo in range(0, count, _BLOCK):
        w = rng.random((min(_BLOCK, count - lo), 2 * h + 1))
        rad, ang = np.sqrt(-2.0 * np.log1p(-w[:, :h])), 2.0 * math.pi * w[:, h:2 * h]
        yield np.hstack([rad * np.cos(ang), rad * np.sin(ang)])[:, :k], 2.0 * w[:, -1] - 1.0


# --- bulk property suite ----------------------------------------------------


@dataclass
class GeometryReport:
    """Statistics from the randomized geometry checks; all_pass gates exit status."""

    n: int
    triples: int
    max_associativity_error: float
    max_inverse_error: float
    max_gauge_homogeneity_relerr: float
    max_left_invariance_relerr: float
    triangle_violations: int
    triangle_worst_slack: float
    mc_volume_estimate: float
    mc_volume_expected: float
    mc_volume_stderrs: float

    @property
    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows())

    def rows(self) -> list[dict]:
        checks = (
            ("associativity", self.max_associativity_error, 1e-12),
            ("inverse_law", self.max_inverse_error, 1e-15),
            ("gauge_homogeneity", self.max_gauge_homogeneity_relerr, 1e-10),
            ("left_invariance", self.max_left_invariance_relerr, 1e-10),
            ("triangle_violations", self.triangle_violations, 0.0),
            ("mc_volume_stderrs", self.mc_volume_stderrs, 5.0),
        )
        return [{"check": check, "statistic": float(stat), "bound": bound, "pass": stat <= bound}
                for check, stat, bound in checks]


def run_geometry_checks(
    space: HeisSpace, *, triples: int, mc_count: int, seed: int
) -> GeometryReport:
    """Randomized verification of the group axioms and gauge metric laws.

    Draws coordinates uniformly from [-10, 10] (stressing both the
    sub-Riemannian directions and the center), held coordinate-major so the
    kernels run on contiguous columns, plus a volume cross-check of
    the unit gauge ball: the share of mc_count candidates uniform in the
    cylinder B^{2n} x [-1, 1] that fall in the ball, whose expectation
    (n/2) B(n/2, 3/2) is 0.79 at n = 1 and 0.46 at n = 6.  Blocks of _BLOCK
    rows fold into maxima and counts; triples and mc_count must be >= 1.
    """
    if triples < 1:
        raise ValueError("triples must be >= 1")
    n, d = space.n, space.dim
    # x, y, z and then r are consecutive whole draws of the "GEO" stream, each read on from its offset
    rngs = [_stream_at(seed, 0x47454F, k * triples * d) for k in range(4)]
    maxima, violations = [], 0
    for lo in range(0, triples, _BLOCK):
        m = min(_BLOCK, triples - lo)
        x, y, z = (np.asfortranarray(rng.uniform(-10.0, 10.0, size=(m, d))) for rng in rngs[:3])
        r = rngs[3].uniform(0.1, 10.0, size=m)
        assoc_err = np.max(np.abs(
            group_mul_array(group_mul_array(x, y), z) - group_mul_array(x, group_mul_array(y, z))))
        inv_err = np.max(np.abs(group_mul_array(x, -x)))
        norms = koranyi_norm_array(x)
        gauge_rel = np.max(np.abs(koranyi_norm_array(dilate_array(r, x)) - r * norms) / (r * norms))
        d_pq = heis_distance(x, y)
        d_translated = heis_distance(group_mul_array(z, x), group_mul_array(z, y))
        nonzero = d_pq > 1e-12
        left_rel = np.max(np.abs(d_translated[nonzero] - d_pq[nonzero]) / d_pq[nonzero], initial=0.0)
        slack = d_pq - (heis_distance(x, z) + heis_distance(z, y))
        violations += int(np.sum(slack > 1e-12))
        maxima.append((assoc_err, inv_err, gauge_rel, left_rel, np.max(slack)))
    assoc_err, inv_err, gauge_rel, left_rel, worst = map(float, np.max(maxima, axis=0))

    # |z|^2 of the first 2n coordinates of a uniform point of S^{2n+1}, uniform in B^{2n}
    hits = 0
    for g, t in _gaussian_rows(mc_count, 2 * n + 2, seed, 0x43594C):  # "CYL"
        horiz = np.sum(g[:, :-2] ** 2, axis=1) / np.sum(g**2, axis=1)
        hits += int(np.count_nonzero(horiz**2 + t**2 <= 1.0))
    vol_cyl = 2.0 * math.pi**n / math.factorial(n)
    est = hits / mc_count * vol_cyl
    expected = space.unit_ball_lebesgue
    p_acc = expected / vol_cyl
    se = vol_cyl * math.sqrt(p_acc * (1 - p_acc) / mc_count)
    stderrs = abs(est - expected) / se

    return GeometryReport(
        n=n,
        triples=triples,
        max_associativity_error=assoc_err,
        max_inverse_error=inv_err,
        max_gauge_homogeneity_relerr=gauge_rel,
        max_left_invariance_relerr=left_rel,
        triangle_violations=violations,
        triangle_worst_slack=worst,
        mc_volume_estimate=est,
        mc_volume_expected=expected,
        mc_volume_stderrs=stderrs,
    )
