"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Expected values tagged as derived were computed with the independent
oracles in _oracles.py (closed forms and QUADPACK), never with the
package's own quadrature engine.
"""

import math
import time

import numpy as np
import pytest

from heishardy.geometry import heis_space, run_geometry_checks
from heishardy.mixed_norm import (
    MixedExponents,
    SeparableFunction,
    hardy_radialization_identity_check,
    mixed_norm_separable,
    radial_norm_with_error,
    radialize,
)
from heishardy.operators import (
    DUAL_HARDY,
    HARDY,
    OperatorKind,
    duality_pairing_check,
    power_weight,
)
from heishardy.quadrature import (
    QuadratureSpec,
    constant_profile,
    exp_profile,
    mc_ball_sample,
    mixture_profile,
    power_profile,
    zero_profile,
)
from heishardy.sharp_constants import (
    SharpConstantQuery,
    UnboundedOperatorError,
    extremal_ratio,
    theoretical_constant,
    upper_bound_probe,
)

from _oracles import hardy_extremal_ratio, omega_closed_form

INF = math.inf


def report(criterion: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail}; {time.time() - t0:.1f}s)")


def test_criterion_1_classical_constant_reduction():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2):
        space = heis_space(n)
        for p in (1.5, 2.0, 3.0, 5.0):
            e = MixedExponents(p, 2.0, 2.0)
            c_h = theoretical_constant(SharpConstantQuery(HARDY, e, space))
            c_d = theoretical_constant(SharpConstantQuery(DUAL_HARDY, e, space))
            worst = max(worst, abs(c_h - p / (p - 1.0)), abs(c_d - p))
    ok = worst <= 1e-14
    report("1 (classical constants)", ok, f"worst abs dev {worst:.2e} <= 1e-14", t0)
    assert ok


def test_criterion_2_volume_constants():
    t0 = time.time()
    sp1, sp2 = heis_space(1), heis_space(2)
    dev1 = abs(sp1.omega_big - math.pi**2) / math.pi**2
    dev2 = abs(sp2.omega_big - 4 * math.pi**2 / 3) / (4 * math.pi**2 / 3)
    gamma_ok = dev1 <= 1e-12 and dev2 <= 1e-12
    for n in (1, 2):
        assert abs(heis_space(n).omega_big - omega_closed_form(n)) <= 1e-12

    # Monte Carlo: box rejection estimates the coordinate Lebesgue volume of
    # the unit gauge ball, which is exactly omega_big / 2
    mc_ok = True
    sigmas = []
    for n in (1, 2):
        space = heis_space(n)
        batch = mc_ball_sample(space, 1_000_000, 20_240)
        box = 2.0**space.dim
        truth = space.unit_ball_lebesgue
        p_acc = truth / box
        se = box * math.sqrt(p_acc * (1 - p_acc) / batch.attempts)
        n_sigma = abs(batch.acceptance_rate * box - truth) / se
        sigmas.append(n_sigma)
        mc_ok = mc_ok and n_sigma <= 3.0
    ok = gamma_ok and mc_ok
    report("2 (volume constants)", ok,
           f"gamma devs ({dev1:.1e}, {dev2:.1e}); MC sigmas "
           f"({sigmas[0]:.2f}, {sigmas[1]:.2f})", t0)
    assert ok


def test_criterion_3_hardy_sharpness_convergence():
    t0 = time.time()
    space = heis_space(1)
    spec = QuadratureSpec()
    q = SharpConstantQuery(HARDY, MixedExponents(2.0, 2.0, 2.0), space)
    # oracle-computed extremal ratios (closed form, cross-checked by
    # QUADPACK); the 0.01 and 0.001 entries match the quoted six-figure
    # values 1.99502 and 1.999500
    expected = {eps: hardy_extremal_ratio(4.0, 2.0, eps) for eps in (0.1, 0.01, 0.001)}
    assert abs(expected[0.01] - 1.99502) <= 5e-6
    assert abs(expected[0.001] - 1.999500) <= 5e-7

    ok = True
    gaps = {}
    for eps, want in expected.items():
        rep = extremal_ratio(q, eps, spec)
        gaps[eps] = rep.relative_gap
        ok = ok and abs(rep.ratio - want) <= 1e-6 * want
    ok = ok and gaps[0.001] <= 5e-4
    report("3 (Hardy sharpness convergence)", ok,
           f"ratios within 1e-6 of oracle; gap(1e-3) = {gaps[0.001]:.2e} <= 5e-4", t0)
    assert ok


def _criterion_4_grid():
    whardy = OperatorKind("weighted_hardy", power_weight(1.0, 2.0))
    wcesaro = OperatorKind("weighted_cesaro", power_weight(1.0, 4.0))
    for kind in (HARDY, DUAL_HARDY, whardy, wcesaro):
        for n in (1, 2):
            for p in (2.0, 5.0):
                for pb1, pb2 in ((2.0, 2.0), (4.0, 2.0), (2.0, 4.0)):
                    yield kind, n, p, pb1, pb2


def test_criterion_4_grid_sharpness():
    t0 = time.time()
    spec = QuadratureSpec()
    checked = 0
    skipped = 0
    ok = True
    worst_frac = 1.0
    for kind, n, p, pb1, pb2 in _criterion_4_grid():
        space = heis_space(n)
        q = SharpConstantQuery(kind, MixedExponents(p, pb1, pb2), space)
        try:
            theoretical_constant(q, spec)
        except UnboundedOperatorError:
            skipped += 1  # weight precondition not met for this configuration
            continue
        for eps in (0.01, 0.001):
            rep = extremal_ratio(q, eps, spec)
            ok = ok and rep.ratio <= rep.constant * (1.0 + 1e-6 + rep.error_estimate)
            if eps == 0.001:
                frac = rep.ratio / rep.constant
                worst_frac = min(worst_frac, frac)
                ok = ok and rep.ratio >= 0.95 * rep.constant
        checked += 1
    report("4 (grid sharpness)", ok,
           f"{checked} configs (+{skipped} unbounded-skipped); worst "
           f"ratio/constant at eps=1e-3: {worst_frac:.5f} >= 0.95", t0)
    assert checked == 45 and skipped == 3
    assert ok


def test_criterion_5_upper_bound_probes():
    t0 = time.time()
    # probes only need enough accuracy to make the sandwich meaningful;
    # the asserted bound includes the reported quadrature error
    probe_spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
    trials, seed = 100, 20_240
    pairs = ((2.0, 2.0), (4.0, 2.0), (2.0, 4.0))
    ok = True
    configs = 0
    worst_overall = 0.0
    for kind in (HARDY, DUAL_HARDY):
        for n in (1, 2):
            space = heis_space(n)
            for p in (2.0, 5.0):
                # the norm ratio of any profile scales by omega_small^delta
                # exactly across angular-exponent pairs, so one full probe
                # sweep at delta = 0 decides every pair; the scaling itself
                # is then spot-verified by direct evaluation
                base_q = SharpConstantQuery(kind, MixedExponents(p, 2.0, 2.0), space)
                worst = upper_bound_probe(base_q, trials=trials, seed=seed,
                                          spec=probe_spec)
                for pb1, pb2 in pairs:
                    q = SharpConstantQuery(kind, MixedExponents(p, pb1, pb2), space)
                    scale = space.omega_small ** q.exps.delta
                    scaled_ratio = scale * worst.ratio
                    scaled_constant = scale * worst.constant
                    ok = ok and scaled_ratio <= scaled_constant * (
                        1.0 + 1e-6 + worst.error_estimate
                    )
                    worst_overall = max(worst_overall, scaled_ratio / scaled_constant)
                    configs += 1
                    if (pb1, pb2) != (2.0, 2.0):
                        spot = upper_bound_probe(q, trials=2, seed=seed, spec=probe_spec)
                        base2 = upper_bound_probe(base_q, trials=2, seed=seed,
                                                  spec=probe_spec)
                        tol = 3.0 * (spot.error_estimate + base2.error_estimate)
                        ok = ok and abs(spot.ratio - scale * base2.ratio) <= tol * spot.ratio
    report("5 (upper-bound probes)", ok,
           f"{configs} configs x {trials} trials; worst ratio/constant "
           f"{worst_overall:.5f} <= 1 + 1e-6 + err", t0)
    assert configs == 24
    assert ok


DUALITY_SUITE = [
    (lambda: exp_profile(1.0), lambda: exp_profile(2.0), 0.0),
    (lambda: power_profile(-3.0, support=(1.0, INF)),
     lambda: constant_profile(1.0, support=(0.0, 1.0)), 1.0),
    (lambda: exp_profile(0.5), lambda: exp_profile(1.0), 2.0),
    (lambda: exp_profile(2.0, exponent=1.0), lambda: exp_profile(1.0), 0.5),
    (lambda: power_profile(-4.5, support=(1.0, INF)),
     lambda: power_profile(0.5, support=(0.0, 1.0)), 1.5),
    (lambda: constant_profile(1.0, support=(0.5, 2.0)), lambda: exp_profile(1.0), 0.0),
    (lambda: exp_profile(1.0), lambda: power_profile(-0.5, support=(0.0, 3.0)), 2.0),
    (lambda: mixture_profile([exp_profile(1.0),
                              power_profile(-5.0, support=(1.0, INF))]),
     lambda: exp_profile(2.0), 1.0),
    (lambda: power_profile(-5.0, support=(2.0, INF)),
     lambda: constant_profile(2.0, support=(0.0, 2.0)), 3.0),
    (lambda: exp_profile(3.0), lambda: exp_profile(0.5), 0.0),
]


def test_criterion_6_duality_identity():
    t0 = time.time()
    space = heis_space(1)
    spec = QuadratureSpec()
    ok = True
    worst = 0.0
    for make_f, make_g, beta in DUALITY_SUITE:
        lhs, rhs = duality_pairing_check(make_f(), make_g(), power_weight(1.0, beta),
                                         space, spec)
        dev = abs(lhs - rhs) / max(abs(lhs), 1.0)
        worst = max(worst, dev)
        ok = ok and dev <= 1e-6
    report("6 (duality identity)", ok,
           f"10 triples; worst relative deviation {worst:.2e} <= 1e-6", t0)
    assert len(DUALITY_SUITE) == 10
    assert ok


def test_criterion_7_radialization_contraction():
    t0 = time.time()
    space = heis_space(1)
    spec = QuadratureSpec()
    rng = np.random.default_rng(31_415)
    mc = 40_000
    p, pbar = 2.0, 2.0
    ok = True
    for trial in range(20):
        rate = float(rng.uniform(0.5, 2.5))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        k = int(rng.integers(1, 4))
        f = SeparableFunction(
            radial=exp_profile(rate, exponent=float(rng.uniform(0.0, 1.0))),
            angular=lambda pts, a=a, b=b, k=k: (
                1.0 + a * np.sin(k * math.pi * pts[:, 0]) + b * np.tanh(pts[:, -1])
            ),
        )
        seed = 9000 + trial
        g = radialize(f, space, mc_count=mc, seed=seed)
        lhs = radial_norm_with_error(g, p, pbar, space, spec).value if not g.is_zero else 0.0
        est = mixed_norm_separable(f, p, pbar, space, spec, mc_count=mc,
                                   seed=seed + 131)
        base_norm = radial_norm_with_error(f.radial, p, pbar, space, spec).value
        lhs_se = 3.0 / math.sqrt(mc) * base_norm
        ok = ok and lhs <= est.value + 3.0 * math.hypot(est.stderr, lhs_se) + 1e-9

    f = SeparableFunction(
        radial=exp_profile(1.0),
        angular=lambda pts: 1.0 + 0.5 * np.sin(math.pi * pts[:, 0]),
    )
    chk = hardy_radialization_identity_check(f, space, spec, mc_count=200_000,
                                             seed=77, radius=1.0)
    ok = ok and chk.agrees(3.0)
    report("7 (radialization contraction)", ok,
           f"20 contractions within 3 sigma; identity dev "
           f"{abs(chk.quadrature_side - chk.mc_side):.2e} <= 3x{chk.mc_stderr:.2e}", t0)
    assert ok


def test_criterion_8_geometry_suite():
    t0 = time.time()
    ok = True
    details = []
    for n in (1, 2):
        rep = run_geometry_checks(heis_space(n), triples=100_000, seed=42,
                                  mc_count=400_000)
        ok = (ok and rep.triangle_violations == 0
              and rep.max_associativity_error <= 1e-12
              and rep.max_inverse_error <= 1e-15
              and rep.max_left_invariance_relerr <= 1e-10
              and rep.max_gauge_homogeneity_relerr <= 1e-10
              and rep.mc_volume_stderrs <= 3.0)
        details.append(f"n={n}: tri=0, assoc={rep.max_associativity_error:.1e}")
    report("8 (geometry suite)", ok, "; ".join(details), t0)
    assert ok
