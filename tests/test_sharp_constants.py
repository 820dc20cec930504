import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from heishardy import quadrature, sharp_constants
from heishardy.geometry import heis_space
from heishardy.mixed_norm import MixedExponents, radial_norm_with_error
from heishardy.operators import (
    DUAL_HARDY, HARDY, OperatorKind, apply_operator, power_weight, weight_from_callable,
)
from heishardy.quadrature import (
    DivergentIntegralError,
    NonFiniteIntegrandError,
    QuadratureSpec,
    ToleranceNotReachedError,
)
from heishardy.sharp_constants import (
    DEFAULT_EPS_GRID,
    RatioReport,
    SharpConstantQuery,
    UnboundedOperatorError,
    convergence_table,
    extremal_profile,
    extremal_ratio,
    theoretical_constant,
    upper_bound_probe,
    verify,
)

from _oracles import (
    dual_hardy_extremal_ratio,
    hardy_extremal_ratio,
    weighted_cesaro_extremal_ratio,
    weighted_hardy_extremal_ratio,
)


def q_of(kind, p, pb1, pb2, space):
    return SharpConstantQuery(kind, MixedExponents(p, pb1, pb2), space)


class TestTheoreticalConstant:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_classical_reduction_is_exact(self, p, space1):
        assert theoretical_constant(q_of(HARDY, p, 2.0, 2.0, space1)) == p / (p - 1.0)
        assert theoretical_constant(q_of(DUAL_HARDY, p, 3.0, 3.0, space1)) == p

    def test_mixed_exponent_value(self, space1):
        c = theoretical_constant(q_of(HARDY, 2.0, 4.0, 2.0, space1))
        assert abs(c - 2.0 * math.sqrt(2.0 * math.pi)) <= 1e-12

    def test_weighted_hardy_unit_weight(self, space1):
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 0.0))
        c = theoretical_constant(q_of(kind, 5.0, 2.0, 2.0, space1))
        # int_0^1 t^{-Q/p} dt = p/(p - Q) for p > Q
        assert abs(c - 5.0 / (5.0 - 4.0)) <= 1e-12

    def test_depends_on_pbars_only_through_delta(self, space1):
        pairs_same_delta = [(4.0, 2.0), (8.0, 8.0 / 3.0)]  # both have delta = 1/4
        vals = [theoretical_constant(q_of(HARDY, 2.0, a, b, space1))
                for a, b in pairs_same_delta]
        assert abs(vals[0] - vals[1]) <= 1e-14 * vals[0]

    def test_moment_duality_between_weighted_kinds(self, space1):
        # the Cesaro moment at p equals the Hardy moment at the conjugate
        # exponent p' = p/(p-1), as an identity of power-law integrals
        for p in (1.5, 2.0, 3.0):
            p_conj = p / (p - 1.0)
            beta = 3.0
            wc = OperatorKind("weighted_cesaro", power_weight(1.0, beta))
            wh = OperatorKind("weighted_hardy", power_weight(1.0, beta))
            c_ces = theoretical_constant(q_of(wc, p, 2.0, 2.0, space1))
            c_har = theoretical_constant(q_of(wh, p_conj, 2.0, 2.0, space1))
            assert abs(c_ces - c_har) <= 1e-14 * c_ces

    def test_unbounded_weight_verdict(self, space1):
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 0.0))
        with pytest.raises(UnboundedOperatorError):
            theoretical_constant(q_of(kind, 2.0, 2.0, 2.0, space1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_power_weight_constant_is_the_exact_moment(self, n):
        # at pbar1 = pbar2 every power-weight constant is c / (e + beta + 1), the
        # exact rational rounded once, with e = -Q/p (Hardy side) or -Q + Q/p
        space = heis_space(n)
        Q = space.q
        for p in (1.0001, 1.5, 2.0, 3.0, 5.0, 7.0, 1e6, 1e10, 1e15):
            q_over_p = Fraction(Q) / Fraction(p)
            for dual, tag in ((False, "weighted_hardy"), (True, "weighted_cesaro")):
                e = q_over_p - Q if dual else -q_over_p
                kinds = [(DUAL_HARDY if dual else HARDY, Q, Q - 1)]
                kinds += [(OperatorKind(tag, power_weight(c, beta)), c, beta)
                          for c in (1.0, 2.5) for beta in (0.0, 0.5, 3.0, 4.0)]
                for kind, c, beta in kinds:
                    rate = e + Fraction(beta) + 1
                    query = q_of(kind, p, 2.0, 2.0, space)
                    if rate <= 0:
                        with pytest.raises(UnboundedOperatorError):
                            theoretical_constant(query)
                    else:
                        assert theoretical_constant(query) == float(Fraction(c) / rate), (kind, p)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_hardy_constants_keep_their_closed_forms(self, n):
        # with Delta != 0 the moments of Q t^(Q-1) are p/(p-1) and p, bit for bit
        space = heis_space(n)
        for p in (1.0001, 1.5, 2.0, 3.0, 7.0, 1e6, 1e15):
            for pb1, pb2 in ((4.0, 2.0), (2.0, 4.0), (3.0, 1.5)):
                omega_delta = space.omega_small ** MixedExponents(p, pb1, pb2).delta
                assert theoretical_constant(q_of(HARDY, p, pb1, pb2, space)) == (
                    p / (p - 1.0) * omega_delta)
                assert theoretical_constant(q_of(DUAL_HARDY, p, pb1, pb2, space)) == p * omega_delta

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_general_weight_constant_matches_beta_function(self, p, space1, spec):
        # w = t^3 (1-t)^2 by quadrature: int_0^1 t^(e+3) (1-t)^2 dt = B(4 + e, 3)
        w = weight_from_callable(lambda t: np.asarray(t) ** 3 * (1.0 - np.asarray(t)) ** 2,
                                 zero_exponent=3.0)
        omega_delta = space1.omega_small ** MixedExponents(p, 4.0, 2.0).delta
        for tag, e in (("weighted_hardy", -4.0 / p), ("weighted_cesaro", -4.0 + 4.0 / p)):
            got = theoretical_constant(q_of(OperatorKind(tag, w), p, 4.0, 2.0, space1), spec)
            want = omega_delta * beta_fn(4.0 + e, 3.0)
            assert abs(got - want) <= 1e-8 * want, tag

    def test_unbounded_boundary_case(self, space2):
        # beta = Q/p - 1 exactly: logarithmic divergence of the moment
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 2.0))
        with pytest.raises(UnboundedOperatorError):
            theoretical_constant(q_of(kind, 2.0, 2.0, 2.0, space2))


class TestWeightMoment:
    """The moment int_0^1 t^e w(t) dt of theoretical_constant, at e = -Q/p = -1 (n = 1, p = 4)."""

    @staticmethod
    def constant(w, spec=QuadratureSpec()):
        return theoretical_constant(q_of(OperatorKind("weighted_hardy", w), 4.0, 2.0, 2.0, heis_space(1)), spec)

    def test_power_moment_exact(self):
        assert self.constant(power_weight(2.0, 3.0)) == 2.0 / 3.0  # 2/(3-1+1)

    def test_power_moment_divergent(self):
        with pytest.raises(UnboundedOperatorError):
            self.constant(power_weight(1.0, 0.0))

    def test_general_moment_quadrature(self, spec):
        w = weight_from_callable(lambda t: np.sqrt(np.asarray(t)), zero_exponent=0.5)
        assert abs(self.constant(w, spec) - 2.0) <= 1e-8  # int t^{-1/2} dt

    def test_general_weight_constants_are_pinned(self, space1, spec):
        # bit for bit what the certified moment quadrature gave when these were recorded
        beta32 = weight_from_callable(lambda t: np.asarray(t) ** 3 * (1.0 - np.asarray(t)) ** 2,
                                      zero_exponent=3.0)
        pins = {(2.0, "weighted_hardy"): "0x1.abcc42a9d8930p-3", (2.0, "weighted_cesaro"): "0x1.abcc42a9d8930p-3",
                (5.0, "weighted_hardy"): "0x1.25d136399357dp-4", (5.0, "weighted_cesaro"): "0x1.3e4d5013b4f48p+0"}
        for (p, tag), want in pins.items():
            got = theoretical_constant(q_of(OperatorKind(tag, beta32), p, 4.0, 2.0, space1), spec)
            assert got.hex() == want, (p, tag)
        sqrt = weight_from_callable(lambda t: np.sqrt(np.asarray(t)), zero_exponent=0.5)
        assert self.constant(sqrt, spec).hex() == "0x1.fffffffffffe4p+0"
        with pytest.raises(UnboundedOperatorError, match=r"^unbounded operator for this weight: "
                           r"weight moment diverges: t -> 0 rate -1\.5 <= 0$"):
            theoretical_constant(q_of(OperatorKind("weighted_cesaro", sqrt), 4.0, 2.0, 2.0, space1), spec)


class TestExtremalRatio:
    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_hardy_matches_oracle(self, eps, space1, spec):
        rep = extremal_ratio(q_of(HARDY, 2.0, 2.0, 2.0, space1), eps, spec)
        want = hardy_extremal_ratio(4.0, 2.0, eps)
        assert abs(rep.ratio - want) <= 1e-6 * want
        assert rep.constant == 2.0
        assert abs(rep.relative_gap - (1.0 - rep.ratio / 2.0)) <= 1e-15

    def test_hardy_p5_matches_oracle(self, space2, spec):
        rep = extremal_ratio(q_of(HARDY, 5.0, 2.0, 2.0, space2), 1e-3, spec)
        want = hardy_extremal_ratio(6.0, 5.0, 1e-3)
        assert abs(rep.ratio - want) <= 1e-6 * want

    @pytest.mark.parametrize("p, eps", [(2.0, 0.01), (5.0, 1e-3)])
    def test_dual_matches_closed_form(self, p, eps, space1, spec):
        rep = extremal_ratio(q_of(DUAL_HARDY, p, 2.0, 2.0, space1), eps, spec)
        want = dual_hardy_extremal_ratio(4.0, p, eps)
        assert abs(rep.ratio - want) <= 1e-6 * want
        # the reported error bar covers the true deviation
        assert abs(rep.ratio - want) <= rep.error_estimate * rep.ratio

    def test_weighted_hardy_matches_oracle(self, space1, spec):
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 2.0))
        rep = extremal_ratio(q_of(kind, 2.0, 2.0, 2.0, space1), 0.01, spec)
        want = weighted_hardy_extremal_ratio(4.0, 2.0, 0.01, 2.0)
        assert abs(rep.ratio - want) <= 1e-6 * want

    def test_weighted_cesaro_matches_oracle(self, space1, spec):
        kind = OperatorKind("weighted_cesaro", power_weight(1.0, 4.0))
        rep = extremal_ratio(q_of(kind, 2.0, 2.0, 2.0, space1), 0.01, spec)
        want = weighted_cesaro_extremal_ratio(4.0, 2.0, 0.01, 4.0)
        assert abs(rep.ratio - want) <= 1e-6 * want

    @pytest.mark.parametrize("kind,probe,panels,integrals,sweeps,populations,cuts", [
        (HARDY, False, 1_431, 246, 5, 3, 4),
        (OperatorKind("weighted_cesaro", power_weight(1.0, 4.0)), False, 1_921, 252, 5, 3, 6),
        (HARDY, True, 1_053, 162, 3, 3, 6),
    ], ids=["hardy", "weighted_cesaro", "hardy-probe"])
    def test_work_counts(self, kind, probe, panels, integrals, sweeps, populations, cuts, space1, spec,
                         work_counts):
        # panels and integrals are the engine's work, pinned; sweeps (integrand
        # calls) fall as populations grow, so only their ceiling is pinned.  A
        # ratio's numerator and denominator share one outer population, and each
        # population probes both envelope sides in one call: one probe trial at
        # the loose spec runs three, the outer one and the numerator's envelope
        # probes and seeded panels.  The set-up stages per population are pinned
        # too: one seed ladder each, and a pair of cuts (upper, lower) in each
        # population that probes an envelope
        q = q_of(kind, 2.0, 2.0, 2.0, space1)
        if probe:
            upper_bound_probe(q, 1, 0, QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8))
        else:
            extremal_ratio(q, 0.01, spec)
        assert work_counts["panels"] == panels
        assert work_counts["inner_integrals"] == integrals
        assert work_counts["sweeps"] <= sweeps
        assert work_counts["populations"] == populations
        assert (work_counts["cuts"], work_counts["ladders"]) == (cuts, populations)

    def test_hardy_side_edge_layer_is_seeded(self, space2, spec, work_counts):
        # H f_eps rises from 0 at r = 1 within about 1 / (Q - Q/p - eps) in log r; its edge-layer
        # breakpoints seed the outer norms, which then need no bisection sweep: one outer
        # population and two inner ones, for its envelope probes and its seeded panels
        rep = extremal_ratio(q_of(HARDY, 5.0, 2.0, 2.0, space2), 1e-2, spec)
        want = hardy_extremal_ratio(6.0, 5.0, 1e-2)
        assert abs(rep.ratio - want) <= rep.error_estimate * rep.ratio
        assert work_counts["populations"] == 3

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    @pytest.mark.parametrize("tag, beta", [("hardy", None), ("dual_hardy", None),
                                           ("weighted_hardy", 3.0), ("weighted_cesaro", 4.0)])
    def test_widest_windows_match_oracle_within_their_error(self, tag, beta, p, n, spec):
        # at eps = 1e-4 the norm integrands decay like e^{-p eps u}: windows run out
        # to u ~ 2e5, where far seed panels span up to 6.9 e-folds of that slow rate
        # outside and 4.8 inside (_far_span of rel_tol 1e-8 and 1e-10)
        kind = OperatorKind(tag, None if beta is None else power_weight(1.0, beta))
        space = heis_space(n)
        rep = extremal_ratio(q_of(kind, p, 2.0, 2.0, space), 1e-4, spec)
        oracle = {"hardy": hardy_extremal_ratio, "dual_hardy": dual_hardy_extremal_ratio,
                  "weighted_hardy": weighted_hardy_extremal_ratio,
                  "weighted_cesaro": weighted_cesaro_extremal_ratio}[tag]
        want = oracle(space.q, p, 1e-4, *(() if beta is None else (beta,)))
        assert abs(rep.ratio - want) <= 1e-6 * want
        assert abs(rep.ratio - want) <= rep.error_estimate * rep.ratio

    def test_mixed_exponents_scale_by_omega_delta(self, space1, spec):
        base = extremal_ratio(q_of(HARDY, 2.0, 2.0, 2.0, space1), 0.01, spec)
        mixed = extremal_ratio(q_of(HARDY, 2.0, 4.0, 2.0, space1), 0.01, spec)
        scale = space1.omega_small ** 0.25
        assert abs(mixed.ratio - scale * base.ratio) <= 1e-8 * mixed.ratio
        assert abs(mixed.constant - scale * base.constant) <= 1e-12 * mixed.constant

    def test_monotone_improvement(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        r_old = extremal_ratio(q, 0.5, spec)
        r_new = extremal_ratio(q, 0.01, spec)
        assert r_new.ratio > r_old.ratio

    def test_boundedness_direction(self, space1, spec):
        for eps in (0.3, 0.05):
            rep = extremal_ratio(q_of(DUAL_HARDY, 3.0, 2.0, 4.0, space1), eps, spec)
            assert rep.ratio <= rep.constant * (1.0 + rep.error_estimate)

    def test_extremal_profile_shape(self, space1):
        prof = extremal_profile(0.25, 2.0, space1)
        assert prof.log_support[0] == 0.0
        assert prof.eval(0.5) == 0.0
        assert abs(prof.eval(2.0) - 2.0 ** -(2.0 + 0.25)) <= 1e-15

    def test_rejects_bad_epsilon(self, space1):
        with pytest.raises(ValueError):
            extremal_profile(1.5, 2.0, space1)

    def test_epsilon_below_float_resolution_is_named(self, space1):
        # Q/p + 1e-16 rounds to Q/p = 2.0: no finite norm, and the reason says why
        with pytest.raises(DivergentIntegralError, match=r"epsilon 1e-16 vanishes beside Q/p = 2.0"):
            extremal_profile(1e-16, 2.0, space1)


class TestConvergenceTable:
    def test_gap_column_nonincreasing(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        table = convergence_table(q, DEFAULT_EPS_GRID, spec)
        gaps = [r.relative_gap for r in table]
        assert all(b <= a + 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))

    def test_constant_column_constant(self, space1, spec):
        q = q_of(DUAL_HARDY, 2.0, 4.0, 2.0, space1)
        table = convergence_table(q, (0.1, 0.01), spec)
        assert table[0].constant == table[1].constant

    def test_final_gap_small(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        table = convergence_table(q, (0.01, 0.001), spec)
        assert table[-1].relative_gap <= 5e-4

    def test_rejects_nonmonotone_grid(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        with pytest.raises(ValueError):
            convergence_table(q, (0.01, 0.1), spec)
        with pytest.raises(ValueError):
            convergence_table(q, (), spec)
        with pytest.raises(ValueError):
            convergence_table(q, (1.5, 0.1), spec)


class TestUpperBoundProbe:
    def test_probes_stay_below_constant(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        worst = upper_bound_probe(q, trials=8, seed=123, spec=spec)
        assert worst.ratio <= worst.constant * (1.0 + 1e-6 + worst.error_estimate)
        assert math.isnan(worst.epsilon)

    def test_deterministic_in_seed(self, space1, spec):
        q = q_of(DUAL_HARDY, 2.0, 2.0, 2.0, space1)
        a = upper_bound_probe(q, trials=4, seed=7, spec=spec)
        b = upper_bound_probe(q, trials=4, seed=7, spec=spec)
        assert a.ratio == b.ratio

    def test_seed_is_taken_mod_2_64(self, space1, spec):
        q = q_of(HARDY, 2.0, 2.0, 2.0, space1)
        a = upper_bound_probe(q, trials=2, seed=-3, spec=spec)
        b = upper_bound_probe(q, trials=2, seed=2**64 - 3, spec=spec)
        assert (a.ratio, a.error_estimate, a.seeds_and_tolerances["trial"]) == (
            b.ratio, b.error_estimate, b.seeds_and_tolerances["trial"])

    def test_near_extremal_scores_high(self, space1, spec):
        # the epsilon = 0.001 family member achieves at least 95% of the bound
        rep = extremal_ratio(q_of(HARDY, 2.0, 2.0, 2.0, space1), 1e-3, spec)
        assert rep.ratio >= 0.95 * rep.constant

    def test_truncated_constant_ratio_vs_brute_force(self, space1, spec):
        # f = 1 on (0, 1]: both norms have closed forms at p = 2, Q = 4:
        # ||f||^2 = omega/4; Hf = 1 inside, r^{-4} beyond, ||Hf||^2 = omega(1/4 + 1/4)
        from heishardy.mixed_norm import radial_norm_with_error
        from heishardy.operators import apply_operator
        from heishardy.quadrature import constant_profile

        f = constant_profile(1.0, support=(0.0, 1.0))
        out = apply_operator(HARDY, f, space1, spec)
        num = radial_norm_with_error(out, 2.0, 2.0, space1, spec).value
        den = radial_norm_with_error(f, 2.0, 2.0, space1, spec).value
        assert abs(den - math.sqrt(space1.omega_small / 4.0)) <= 1e-7
        assert abs(num - math.sqrt(space1.omega_small * 0.5)) <= 1e-6
        assert num / den <= 2.0

    def test_weighted_probe_small(self, space1, spec):
        kind = OperatorKind("weighted_cesaro", power_weight(1.0, 4.0))
        worst = upper_bound_probe(q_of(kind, 2.0, 2.0, 2.0, space1),
                                  trials=3, seed=5, spec=spec)
        assert worst.ratio <= worst.constant * (1.0 + 1e-6 + worst.error_estimate)

    def test_rejects_bad_trials(self, space1, spec):
        with pytest.raises(ValueError):
            upper_bound_probe(q_of(HARDY, 2.0, 2.0, 2.0, space1), 0, 1, spec)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    @pytest.mark.parametrize("tag, beta", [("hardy", None), ("dual_hardy", None),
                                           ("weighted_hardy", 3.0), ("weighted_cesaro", 4.0)])
    def test_loose_probes_agree_with_tight_ones(self, tag, beta, p, n):
        # at (1e-4, 1e-8) far seed panels span 16.8 e-folds outside and 10.4 inside;
        # at rel_tol 1e-11 they span 4 at both levels.  The same trials must agree
        # within both error bars, and stay below the constant
        kind = OperatorKind(tag, None if beta is None else power_weight(1.0, beta))
        q = q_of(kind, p, 2.0, 2.0, heis_space(n))
        for seed in range(4):
            loose = upper_bound_probe(q, 1, seed, QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8))
            tight = upper_bound_probe(q, 1, seed, QuadratureSpec(rel_tol=1e-11, abs_tol=1e-8))
            assert loose.sandwich_ok and tight.sandwich_ok
            assert abs(loose.ratio - tight.ratio) <= (loose.error_estimate * loose.ratio
                                                      + tight.error_estimate * tight.ratio)

    def test_beaten_constant_returns_the_failing_trial(self, space1, spec, monkeypatch):
        real = sharp_constants.theoretical_constant
        monkeypatch.setattr(sharp_constants, "theoretical_constant", lambda *a: 0.5 * real(*a))
        report = upper_bound_probe(q_of(HARDY, 2.0, 2.0, 2.0, space1), 3, 11, spec)
        assert report.seeds_and_tolerances["trial"] == 0
        assert not report.sandwich_ok


class TestVerify:
    def test_true_constant_passes(self, space1, spec):
        row, failed = verify(q_of(HARDY, 2.0, 2.0, 2.0, space1), (0.1, 0.01), 2, 0, spec)
        assert failed is None
        assert row["verdict"] == "bounded" and row["sandwich_ok"] and row["converged"]
        assert [e["epsilon"] for e in row["table"]] == [0.1, 0.01]
        assert row["probe_trials"] == 2

    def test_unbounded_operator_passes(self, space1, spec):
        kind = OperatorKind("weighted_hardy", power_weight(1.0, 0.0))
        assert verify(q_of(kind, 2.0, 2.0, 2.0, space1), (0.1,), 1, 0, spec) == (
            {"verdict": "unbounded"}, None)

    @pytest.mark.parametrize("error", [
        ToleranceNotReachedError("stub failure", estimate=0.0, error=1.0),
        NonFiniteIntegrandError("stub failure"),
        DivergentIntegralError("stub failure"),
    ], ids=["tolerance", "non-finite", "divergent"])
    def test_failed_quadrature_fails_the_row(self, space1, spec, monkeypatch, error):
        def ratio(*args):
            raise error

        monkeypatch.setattr(sharp_constants, "extremal_ratio", ratio)
        assert verify(q_of(HARDY, 2.0, 2.0, 2.0, space1), (0.1,), 1, 0, spec) == (
            {"verdict": "failed", "reason": "stub failure"}, {"error": "stub failure"})

    def test_exhausted_panel_budget_fails_the_row(self, space1, spec, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
        row, failed = verify(q_of(HARDY, 2.0, 2.0, 2.0, space1), (0.1,), 1, 0, spec)
        assert row["verdict"] == "failed" and row["reason"]
        assert failed == {"error": row["reason"]}

    def test_halved_constant_fails_every_query(self, space1, spec, monkeypatch):
        real = sharp_constants.theoretical_constant
        monkeypatch.setattr(sharp_constants, "theoretical_constant", lambda *a: 0.5 * real(*a))
        for kind in (HARDY, DUAL_HARDY):
            for p in (2.0, 5.0):
                row, failed = verify(q_of(kind, p, 2.0, 2.0, space1), (0.1, 0.01), 2, 0, spec)
                assert not row["sandwich_ok"]
                assert "probe trial 0 (seed 0)" in failed["error"]


def _separate_ratio(q, f, spec):
    """Ratio and error estimate from two radial_norm_with_error calls, one per norm."""
    num = radial_norm_with_error(apply_operator(q.kind, f, q.space, spec), q.exps.p, q.exps.p_bar_2,
                                 q.space, spec)
    den = radial_norm_with_error(f, q.exps.p, q.exps.p_bar_1, q.space, spec)
    return num.value / den.value, num.error / num.value + den.error / den.value


class TestSharedPopulation:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    @pytest.mark.parametrize("tag, beta", [("hardy", None), ("dual_hardy", None),
                                           ("weighted_hardy", 3.0), ("weighted_cesaro", 4.0)])
    def test_ratio_equals_two_separate_norms_bitwise(self, tag, beta, p, n, spec, monkeypatch):
        # numerator and denominator run as one outer population; each must get
        # bitwise what its own radial_norm_with_error call gives
        kind = OperatorKind(tag, None if beta is None else power_weight(1.0, beta))
        q = q_of(kind, p, 2.0, 4.0, heis_space(n))
        rep = extremal_ratio(q, 0.01, spec)
        assert (rep.ratio, rep.error_estimate) == _separate_ratio(q, extremal_profile(0.01, p, q.space), spec)
        drawn, draw = [], sharp_constants._random_admissible_profile
        monkeypatch.setattr(sharp_constants, "_random_admissible_profile",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        rep = upper_bound_probe(q, 1, 7, spec)
        assert (rep.ratio, rep.error_estimate) == _separate_ratio(q, drawn[0], spec)


class TestRatioReportInvariants:
    def test_report_fields_consistent(self, space1, spec):
        rep = extremal_ratio(q_of(HARDY, 2.0, 2.0, 2.0, space1), 0.05, spec)
        assert rep.ratio <= rep.constant * (1.0 + rep.error_estimate)
        assert abs(rep.relative_gap - (1.0 - rep.ratio / rep.constant)) <= 1e-15
        assert rep.seeds_and_tolerances["rel_tol"] == spec.rel_tol

    @pytest.mark.parametrize("ratio, error_estimate, ok", [
        (2.0, 0.0, True),
        (2.0 * (1.0 + 2e-6), 0.0, False),
        (2.0 * (1.0 + 2e-6), 1e-5, True),
        (math.nan, 0.0, False),
    ])
    def test_sandwich_bound(self, ratio, error_estimate, ok):
        rep = RatioReport(epsilon=math.nan, ratio=ratio, constant=2.0,
                          relative_gap=1.0 - ratio / 2.0, error_estimate=error_estimate)
        assert rep.sandwich_ok is ok
