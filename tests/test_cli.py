import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heishardy import cli, quadrature, sharp_constants
from heishardy.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_function_spec,
    parse_weight_spec,
)
from heishardy.quadrature import exp_profile, mixture_profile, power_profile


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_OK, err
    return json.loads(out)


def csv_rows(out):
    """The data rows of a CSV report, below its '#' provenance lines."""
    return list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))


class TestConstantsCommand:
    def test_classical_row(self, capsys):
        doc = run_json(capsys, "constants", "--kind", "hardy", "--n", "1",
                       "--p", "2", "--pbar1", "2", "--pbar2", "2")
        row = doc["results"][0]
        assert row["constant"] == 2.0
        assert row["verdict"] == "bounded"

    def test_mixed_exponent_row(self, capsys):
        doc = run_json(capsys, "constants", "--kind", "hardy", "--n", "1",
                       "--p", "2", "--pbar1", "4", "--pbar2", "2")
        assert abs(doc["results"][0]["constant"] - 2.0 * math.sqrt(2 * math.pi)) < 1e-10

    def test_weighted_constant_is_the_exact_moment(self, capsys):
        # 1 / (-Q + Q/p + beta + 1) at Q = 4, beta = 3, p = 1e10 is 2.5e9 exactly
        status, out, err = run_cli(capsys, "constants", "--kind", "wcesaro", "--weight",
                                   "power:beta=3", "--n", "1", "--p", "1e10")
        assert status == EXIT_OK, err
        assert '"constant": 2500000000.0,' in out

    def test_unbounded_verdict_rendered_not_errored(self, capsys):
        status, out, err = run_cli(capsys, "constants", "--kind", "whardy",
                                   "--weight", "power:c=1,beta=0", "--n", "1", "--p", "2")
        assert status == EXIT_OK
        row = json.loads(out)["results"][0]
        assert row["verdict"] == "unbounded"
        assert row["constant"] is None

    def test_grid_expansion(self, capsys):
        doc = run_json(capsys, "constants", "--kind", "hardy,dual-hardy",
                       "--n", "1,2", "--p", "2,5")
        assert len(doc["results"]) == 8

    def test_json_schema_top_level(self, capsys):
        doc = run_json(capsys, "constants", "--kind", "hardy")
        assert set(doc) >= {"config", "results", "provenance"}
        assert doc["provenance"]["version"]


class TestVerifySharpCommand:
    def test_default_hardy_converges(self, capsys):
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy",
                                   "--eps-grid", "0.1,0.01,0.001", "--trials", "3")
        assert status == EXIT_OK
        doc = json.loads(out)
        row = doc["results"][0]
        assert row["converged"] and row["sandwich_ok"]
        gaps = [e["relative_gap"] for e in row["table"]]
        assert gaps[-1] <= 5e-4

    def test_csv_columns(self, capsys):
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy",
                                   "--eps-grid", "0.1,0.01", "--trials", "2",
                                   "--format", "csv")
        assert status == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        for col in ("epsilon", "ratio", "constant", "relative_gap", "error_estimate"):
            assert col in header

    def test_unbounded_config_reported(self, capsys):
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "whardy",
                                   "--weight", "power:beta=0", "--p", "2",
                                   "--eps-grid", "0.1", "--trials", "1")
        assert status == EXIT_OK
        assert json.loads(out)["results"][0]["verdict"] == "unbounded"

    def test_unconverged_grid_exits_3_with_offending_row(self, capsys):
        # a single coarse epsilon leaves the final gap far above 5%, which
        # fails the convergence check and must identify the offending row
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy",
                                   "--eps-grid", "0.9", "--trials", "1")
        assert status == EXIT_NUMERIC
        doc = json.loads(out)
        assert len(doc["offending"]) == 1
        assert doc["offending"][0]["kind"] == "hardy"
        assert doc["offending"][0]["relative_gap"] > 0.05

    def test_every_failing_row_is_offending(self, capsys):
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy,dual-hardy",
                                   "--eps-grid", "0.9", "--trials", "1", "--rel-tol", "1e-6")
        assert status == EXIT_NUMERIC
        doc = json.loads(out)
        assert [row["converged"] for row in doc["results"]] == [False, False]
        assert [row["kind"] for row in doc["offending"]] == ["hardy", "dual_hardy"]
        assert all(row["relative_gap"] > 0.05 for row in doc["offending"])

    def test_beaten_constant_exits_3_with_error_row(self, capsys, monkeypatch):
        # at half the constant the first probe of each row beats it: every row is
        # rendered with sandwich_ok false and goes to offending with the probe's error
        real = sharp_constants.theoretical_constant
        monkeypatch.setattr(sharp_constants, "theoretical_constant", lambda *a: 0.5 * real(*a))
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy,dual-hardy",
                                   "--eps-grid", "0.5", "--trials", "1")
        assert status == EXIT_NUMERIC
        doc = json.loads(out)
        assert [(row["kind"], row["sandwich_ok"]) for row in doc["results"]] == [
            ("hardy", False), ("dual_hardy", False)]
        assert [row["kind"] for row in doc["offending"]] == ["hardy", "dual_hardy"]
        assert all("probe trial 0 (seed 0)" in row["error"] for row in doc["offending"])

    def test_rows_and_verdicts_are_the_librarys(self, capsys, monkeypatch):
        # the CLI renders what verify returns: one failing row of two is the one offending
        def stub(q, eps_grid, trials, seed, spec):
            failed = {"relative_gap": 0.5} if q.kind.dual else None
            return {"verdict": "bounded", "stub": q.kind.tag}, failed

        monkeypatch.setattr(cli, "verify", stub)
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", "hardy,dual-hardy")
        assert status == EXIT_NUMERIC
        doc = json.loads(out)
        assert [row["stub"] for row in doc["results"]] == ["hardy", "dual_hardy"]
        assert doc["offending"] == [{"kind": "dual_hardy", "n": 1, "p": 2.0, "pbar1": 2.0,
                                     "pbar2": 2.0, "relative_gap": 0.5}]

    @pytest.mark.parametrize("kind", ["hardy", "dual-hardy", "whardy", "wcesaro"])
    def test_epsilon_below_float_resolution_exits_3(self, capsys, kind):
        # at n = 1, p = 2 the exponent Q/p + 1e-16 rounds to Q/p: f_eps has no
        # finite norm, and the row fails with a reason that names the epsilon
        status, out, err = run_cli(capsys, "verify-sharp", "--kind", kind, "--weight", "power:4",
                                   "--eps-grid", "1e-16", "--trials", "1")
        assert status == EXIT_NUMERIC
        doc = json.loads(out)
        [row] = doc["results"]
        assert row["verdict"] == "failed"
        assert "epsilon 1e-16" in row["reason"] and "Q/p = 2.0" in row["reason"]
        assert [r["error"] for r in doc["offending"]] == [row["reason"]]

    def test_failed_quadrature_is_its_own_row(self, capsys, monkeypatch):
        # only the dual_hardy query's quadrature fails: the hardy row keeps its
        # table, and the failed row is the one offending
        real = sharp_constants.extremal_ratio

        def ratio(q, eps, spec):
            if q.kind.dual:
                raise quadrature.ToleranceNotReachedError("stub failure", estimate=0.0, error=1.0)
            return real(q, eps, spec)

        monkeypatch.setattr(sharp_constants, "extremal_ratio", ratio)
        argv = ("verify-sharp", "--kind", "hardy,dual-hardy", "--eps-grid", "0.1,0.01", "--trials", "1")
        status, out, err = run_cli(capsys, *argv)
        assert status == EXIT_NUMERIC and err == ""
        doc = json.loads(out)
        hardy, dual = doc["results"]
        assert hardy["kind"] == "hardy" and hardy["converged"] and len(hardy["table"]) == 2
        assert dual == {"kind": "dual_hardy", "n": 1, "p": 2.0, "pbar1": 2.0, "pbar2": 2.0,
                        "verdict": "failed", "reason": "stub failure"}
        assert doc["offending"] == [{"kind": "dual_hardy", "n": 1, "p": 2.0, "pbar1": 2.0,
                                     "pbar2": 2.0, "error": "stub failure"}]

        status, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert status == EXIT_NUMERIC and err == ""
        rows = csv_rows(out)
        assert [r["kind"] for r in rows] == ["hardy", "hardy", "dual_hardy"]
        assert rows[-1]["verdict"] == "failed" and rows[-1]["reason"] == "stub failure"


@pytest.mark.parametrize("argv", [
    # the output norm underflows
    ["--kind", "whardy", "--weight", "power:c=1e-300,beta=3"],
    # |f|^p underflows at p = 1e10
    ["--kind", "hardy", "--p", "1e10"],
], ids=["tiny-weight", "huge-p"])
def test_zero_norm_exits_3(capsys, argv):
    status, out, err = run_cli(capsys, "verify-sharp", *argv, "--trials", "1", "--eps-grid", "0.5")
    assert status == EXIT_NUMERIC
    doc = json.loads(out)
    [row] = doc["results"]
    assert row["verdict"] == "failed" and "0.0" in row["reason"]
    assert [r["error"] for r in doc["offending"]] == [row["reason"]]


def test_steep_weight_peak_is_resolved(capsys):
    # the inner integrals of t^1e10 put their mass within 1e-10 of t = 1, where
    # the seed panels start: the norm is not 0, and the row is bounded
    status, out, err = run_cli(capsys, "verify-sharp", "--kind", "whardy", "--weight",
                               "power:c=1,beta=1e10", "--trials", "1", "--eps-grid", "0.5")
    assert status == EXIT_OK, err
    [row] = json.loads(out)["results"]
    assert row["verdict"] == "bounded" and row["converged"]
    [entry] = row["table"]
    assert 0.0 < entry["ratio"] <= row["constant"] * (1.0 + entry["error_estimate"])


def test_underflowed_norm_of_a_nonzero_function_exits_3(capsys):
    # int |e^{-r}|^p r^3 dr = 6/p^4 = 6e-40 at p = 1e10 is below abs_tol: it reads 0
    # while the norm, its 1/p-th power times 2 pi, is about 6.28
    status, out, err = run_cli(capsys, "norm", "--p", "1e10")
    assert status == EXIT_NUMERIC
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "numeric tolerance failure" and "0.0" in doc["reason"]


def test_subnormal_abs_tol_cuts_in_logs(capsys):
    # abs_tol * rate underflows to 0, so the envelope cut is taken in logs;
    # the norm of r^-2.1 on [1, inf) at n = 1 is sqrt(omega int_1^inf r^-1.2 dr)
    doc = run_json(capsys, "norm", "--abs-tol", "5e-324", "--function", "power:-2.1,lo=1", "--p", "2")
    [row] = doc["results"]
    want = math.sqrt(5.0 * 4.0 * math.pi**2)
    assert row["verdict"] == "finite" and abs(row["norm"] - want) <= 1e-8 * want


@pytest.mark.parametrize("function", ["power:1,hi=1,c=0", "power:1,c=0"])
def test_zero_coefficient_norm_is_zero(capsys, function):
    # a zero coefficient makes the zero profile, whose norm is 0 whatever its exponent
    doc = run_json(capsys, "norm", "--function", function)
    assert doc["results"][0]["norm"] == 0.0
    assert doc["results"][0]["verdict"] == "finite"


def test_panel_budget_exhausted_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    status, out, err = run_cli(capsys, "norm", "--function", "exp:1")
    assert status == EXIT_NUMERIC
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "numeric tolerance failure" and doc["reason"]


@pytest.mark.parametrize("argv", [
    ["norm", "--function", "exp:1e-300"],
    # the true norm, about 1e60, fits float64
    ["norm", "--function", "exp:1e-300,alpha=-1.9", "--p", "2"],
    ["apply", "--kind", "dual-hardy", "--function", "exp:1e-300", "--radii", "1"],
], ids=["norm", "norm-finite", "apply"])
def test_exp_tail_without_cutoff_exits_3(capsys, argv):
    # an exponential tail converges, so a cutoff scan that runs out is no divergence verdict
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_NUMERIC
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "numeric tolerance failure" and "exponential tail" in doc["reason"]


class TestApplyCommand:
    def test_hardy_power(self, capsys):
        doc = run_json(capsys, "apply", "--kind", "hardy", "--function", "power:1",
                       "--n", "1", "--radii", "2")
        assert abs(doc["results"][0]["value"] - 1.6) < 1e-8

    def test_dual_hardy_power(self, capsys):
        doc = run_json(capsys, "apply", "--kind", "dual-hardy",
                       "--function", "power:-2", "--n", "1", "--radii", "2")
        assert abs(doc["results"][0]["value"] - 0.5) < 1e-8

    def test_zero_function(self, capsys):
        doc = run_json(capsys, "apply", "--kind", "hardy", "--function", "zero",
                       "--radii", "1,2,3")
        assert all(row["value"] == 0.0 for row in doc["results"])

    def test_multiple_radii_ordered(self, capsys):
        doc = run_json(capsys, "apply", "--kind", "hardy", "--function", "power:1",
                       "--radii", "1,2,4")
        assert [row["r"] for row in doc["results"]] == [1.0, 2.0, 4.0]

    def test_dual_hardy_steep_power_with_underflowing_envelope(self, capsys):
        # Q int_r^inf s^-401 ds on s > 1 is Q/400 for r < 1; the envelope
        # probes of the inner integral underflow to 0 against an overflowing exp
        doc = run_json(capsys, "apply", "--kind", "dual-hardy", "--function",
                       "power:-400,lo=1", "--n", "1", "--radii", "1e-3")
        assert abs(doc["results"][0]["value"] - 0.01) < 1e-6

    def test_overflowing_coefficient_resolves(self, capsys):
        # H(1e300 s) = Q/(Q+1) 1e300 r: the inner envelope constant leaves float
        # range, and its cut is taken in logs
        doc = run_json(capsys, "apply", "--kind", "hardy", "--function", "power:1,c=1e300",
                       "--radii", "1")
        assert abs(doc["results"][0]["value"] / 0.8e300 - 1.0) <= 1e-8

    def test_divergent_input_gives_a_verdict_row(self, capsys):
        # H(r^-10) diverges at the origin: one row for the kind, not a failure
        doc = run_json(capsys, "apply", "--kind", "hardy", "--function", "power:-10",
                       "--radii", "1,2")
        [row] = doc["results"]
        assert (row["kind"], row["n"], row["verdict"]) == ("hardy", 1, "divergent")
        assert row["reason"] == ("Hardy-side operator diverges at the origin "
                                 "(origin -10.0 + weight order 3.0 <= -1)")

    def test_divergent_tail_gives_a_verdict_row(self, capsys):
        # H* r = Q int_r^inf ds diverges at infinity: the screening reason, in full
        doc = run_json(capsys, "apply", "--kind", "dual-hardy", "--function", "power:1",
                       "--radii", "1,2")
        [row] = doc["results"]
        assert (row["kind"], row["n"], row["verdict"]) == ("dual_hardy", 1, "divergent")
        assert row["reason"] == "Cesaro-side operator diverges at t -> 0 (screening rate -1.0 <= 0)"

    @pytest.mark.parametrize("function,radii,values", [
        ("power:1,hi=1e-310", "1e-311,1",
         [7.99999999993e-312, 0.0, 3.6000000000002e-310, 0.0, 4.999999999963e-312, 0.0,
          2.499750000000801e-308, 0.0]),
        ("power:-5,lo=1e300", "1e300,1e301", [0.0] * 8),
    ], ids=["support-below-1e-310", "support-above-1e300"])
    def test_extreme_supports_are_evaluated(self, capsys, function, radii, values):
        # a support whose reciprocal leaves float range is reflected in log r, exactly
        doc = run_json(capsys, "apply", "--kind", "hardy,dual-hardy,whardy,wcesaro",
                       "--function", function, "--radii", radii)
        assert [row["value"] for row in doc["results"]] == values


@pytest.mark.parametrize("argv", [
    ["norm", "--function", "power:200,hi=1e3", "--n", "1", "--p", "2"],
    ["apply", "--kind", "hardy", "--function", "power:400", "--radii", "10"],
], ids=["norm-overflowing-integrand", "apply-overflowing-power"])
def test_non_finite_integrand_exits_3(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == EXIT_NUMERIC
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "non-finite integrand" and doc["reason"]


class TestNormCommand:
    def test_exponential(self, capsys):
        doc = run_json(capsys, "norm", "--function", "exp:1", "--p", "2", "--pbar1", "2")
        assert abs(doc["results"][0]["norm"] - 3.847649490485592) < 1e-6

    def test_extremal_family(self, capsys):
        doc = run_json(capsys, "norm", "--function", "power:-2.01,lo=1",
                       "--p", "2", "--pbar1", "2")
        assert abs(doc["results"][0]["norm"] - 44.428829381583662) < 1e-4

    def test_zero(self, capsys):
        doc = run_json(capsys, "norm", "--function", "zero")
        assert doc["results"][0]["norm"] == 0.0

    def test_divergent_verdict(self, capsys):
        status, out, err = run_cli(capsys, "norm", "--function", "power:0")
        assert status == EXIT_OK
        row = json.loads(out)["results"][0]
        assert row["verdict"] == "divergent norm"
        assert row["norm"] is None


class TestGeomCheckCommand:
    def test_passes_for_both_spaces(self, capsys):
        status, out, err = run_cli(capsys, "geom-check", "--n", "1,2",
                                   "--triples", "20000", "--mc-count", "50000",
                                   "--seed", "42")
        assert status == EXIT_OK
        doc = json.loads(out)
        assert all(row["all_pass"] for row in doc["results"])

    def test_n6_passes(self, capsys):
        # box rejection (acceptance 1.5e-4) would run out of rounds here
        status, out, err = run_cli(capsys, "geom-check", "--n", "6",
                                   "--mc-count", "100", "--triples", "100")
        assert status == EXIT_OK
        assert all(row["all_pass"] for row in json.loads(out)["results"])

    def test_volume_z_of_3_32_passes(self, capsys):
        # a correct run: the 5-sigma band admits it, where a 3-sigma one did not
        doc = run_json(capsys, "geom-check", "--n", "1", "--seed", "565", "--triples", "100")
        assert 3.3 < doc["results"][0]["checks"][-1]["statistic"] < 5.0

    def test_seed_is_taken_mod_2_64(self, capsys):
        argv = ("geom-check", "--n", "1", "--triples", "100", "--mc-count", "1000", "--seed")
        wrapped = run_json(capsys, *argv, "-1")["results"]
        assert wrapped == run_json(capsys, *argv, str(2**64 - 1))["results"]

    def test_volume_expectations(self, capsys):
        doc = run_json(capsys, "geom-check", "--n", "1", "--triples", "1000",
                       "--mc-count", "200000", "--seed", "1")
        row = doc["results"][0]
        assert abs(row["mc_volume_expected"] - math.pi**2 / 2.0) < 1e-12


class TestConfigHandling:
    def test_unknown_kind_exits_2(self, capsys):
        status, out, err = run_cli(capsys, "constants", "--kind", "nope")
        assert status == EXIT_CONFIG
        assert "invalid configuration" in err

    @pytest.mark.parametrize("argv, hh_seed", [
        (("constants", "--p", "1"), None),
        (("apply", "--radii", "nan"), None),
        (("apply", "--function", "power:1,c=inf"), None),
        (("constants", "--kind", "whardy", "--weight", "power:c=1,beta=nan"), None),
        (("constants", "--rel-tol", "0"), None),
        (("constants", "--rel-tol", "inf"), None),
        (("constants", "--n", "0"), None),
        (("constants", "--n", "160", "--pbar1", "4"), None),
        (("constants", "--n", "400"), None),
        (("constants", "--rel-tol", "abc"), None),
        (("geom-check", "--triples", "x"), None),
        (("constants", "--format", "xml"), None),
        (("constants", "--no-such-flag"), None),
        (("constants", "--n", "1.5"), None),
        (("constants", "--n", ""), None),
        (("constants", "--pbar2", "0.5"), None),
        (("constants", "--pbar1", "0.5"), None),
        (("constants", "--rel-tol", "nan"), None),
        (("constants", "--seed", "1.5"), None),
        (("constants", "--abs-tol", "-1"), None),
        (("geom-check", "--mc-count", "0"), None),
        (("verify-sharp", "--trials", "0"), None),
        (("verify-sharp", "--eps-grid", "1.5"), None),
        (("geom-check", "--triples", "0"), None),
        (("geom-check", "--p", "2"), None),
        (("constants", "--kind", "w-hardy"), None),
        (("constants", "--weight", "gauss:1"), None),
        (("constants", "--weight", "power:d=1"), None),
        (("constants", "--seed", "x"), None),
        (("constants",), "x"),
        # a flag the subcommand's handler never reads
        (("apply", "--p", "7"), None),
        (("apply", "--pbar1", "3"), None),
        (("apply", "--pbar2", "3"), None),
        (("apply", "--mc-count", "5"), None),
        (("norm", "--kind", "dual-hardy"), None),
        (("norm", "--weight", "power:beta=7"), None),
        (("norm", "--pbar2", "9"), None),
        (("norm", "--mc-count", "5"), None),
        (("constants", "--mc-count", "5"), None),
        (("verify-sharp", "--mc-count", "5"), None),
        # a spec token the grammar does not read: a key the family lacks, a
        # key set twice, a bare number beside the key it sets
        (("norm", "--function", "power:-3,lo=1,hii=5"), None),
        (("norm", "--function", "exp:1,lo=2"), None),
        (("norm", "--function", "power:-3,lo=1,lo=2"), None),
        (("norm", "--function", "power:1,2"), None),
        (("norm", "--function", "exp:1,rate=2"), None),
        (("constants", "--weight", "power:c=1,beta=2,3"), None),
        (("constants", "--weight", "power:2,beta=3"), None),
        (("apply", "--function", "gauss:1"), None),
        (("apply", "--function", "power:d=1"), None),
        (("apply", "--function", "power"), None),
        (("apply", "--function", "exp"), None),
        (("constants", "--weight", "power"), None),
        # a family given without the parameter it needs
        (("norm", "--function", "power:lo=1"), None),
        (("apply", "--function", "exp:alpha=1"), None),
        # values the library constructors reject
        (("constants", "--weight", "power:c=0"), None),
        (("apply", "--function", "power:1,lo=2,hi=1"), None),
        (("apply", "--function", "exp:0"), None),
        (("apply", "--radii", "0"), None),
        (("constants", "--p", "abc"), None),
    ], ids=["p-1", "radii-nan", "function-c-inf", "weight-beta-nan", "rel-tol-0", "rel-tol-inf",
            "n-0", "n-160", "n-400", "rel-tol-abc", "triples-x", "format-xml", "unknown-flag",
            "n-1.5", "n-empty", "pbar2-0.5", "pbar1-0.5", "rel-tol-nan", "seed-1.5",
            "abs-tol-negative", "mc-count-0", "trials-0",
            "eps-grid-1.5", "triples-0", "geom-check-p", "kind-w-hardy", "weight-gauss",
            "weight-unknown-parameter", "seed-x", "hh-seed-x",
            "apply-p", "apply-pbar1", "apply-pbar2", "apply-mc-count", "norm-kind",
            "norm-weight", "norm-pbar2", "norm-mc-count", "constants-mc-count",
            "verify-sharp-mc-count", "function-unknown-key", "function-other-family-key",
            "function-key-twice", "function-bare-twice", "function-bare-and-key",
            "weight-key-and-bare", "weight-bare-and-key", "function-gauss",
            "function-unknown-parameter", "function-power", "function-exp", "weight-no-colon",
            "function-power-no-alpha", "function-exp-no-rate",
            "weight-c-0", "function-lo-above-hi", "function-exp-rate-0", "radii-0", "p-abc"])
    def test_bad_exponent_exits_2(self, argv, hh_seed, capsys, monkeypatch):
        if hh_seed is None:
            monkeypatch.delenv("HH_SEED", raising=False)
        else:
            monkeypatch.setenv("HH_SEED", hh_seed)
        status, out, err = run_cli(capsys, *argv)
        assert status == EXIT_CONFIG
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "invalid configuration"
        # every reason names one of the flags given; HH_SEED is the default of --seed
        names = [f"argument {a}: " for a in argv if a.startswith("--")] or ["argument --seed: "]
        assert doc["reason"].startswith((*names, "unrecognized arguments: "))

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        every = {"-h", "--help", "--rel-tol", "--abs-tol", "--seed", "--format", "--out"}
        grid = {"--n", "--p", "--pbar1", "--pbar2", "--kind", "--weight"}
        want = {
            "constants": grid,
            "verify-sharp": grid | {"--eps-grid", "--trials"},
            "apply": {"--n", "--kind", "--weight", "--function", "--radii"},
            "norm": {"--n", "--p", "--pbar1", "--function"},
            "geom-check": {"--n", "--mc-count", "--triples"},
        }
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        got = {name: {s for a in p._actions for s in a.option_strings}
               for name, p in sub.choices.items()}
        assert got == {name: flags | every for name, flags in want.items()}

    def test_bad_eps_grid_exits_2(self, capsys):
        status, _, err = run_cli(capsys, "verify-sharp", "--eps-grid", "0.01,0.1")
        assert status == EXIT_CONFIG

    def test_bad_function_exits_2(self, capsys):
        status, _, err = run_cli(capsys, "apply", "--function", "sinc:1")
        assert status == EXIT_CONFIG
        assert json.loads(err)["error"] == "invalid configuration"

    def test_hh_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_SEED", "777")
        doc = run_json(capsys, "constants", "--kind", "hardy")
        assert doc["provenance"]["seed"] == 777

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HH_SEED", "777")
        doc = run_json(capsys, "constants", "--kind", "hardy", "--seed", "5")
        assert doc["provenance"]["seed"] == 5


class TestConfigEcho:
    VALUES = {
        "kinds": ["hardy"], "n": [1], "p": [2.0], "pbar1": [2.0], "pbar2": [2.0],
        "weight": {"family": "power", "c": 1.0, "beta": 0.0},
        "eps_grid": [0.1, 0.03, 0.01, 0.003, 0.001], "rel_tol": 1e-8, "abs_tol": 1e-14,
        "mc_count": 100000, "trials": 20, "triples": 100000, "seed": 0, "radii": [1.0],
        "format": "json",
    }
    # every report echoes these, plus the dests of its subcommand's own flags
    EVERY = ("command", "rel_tol", "abs_tol", "seed", "format")
    GRID = ("n", "p", "pbar1", "pbar2", "kinds", "weight")
    KEYS = {
        "constants": GRID,
        "verify-sharp": GRID + ("eps_grid", "trials"),
        "apply": ("n", "kinds", "weight", "function", "radii"),
        "norm": ("n", "p", "pbar1", "function"),
        "geom-check": ("n", "mc_count", "triples"),
    }

    @pytest.fixture
    def stubbed(self, monkeypatch):
        monkeypatch.delenv("HH_SEED", raising=False)
        for name in ("cmd_constants", "cmd_verify_sharp", "cmd_apply", "cmd_norm", "cmd_geom_check"):
            monkeypatch.setattr(cli, name, lambda cfg: ({"results": []}, EXIT_OK))

    # function: the subcommand's --function default, or "zero" where it takes
    # no --function and the echo leaves the key out
    @pytest.mark.parametrize("command, function", [
        ("constants", "zero"), ("verify-sharp", "zero"), ("apply", "power:1"),
        ("norm", "exp:1"), ("geom-check", "zero"),
    ])
    def test_defaults_echoed_without_flags(self, command, function, capsys, stubbed):
        echo = run_json(capsys, command)["config"]
        values = {**self.VALUES, "command": command, "function": function}
        want = {k: values[k] for k in self.EVERY + self.KEYS[command]}
        assert json.dumps(echo, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_echo_keys_are_the_subcommand_dests(self, command, capsys, stubbed):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "out"}
        assert set(run_json(capsys, command)["config"]) == dests | {"command"}

    def test_triples_echoed(self, capsys, stubbed):
        echo = run_json(capsys, "geom-check", "--triples", "7")["config"]
        assert echo["triples"] == 7


class TestCsvOutput:
    @pytest.mark.parametrize("argv", [
        ("constants", "--kind", "hardy,whardy"),
        ("norm", "--function", "exp:1", "--p", "2,3"),
        ("apply", "--kind", "hardy,dual-hardy", "--function", "power:-10", "--radii", "2,3"),
    ], ids=["constants", "norm", "apply-with-divergent-row"])
    def test_flat_rows_match_json(self, argv, capsys):
        results = run_json(capsys, *argv)["results"]
        status, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert status == EXIT_OK
        got = csv_rows(out)
        assert set(got[0]) == {k for row in results for k in row}
        text = lambda v: "" if v is None else str(v)  # noqa: E731
        assert got == [{k: text(row.get(k)) for k in got[0]} for row in results]

    def test_geom_check_prints_one_row_per_check(self, capsys):
        argv = ("geom-check", "--n", "1,2", "--triples", "100", "--mc-count", "1000")
        results = run_json(capsys, *argv)["results"]
        status, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert status == EXIT_OK
        assert csv_rows(out) == [{"n": str(row["n"]), **{k: str(v) for k, v in check.items()}}
                                 for row in results for check in row["checks"]]


class TestReproducibility:
    def test_byte_identical_reports(self, capsys):
        args = ("verify-sharp", "--kind", "hardy", "--eps-grid", "0.1,0.01",
                "--trials", "2", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        status, out, _ = run_cli(capsys, "constants", "--kind", "hardy",
                                 "--out", str(path))
        assert status == EXIT_OK
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["results"][0]["constant"] == 2.0

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        status, out, err = run_cli(capsys, "constants", "--out", str(path))
        assert status == EXIT_CONFIG
        assert out == ""
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "invalid configuration"
        assert doc["reason"].startswith("argument --out: ")


class TestSpecParsers:
    def test_weight_spec_forms(self):
        assert parse_weight_spec("power:c=2,beta=3") == (2.0, 3.0)
        assert parse_weight_spec("power:2") == (1.0, 2.0)
        with pytest.raises(Exception):
            parse_weight_spec("gauss:1")

    def test_function_spec_mixture(self):
        f = parse_function_spec("power:-3,lo=1+exp:2,alpha=1")
        assert abs(f.eval(0.5) - 0.5 * math.exp(-1.0)) < 1e-15
        assert abs(f.eval(2.0) - (2.0**-3 + 2.0 * math.exp(-4.0))) < 1e-14

    def test_function_spec_zero(self):
        assert parse_function_spec("zero").is_zero

    def test_exponent_plus_does_not_split_parts(self, capsys):
        argv = ("apply", "--function", "power:-3,lo=1e+2+exp:2", "--radii", "150")
        want = ("apply", "--function", "power:-3,lo=100+exp:2", "--radii", "150")
        assert run_json(capsys, *argv)["results"] == run_json(capsys, *want)["results"]


# --- the spec grammar as a property ---------------------------------------------

PARSERS = {"function": parse_function_spec, "weight": cli._weight}
# values each parameter may take in a valid spec; repr writes some as 1e+22
VALUES = {
    "alpha": st.floats(-20.0, 20.0), "beta": st.floats(-20.0, 20.0),
    "lo": st.floats(0.0, 2.0), "hi": st.floats(3.0, 1e30),
    "c": st.floats(1e-3, 1e3), "rate": st.floats(1e-3, 1e3),
}
RADII = np.array([0.3, 1.0, 2.5, 7.0])


@st.composite
def spec_parts(draw, spec):
    """(family, the values set, its text): each required key and some optional
    ones, in any order, the bare key sometimes written as a bare number."""
    family = draw(st.sampled_from([f for s, f in cli._FAMILIES if s == spec]))
    params = cli._FAMILIES[spec, family]
    bare = next(iter(params))
    keys = draw(st.permutations([k for k, v in params.items() if v is None or draw(st.booleans())]))
    values = {k: draw(VALUES[k]) for k in keys}
    tokens = [repr(values[k]) if k == bare and draw(st.booleans()) else f"{k}={values[k]!r}"
              for k in keys]
    return family, values, f"{family}:{','.join(tokens)}"


def built(family, v):
    """The profile a function part names, built from the library directly."""
    if family == "power":
        return power_profile(v["alpha"], v.get("c", 1.0), (v.get("lo", 0.0), v.get("hi", math.inf)))
    return exp_profile(v["rate"], v.get("alpha", 0.0), v.get("c", 1.0))


class TestSpecGrammar:
    @pytest.mark.parametrize("spec", sorted(PARSERS))
    @given(text=st.text("powerexzbtaclhinfd0123456789.+-eE:,= ", max_size=40))
    def test_any_text_parses_or_raises_value_error(self, spec, text):
        try:
            PARSERS[spec](text)
        except ValueError:
            pass

    @given(st.lists(spec_parts("function"), min_size=1, max_size=3))
    def test_valid_function_spec_is_the_profile_it_names(self, parts):
        got = parse_function_spec("+".join(text for _, _, text in parts))
        want = mixture_profile([built(family, v) for family, v, _ in parts])
        assert got.eval(RADII).tobytes() == want.eval(RADII).tobytes()

    @given(spec_parts("weight"))
    def test_valid_weight_spec_is_the_weight_it_names(self, part):
        _, v, text = part
        assert cli._weight(text) == {"family": "power", "c": v.get("c", 1.0),
                                     "beta": v.get("beta", 0.0)}

    @pytest.mark.parametrize("spec", sorted(PARSERS))
    @given(data=st.data())
    def test_unknown_or_repeated_key_is_rejected(self, spec, data):
        family, values, text = data.draw(spec_parts(spec))
        params = cli._FAMILIES[spec, family]
        unknown = data.draw(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5)
                            .filter(lambda k: k not in params))
        with pytest.raises(ValueError):
            PARSERS[spec](f"{text},{unknown}=1")
        if values:
            key = data.draw(st.sampled_from(sorted(values)))
            with pytest.raises(ValueError):
                PARSERS[spec](f"{text},{key}=1")
        if next(iter(params)) in values:
            with pytest.raises(ValueError):
                PARSERS[spec](f"{text},1")
