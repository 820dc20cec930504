"""The four benchmark workloads: inputs, operations and output checks.

Each workload is built from the workload seed alone.  Building it is the
set-up that ``setup_s`` times: importing heishardy and constructing the
spaces, queries and constants.  Its operations are grouped in rounds; round
``r`` is a pure function of ``(seed, r)``, and a run executes whole rounds,
so every run sees the same mix of operations.  ``prepare_checks`` loads the
independent references (the closed forms and QUADPACK oracles of
``tests/_oracles.py``, read-only, plus scipy special functions).

Checks run after the timed loop, once the peak memory of the loop has been
read, so the references never count in it; an operation may ``reduce`` a
large output to a small summary right after it returns (outside the timed
region) so that outputs held for checking stay small too.

An operation's check returns an ``Outcome``: whether the output is correct,
how many of its reported error bars cover the deviation from an independent
reference (and how many could be tested), and a canonical text of its
numeric output for the repeatability digest.  Statistical checks use five
standard errors, so a correct program misses one with probability below
1e-6 per check, whatever seed the benchmark is given.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import clihook

KINDS = (  # (operator tag, power-weight exponent beta or None)
    ("hardy", None),
    ("dual_hardy", None),
    ("weighted_hardy", 3.0),
    ("weighted_cesaro", 4.0),
)
NS = (1, 2)
PS = (2.0, 5.0)
EPS = (1e-2, 1e-3)
ORACLE_RTOL = 1e-6  # Tier-1 relative tolerance for oracle comparisons
N_SIGMA = 5.0


def derive(seed: int, *keys) -> int:
    """A 62-bit integer that depends only on the seed and the keys."""
    text = json.dumps([seed, *keys])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 2


@dataclass
class Outcome:
    ok: bool
    covered: int
    coverable: int
    record: str


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    reduce: Callable[[Any], Any] | None = None


def load_oracles(root: Path):
    """Import tests/_oracles.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_oracles", root / "tests" / "_oracles.py")
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def _extremal_oracle(oracles, tag: str, beta: float | None, q: float, p: float, eps: float) -> float:
    if tag == "hardy":
        return oracles.hardy_extremal_ratio(q, p, eps)
    if tag == "dual_hardy":
        return oracles.dual_hardy_extremal_ratio(q, p, eps)
    if tag == "weighted_hardy":
        return oracles.weighted_hardy_extremal_ratio(q, p, eps, beta)
    return oracles.weighted_cesaro_extremal_ratio(q, p, eps, beta)


def _close(value: float, want: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - want) <= rtol * abs(want)


def _queries(spec):
    """(tag, beta, n, p, query, constant) for the 16 kind x n x p configs."""
    from heishardy.geometry import heis_space
    from heishardy.mixed_norm import MixedExponents
    from heishardy.operators import OperatorKind, power_weight
    from heishardy.sharp_constants import SharpConstantQuery, theoretical_constant

    spaces = {n: heis_space(n) for n in NS}
    out = []
    for tag, beta in KINDS:
        kind = OperatorKind(tag, None if beta is None else power_weight(1.0, beta))
        for n in NS:
            for p in PS:
                query = SharpConstantQuery(kind, MixedExponents(p, 2.0, 2.0), spaces[n])
                out.append((tag, beta, n, p, query, theoretical_constant(query, spec)))
    return out


# --- extremal -------------------------------------------------------------


class Extremal:
    """extremal_ratio over 4 kinds x n in {1,2} x p in {2,5} x eps in {1e-2,1e-3}.

    Tight-tolerance nested refinement dominates (default spec, rel_tol 1e-8).
    A round is the whole 32-ratio grid in a seed-shuffled order, so every
    run covers every ratio, including the one whose error estimate is known
    not to cover its deviation from the oracle.
    """

    name = "extremal"
    in_children = False

    def __init__(self, root: Path, seed: int, smoke: bool):
        import heishardy.sharp_constants
        from heishardy.quadrature import QuadratureSpec

        self.seed = seed
        self.spec = QuadratureSpec()
        self.api = heishardy.sharp_constants
        self.grid = [(tag, beta, n, p, eps, query, const)
                     for tag, beta, n, p, query, const in _queries(self.spec)
                     for eps in EPS]
        if smoke:
            self.grid = [g for g in self.grid if g[2] == 1 and g[3] == 2.0 and g[4] == 1e-2
                         and g[0] in ("hardy", "weighted_cesaro")]
        self.min_ops = len(self.grid)
        self.root = root

    def prepare_checks(self) -> None:
        oracles = load_oracles(self.root)
        self.want = {(tag, n, p, eps): _extremal_oracle(oracles, tag, beta, query.space.q, p, eps)
                     for tag, beta, n, p, eps, query, _ in self.grid}

    def _op(self, entry) -> Op:
        tag, beta, n, p, eps, query, const = entry

        def check(rep) -> Outcome:
            want = self.want[(tag, n, p, eps)]
            dev = abs(rep.ratio - want)
            ok = (_close(rep.ratio, want, ORACLE_RTOL)
                  and _close(rep.constant, const, 1e-14)
                  and math.isfinite(rep.error_estimate) and rep.error_estimate >= 0.0)
            covered = int(dev <= rep.error_estimate * abs(rep.ratio))
            record = f"{tag} {n} {p} {eps} {rep.ratio!r} {rep.error_estimate!r} {rep.constant!r}"
            return Outcome(ok, covered, 1, record)

        return Op(f"{tag} n={n} p={p:g} eps={eps:g}",
                  lambda: self.api.extremal_ratio(query, eps, self.spec), check)

    def round(self, r: int) -> list[Op]:
        order = random.Random(derive(self.seed, "extremal", r)).sample(self.grid, len(self.grid))
        return [self._op(e) for e in order]

    def trace_ops(self) -> list[Op]:
        """One ratio per kind, with (n, p, eps) drawn from the seed."""
        rng = random.Random(derive(self.seed, "extremal-trace"))
        picks = []
        for tag, _ in KINDS:
            cands = [e for e in self.grid if e[0] == tag]
            if cands:
                picks.append(rng.choice(cands))
        return [self._op(e) for e in picks]


# --- probe ----------------------------------------------------------------


class Probe:
    """upper_bound_probe trials at the loose (1e-4, 1e-8) spec, 16 configs.

    Inputs are random 2-3 part mixtures with support masks and breakpoints,
    so profile evaluation rather than panel refinement takes the largest
    share of time.  One operation is one trial; a round runs TRIALS trials of
    every config with seeds drawn from (seed, round, config, trial).
    """

    name = "probe"
    in_children = False
    TRIALS = 2

    def __init__(self, root: Path, seed: int, smoke: bool):
        import heishardy.sharp_constants
        from heishardy.quadrature import QuadratureSpec

        self.seed = seed
        self.spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
        self.api = heishardy.sharp_constants
        self.configs = _queries(self.spec)
        if smoke:
            self.configs = [c for c in self.configs if c[2] == 1 and c[3] == 2.0
                            and c[0] in ("hardy", "dual_hardy")]
        self.min_ops = 2 * self.TRIALS * len(self.configs)

    def prepare_checks(self) -> None:
        pass

    def _op(self, entry, trial_seed: int, trial: int) -> Op:
        tag, _, n, p, query, const = entry

        def check(rep) -> Outcome:
            sandwich = rep.ratio <= const * (1.0 + 1e-6 + rep.error_estimate)
            ok = (math.isfinite(rep.ratio) and rep.ratio > 0.0 and sandwich
                  and _close(rep.constant, const, 1e-14))
            record = f"{tag} {n} {p} {trial_seed} {rep.ratio!r} {rep.error_estimate!r}"
            return Outcome(ok, int(sandwich), 1, record)

        return Op(f"{tag} n={n} p={p:g} seed={trial_seed} trial={trial}",
                  lambda: self.api.upper_bound_probe(query, trials=1, seed=trial_seed, spec=self.spec),
                  check)

    def round(self, r: int) -> list[Op]:
        pairs = [(i, k) for i in range(len(self.configs)) for k in range(self.TRIALS)]
        pairs = random.Random(derive(self.seed, "probe", r)).sample(pairs, len(pairs))
        return [self._op(self.configs[i], derive(self.seed, "probe", r, i, k), k) for i, k in pairs]

    def trace_ops(self) -> list[Op]:
        """One trial of every config."""
        return [self._op(c, derive(self.seed, "probe", 0, i, 0), 0) for i, c in enumerate(self.configs)]


# --- sampling -------------------------------------------------------------

# at n = 6 a batch of 100 fails with probability 1 - 1e-11 (box acceptance 1.5e-4)
SAMPLE_COUNTS = {1: 20_000, 2: 20_000, 3: 5_000, 4: 1_000, 5: 100, 6: 100}
GEOMETRY_TRIPLES = 20_000
REFERENCE_POINTS = 100_000


def _gauge(x):
    import numpy as np

    n = (x.shape[-1] - 1) // 2
    horiz = np.sum(x[:, : 2 * n] ** 2, axis=1)
    return (horiz**2 + x[:, 2 * n] ** 2) ** 0.25


def exact_sphere_points(rng, n: int, m: int):
    """Gauge-sphere points with the law of delta_{1/|x|} x, x uniform in the ball.

    Uses the exact ball sampler, independent of the package's rejection
    sampler: u = |z|^4 ~ Beta(n/2, 3/2), t uniform on [-sqrt(1-u), sqrt(1-u)],
    direction of z uniform on S^{2n-1}.
    """
    import numpy as np

    u = rng.beta(n / 2.0, 1.5, size=m)
    t = rng.uniform(-1.0, 1.0, size=m) * np.sqrt(1.0 - u)
    z = rng.standard_normal((m, 2 * n))
    z *= (u**0.25 / np.linalg.norm(z, axis=1))[:, None]
    rho = (u + t**2) ** 0.25
    return np.column_stack([z / rho[:, None], t / rho**2])


class Sampling:
    """Sampler, Monte Carlo norms and geometry kernels for n = 1..6.

    Almost no adaptive quadrature runs here.  Counts shrink with n so that no
    operation takes more than a few seconds; at n = 6 box rejection cannot
    fill a batch and every sampler-backed operation raises RuntimeError,
    which counts as a failed operation.
    """

    name = "sampling"
    in_children = False

    def __init__(self, root: Path, seed: int, smoke: bool):
        from heishardy.geometry import heis_space
        from heishardy.quadrature import QuadratureSpec, exp_profile

        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.spec = QuadratureSpec()
        self.ns = (1, 2) if smoke else tuple(SAMPLE_COUNTS)
        self.spaces = {n: heis_space(n) for n in (*self.ns, 6)}
        rng = random.Random(derive(seed, "sampling-inputs"))
        # separable test function per n: r^alpha e^{-rate r} times a positive angular part
        self.funcs = {}
        for n in self.ns:
            rate, alpha = rng.uniform(0.5, 2.5), rng.uniform(0.0, 1.0)
            a, b, k = rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), rng.randint(1, 3)
            self.funcs[n] = (rate, alpha, (a, b, k), exp_profile(rate, exponent=alpha))
        self.radius = rng.uniform(0.5, 2.0)
        self.min_ops = 3 * len(self.round(0))

    @staticmethod
    def _angular(params):
        import numpy as np

        a, b, k = params
        return lambda pts: 1.0 + a * np.sin(k * math.pi * pts[:, 0]) + b * np.tanh(pts[:, -1])

    def prepare_checks(self) -> None:
        import numpy as np

        oracles = load_oracles(self.root)
        self.lebesgue = {n: oracles.omega_closed_form(n) / 2.0 for n in self.spaces}
        self.omega_small = {n: (2 * n + 2) * oracles.omega_closed_form(n) for n in self.spaces}
        # reference angular moments E|h|^2 over the sphere law, from the exact sampler
        self.moment = {}
        for n in self.ns:
            rng = np.random.default_rng(derive(self.seed, "sampling-reference", n))
            vals = self._angular(self.funcs[n][2])(exact_sphere_points(rng, n, REFERENCE_POINTS)) ** 2
            self.moment[n] = (float(np.mean(vals)),
                              float(np.std(vals, ddof=1) / math.sqrt(len(vals))))

    def _count(self, n: int) -> int:
        if self.smoke:
            return 2_000 if n < 6 else SAMPLE_COUNTS[6]
        return SAMPLE_COUNTS[n]

    def _acceptance_ok(self, n: int, b: dict) -> bool:
        """The reported acceptance rate lies within 5 sigma of the exact volume ratio."""
        p = self.lebesgue[n] / 2.0 ** self.spaces[n].dim
        sigma = math.sqrt(p * (1.0 - p) / b["attempts"])
        return (b["attempts"] >= b["count"]
                and abs(b["acceptance_rate"] - b["count"] / b["attempts"]) <= 1e-15
                and abs(b["acceptance_rate"] - p) <= N_SIGMA * sigma)

    def _ops_for(self, n: int, r: int) -> list[Op]:
        # API calls go through the modules at call time, so traced wrappers apply
        import heishardy.geometry as geometry
        import heishardy.mixed_norm as mixed_norm
        import heishardy.quadrature as quadrature
        import numpy as np

        space, count = self.spaces[n], self._count(n)
        seeds = [derive(self.seed, "sampling", r, n, i) for i in range(5)]
        dim = space.dim

        def reduce_batch(batch) -> dict:
            gauge = _gauge(batch.coords)
            return {
                "shape": batch.coords.shape,
                "finite": bool(np.all(np.isfinite(batch.coords))),
                "gauge_max": float(np.max(gauge)),
                "gauge_dev": float(np.max(np.abs(gauge - 1.0))),
                "count": len(batch),
                "attempts": batch.attempts,
                "acceptance_rate": batch.acceptance_rate,
                "record": (f"{batch.kind} {len(batch)} {batch.attempts} "
                           f"{hashlib.sha256(batch.coords.tobytes()).hexdigest()}"),
            }

        def check_ball(b: dict) -> Outcome:
            ok = b["shape"] == (count, dim) and b["finite"] and b["gauge_max"] <= 1.0 + 1e-12
            cover = self._acceptance_ok(n, b)
            return Outcome(ok and cover, int(cover), 1, b["record"])

        def check_sphere(b: dict) -> Outcome:
            ok = b["shape"] == (count, dim) and b["finite"] and b["gauge_dev"] <= 1e-9
            cover = self._acceptance_ok(n, b)
            return Outcome(ok and cover, int(cover), 1, b["record"])

        ops = [
            Op(f"mc_ball_sample n={n}", lambda: quadrature.mc_ball_sample(space, count, seeds[0]),
               check_ball, reduce_batch),
            Op(f"mc_sphere_sample n={n}", lambda: quadrature.mc_sphere_sample(space, count, seeds[1]),
               check_sphere, reduce_batch),
        ]
        if n not in self.funcs:  # smoke runs keep only the failing sampler at n = 6
            return ops[:1]

        rate, alpha, params, radial = self.funcs[n]
        func = mixed_norm.SeparableFunction(radial=radial, angular=self._angular(params))
        p, pbar, q = 2.0, 2.0, space.q

        def check_norm(est) -> Outcome:
            mean, se_mean = self.moment[n]
            shape = p * alpha + q
            radial_factor = (math.gamma(shape) / (p * rate) ** shape) ** (1.0 / p)
            want = (self.omega_small[n] * mean) ** (1.0 / pbar) * radial_factor
            se_want = want * se_mean / (pbar * mean)
            cover = abs(est.value - want) <= N_SIGMA * math.hypot(est.stderr, se_want)
            ok = math.isfinite(est.value) and est.stderr > 0.0 and cover
            return Outcome(ok, int(cover), 1, f"norm {est.value!r} {est.stderr!r}")

        def check_radialization(chk) -> Outcome:
            agrees = chk.agrees(n_sigma=N_SIGMA)
            ok = agrees and math.isfinite(chk.quadrature_side) and chk.mc_stderr > 0.0
            record = f"radialization {chk.quadrature_side!r} {chk.mc_side!r} {chk.mc_stderr!r}"
            return Outcome(ok, int(agrees), 1, record)

        def check_geometry(rep) -> Outcome:
            exact_rows = all(row["pass"] for row in rep.rows() if row["check"] != "mc_volume_stderrs")
            cover = rep.mc_volume_stderrs <= N_SIGMA
            ok = (exact_rows and cover
                  and _close(rep.mc_volume_expected, self.lebesgue[n], 1e-12))
            record = (f"geometry {rep.max_associativity_error!r} {rep.max_inverse_error!r} "
                      f"{rep.max_gauge_homogeneity_relerr!r} {rep.max_left_invariance_relerr!r} "
                      f"{rep.triangle_violations} {rep.mc_volume_estimate!r} {rep.all_pass}")
            return Outcome(ok, int(cover), 1, record)

        triples = count if self.smoke else GEOMETRY_TRIPLES
        return ops + [
            Op(f"mixed_norm_separable n={n}",
               lambda: mixed_norm.mixed_norm_separable(func, p, pbar, space, self.spec,
                                                       mc_count=count, seed=seeds[2]),
               check_norm),
            Op(f"hardy_radialization_identity_check n={n}",
               lambda: mixed_norm.hardy_radialization_identity_check(
                   func, space, self.spec, mc_count=count, seed=seeds[3], radius=self.radius),
               check_radialization),
            Op(f"run_geometry_checks n={n}",
               lambda: geometry.run_geometry_checks(space, triples=triples, seed=seeds[4],
                                                    mc_count=count),
               check_geometry),
        ]

    def round(self, r: int) -> list[Op]:
        ops = [op for n in self.ns for op in self._ops_for(n, r)]
        if self.smoke:
            ops += self._ops_for(6, r)
        return ops

    def trace_ops(self) -> list[Op]:
        return self.round(0)


# --- cli ------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    seconds: tuple[float, float]  # raw and adjusted, see clihook.child_seconds


class Cli:
    """Fresh `heishardy` processes, one after another, each timing itself.

    Covers verify-sharp on a small grid, apply of all four kinds to
    pure-exponential inputs over many radii (the exponential-tail scan
    path), norm of the extremal profile f_eps, constants, and invalid
    configurations that must exit 2.
    """

    name = "cli"
    in_children = True

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.env = dict(os.environ)
        self.trace_sink: list | None = None  # set to collect traced-child summaries
        self.invocations = 0
        self.exit_unexpected = 0
        self.min_ops = 3 * len(self.round(0))

    def prepare_checks(self) -> None:
        from scipy import special

        oracles = load_oracles(self.root)
        self.oracles = oracles
        self.special = special

    # --- process ---------------------------------------------------------

    def _run(self, argv: list[str], expect: int) -> CliRun:
        traced = self.trace_sink is not None
        cmd = [sys.executable, str(Path(__file__).with_name("clihook.py")),
               *(["--trace"] if traced else []), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - start
        self.invocations += 1
        self.exit_unexpected += proc.returncode != expect
        report, stderr = clihook.split_report(proc.stderr)
        if traced and report is not None:
            self.trace_sink.append(report["trace"])
        return CliRun(proc.returncode, proc.stdout, stderr, clihook.child_seconds(wall, report))

    def _op(self, argv: list[str], expect: int, check_payload) -> Op:
        def check(run: CliRun) -> Outcome:
            record = f"{run.code}\n{run.stdout}"
            if run.code != expect:
                return Outcome(False, 0, 0, record)
            if expect == 2:
                try:
                    reason = json.loads(run.stderr.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    return Outcome(False, 0, 0, record)
                ok = run.stdout == "" and isinstance(reason, dict) and "error" in reason
                return Outcome(ok, 0, 0, record)
            try:
                payload = json.loads(run.stdout)
            except ValueError:
                return Outcome(False, 0, 0, record)
            if not all(k in payload for k in ("config", "results", "provenance")):
                return Outcome(False, 0, 0, record)
            ok, covered, coverable = check_payload(payload["results"])
            return Outcome(ok, covered, coverable, record)

        return Op(" ".join(argv[:1]), lambda: self._run(argv, expect), check)

    # --- reference values ------------------------------------------------

    def _omega_small(self, n: int) -> float:
        return (2 * n + 2) * self.oracles.omega_closed_form(n)

    def _apply_reference(self, tag: str, n: int, r: float, rate: float, alpha: float, beta: float) -> float:
        """Closed forms of the four operators on r^alpha e^{-rate r}."""
        sp = self.special
        q = 2.0 * n + 2.0
        if tag == "hardy":
            m = alpha + q
            return q * r**-q * rate**-m * sp.gamma(m) * sp.gammainc(m, rate * r)
        if tag == "dual_hardy":
            return q * rate**-alpha * sp.gamma(alpha) * sp.gammaincc(alpha, rate * r)
        if tag == "weighted_hardy":
            m = alpha + beta + 1.0
            return r**alpha * (rate * r) ** -m * sp.gamma(m) * sp.gammainc(m, rate * r)
        m = alpha - beta + q - 1.0
        return r ** (beta - q + 1.0) * rate**-m * sp.gamma(m) * sp.gammaincc(m, rate * r)

    # --- commands --------------------------------------------------------

    def _verify(self, seed: int, smoke: bool) -> Op:
        p, eps = (2.0, 0.1) if smoke else (5.0, 1e-3)
        kinds = ["hardy"] if smoke else ["hardy", "dual-hardy"]
        argv = ["verify-sharp", "--kind", ",".join(kinds), "--n", "1", "--p", f"{p:g}",
                "--eps-grid", f"{eps:g}", "--trials", "1", "--seed", str(seed)]
        if smoke:
            argv += ["--rel-tol", "1e-6"]

        def check(rows):
            ok = len(rows) == len(kinds)
            covered = coverable = 0
            for row in rows:
                ok = ok and row.get("verdict") == "bounded" and row["sandwich_ok"] and row["converged"]
                for entry in row["table"]:
                    if row["kind"] == "hardy":
                        want = self.oracles.hardy_extremal_ratio(4.0, p, entry["epsilon"])
                    else:
                        want = self.oracles.dual_hardy_extremal_ratio(4.0, p, entry["epsilon"])
                    ok = ok and _close(entry["ratio"], want, ORACLE_RTOL)
                    coverable += 1
                    covered += abs(entry["ratio"] - want) <= entry["error_estimate"] * abs(entry["ratio"])
            return ok, covered, coverable

        return self._op(argv, 0, check)

    def _apply(self, kinds: list[str], rate: float, alpha: float, radii: list[float], beta: float) -> Op:
        ns = [1, 2]
        cli_kinds = {"hardy": "hardy", "dual_hardy": "dual-hardy",
                     "weighted_hardy": "whardy", "weighted_cesaro": "wcesaro"}
        argv = ["apply", "--kind", ",".join(cli_kinds[k] for k in kinds), "--n", "1,2",
                "--weight", f"power:c=1,beta={beta:g}",
                "--function", f"exp:{rate!r},alpha={alpha!r}",
                "--radii", ",".join(repr(r) for r in radii)]

        def check(rows):
            ok = len(rows) == len(kinds) * len(ns) * len(radii)
            for row in rows:
                want = self._apply_reference(row["kind"], row["n"], row["r"], rate, alpha, beta)
                ok = ok and _close(row.get("value", math.nan), want, ORACLE_RTOL)
            return ok, 0, 0

        return self._op(argv, 0, check)

    def _norm(self, n: int, p: float, eps: float) -> Op:
        q = 2.0 * n + 2.0
        alpha = -(q / p + eps)
        argv = ["norm", "--function", f"power:{alpha!r},lo=1", "--n", str(n),
                "--p", f"{p:g}", "--pbar1", "2"]

        def check(rows):
            # ||f_eps|| = omega_small^{1/2} (int_1^inf r^{-p eps - 1} dr)^{1/p}
            want = math.sqrt(self._omega_small(n)) * (1.0 / (p * eps)) ** (1.0 / p)
            ok = len(rows) == 1 and rows[0]["verdict"] == "finite" and _close(rows[0]["norm"], want, ORACLE_RTOL)
            return ok, 0, 0

        return self._op(argv, 0, check)

    def _constants(self, beta: float, ns: list[int], ps: list[float]) -> Op:
        argv = ["constants", "--kind", "hardy,dual-hardy,whardy,wcesaro",
                "--n", ",".join(map(str, ns)), "--p", ",".join(f"{p:g}" for p in ps),
                "--weight", f"power:c=1,beta={beta:g}"]

        def want(tag, n, p):
            q = 2.0 * n + 2.0
            s = {"hardy": None, "dual_hardy": None,
                 "weighted_hardy": beta + 1.0 - q / p,
                 "weighted_cesaro": beta + 1.0 - q * (1.0 - 1.0 / p)}[tag]
            if tag == "hardy":
                return p / (p - 1.0)
            if tag == "dual_hardy":
                return p
            return 1.0 / s if s > 0 else None

        def check(rows):
            ok = len(rows) == 4 * len(ns) * len(ps)
            for row in rows:
                w = want(row["kind"], row["n"], row["p"])
                if w is None:
                    ok = ok and row["verdict"] == "unbounded" and row["constant"] is None
                else:
                    ok = ok and row["verdict"] == "bounded" and _close(row["constant"], w, 1e-12)
            return ok, 0, 0

        return self._op(argv, 0, check)

    INVALID = (
        ["constants", "--p", "1"],
        ["apply", "--function", "bogus:1"],
        ["verify-sharp", "--eps-grid", "0.01,0.1"],
        ["norm", "--n", "0"],
        ["apply", "--radii", "1,-1"],
    )

    def round(self, r: int) -> list[Op]:
        rng = random.Random(derive(self.seed, "cli", r))
        rate = round(rng.uniform(0.5, 2.0), 6)
        alpha = round(rng.uniform(0.5, 1.5), 6)
        r0 = rng.uniform(0.04, 0.06)
        n_radii = 4 if self.smoke else 32
        radii = [round(r0 * 1.2**i, 6) for i in range(n_radii)]
        verify_seed = derive(self.seed, "cli-verify", r) % 2**31
        if self.smoke:
            return [self._verify(verify_seed, True),
                    self._apply(["hardy", "dual_hardy"], rate, alpha, radii, 3.0),
                    self._constants(4.0, [1], [2.0]),
                    self._op(list(self.INVALID[0]), 2, None)]
        eps1, eps2 = (round(rng.uniform(1e-3, 1e-2), 6) for _ in range(2))
        return [
            self._verify(verify_seed, False),
            self._apply(["hardy", "weighted_hardy"], rate, alpha, radii, 3.0),
            self._apply(["dual_hardy", "weighted_cesaro"], rate, alpha, radii, 3.0),
            self._norm(1, 2.0, eps1),
            self._norm(2, 5.0, eps2),
            self._constants(4.0, [1, 2], [2.0, 5.0]),
            self._constants(3.0, [2], [5.0]),  # wcesaro is unbounded here
            *(self._op(list(argv), 2, None) for argv in self.INVALID),
        ]

    def trace_ops(self) -> list[Op]:
        return self.round(0)


WORKLOADS = {cls.name: cls for cls in (Extremal, Probe, Sampling, Cli)}
