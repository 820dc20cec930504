"""Command-line front end with reproducible, machine-readable reports.

Subcommands
-----------
constants     table of sharp operator-norm constants over a parameter grid
verify-sharp  extremal-family convergence tables plus randomized upper-bound
              probes, with pass/fail exit status
apply         evaluate an operator on a named radial function at given radii
norm          mixed radial-angular norm of a named radial function
geom-check    randomized verification of the group geometry and gauge metric

Every report carries a provenance block (config echo, seed, tolerances,
package version) and is byte-identical across runs with the same
configuration.  Exit status: 0 success, 2 invalid configuration, 3 numeric
check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

from . import __version__
from .geometry import heis_space, run_geometry_checks
from .mixed_norm import MixedExponents, radial_norm_with_error
from .operators import OperatorKind, apply_operator, power_weight
from .quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotReachedError,
    exp_profile,
    mixture_profile,
    power_profile,
    zero_profile,
)
from .sharp_constants import (
    DEFAULT_EPS_GRID,
    SharpConstantQuery,
    SharpnessViolationError,
    UnboundedOperatorError,
    check_eps_grid,
    convergence_table,
    theoretical_constant,
    upper_bound_probe,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_KIND_ALIASES = {
    "hardy": "hardy",
    "dual-hardy": "dual_hardy",
    "dual_hardy": "dual_hardy",
    "whardy": "weighted_hardy",
    "weighted-hardy": "weighted_hardy",
    "weighted_hardy": "weighted_hardy",
    "wcesaro": "weighted_cesaro",
    "weighted-cesaro": "weighted_cesaro",
    "weighted_cesaro": "weighted_cesaro",
}


class ConfigError(ValueError):
    """Invalid run configuration; rendered as a machine-readable reason."""


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    kinds: list[str] = field(default_factory=lambda: ["hardy"])
    ns: list[int] = field(default_factory=lambda: [1])
    ps: list[float] = field(default_factory=lambda: [2.0])
    pbar1s: list[float] = field(default_factory=lambda: [2.0])
    pbar2s: list[float] = field(default_factory=lambda: [2.0])
    weight_c: float = 1.0
    weight_beta: float = 0.0
    eps_grid: list[float] = field(default_factory=lambda: list(DEFAULT_EPS_GRID))
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    mc_count: int = 100_000
    trials: int = 20
    triples: int = 100_000
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    function: str = "zero"
    radii: list[float] = field(default_factory=lambda: [1.0])

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def weight(self):
        return power_weight(self.weight_c, self.weight_beta)

    def kind(self, tag: str) -> OperatorKind:
        return OperatorKind(tag, self.weight() if tag.startswith("weighted") else None)

    def echo(self) -> dict:
        return {
            "command": self.command,
            "kinds": self.kinds,
            "n": self.ns,
            "p": self.ps,
            "pbar1": self.pbar1s,
            "pbar2": self.pbar2s,
            "weight": {"family": "power", "c": self.weight_c, "beta": self.weight_beta},
            "eps_grid": self.eps_grid,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "mc_count": self.mc_count,
            "trials": self.trials,
            "seed": self.seed,
            "function": self.function,
            "radii": self.radii,
            "format": self.fmt,
        }


def _checked(build: Callable, *args):
    """Call a library constructor or checker; its ValueError becomes a ConfigError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_float(text: str, what: str) -> float:
    """The one CLI number parser: a finite float, else ConfigError."""
    try:
        val = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return val


def _parse_float_list(text: str, name: str) -> list[float]:
    vals = [_parse_float(tok, name) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ConfigError(f"{name} is empty")
    return vals


def _parse_int_list(text: str, name: str) -> list[int]:
    vals = _parse_float_list(text, name)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"{name} must contain integers, got {vals}")
    return [int(v) for v in vals]


def _parse_params(rest: str, what: str) -> tuple[float | None, dict[str, float]]:
    """'MAIN,key=val,...' as (the last bare number or None, {key: val})."""
    main: float | None = None
    kv: dict[str, float] = {}
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, eq, val = tok.partition("=")
        if eq:
            kv[key.strip()] = _parse_float(val, f"{what} parameter {tok!r}")
        else:
            main = _parse_float(tok, f"{what} spec token")
    return main, kv


def parse_weight_spec(text: str) -> tuple[float, float]:
    """Parse 'power:c=1,beta=2' (a bare number after the colon sets beta)."""
    if ":" not in text:
        raise ConfigError(f"weight spec {text!r} must look like power:c=1,beta=2")
    family, _, rest = text.partition(":")
    if family.strip() != "power":
        raise ConfigError(f"only power-law weights are supported, got {family!r}")
    main, kv = _parse_params(rest, "weight")
    unknown = sorted(kv.keys() - {"c", "beta"})
    if unknown:
        raise ConfigError(f"unknown weight parameter {unknown[0]!r}")
    return kv.get("c", 1.0), kv.get("beta", 0.0 if main is None else main)


def parse_function_spec(text: str) -> RadialProfile:
    """Parse a radial function description.

    Grammar: parts joined by '+'; each part is 'power:ALPHA[,lo=..,hi=..,c=..]',
    'exp:RATE[,alpha=..,c=..]', or 'zero'.  Example:
    'power:-3,lo=1+exp:2,alpha=1'.
    """
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "zero":
            continue
        name, _, rest = chunk.partition(":")
        name = name.strip()
        main, kv = _parse_params(rest, "function")
        if name == "power":
            alpha = kv.get("alpha", main)
            if alpha is None:
                raise ConfigError(f"power part needs an exponent: {chunk!r}")
            support = (kv.get("lo", 0.0), kv.get("hi", math.inf))
            parts.append(_checked(power_profile, alpha, kv.get("c", 1.0), support))
        elif name == "exp":
            rate = kv.get("rate", main)
            if rate is None:
                raise ConfigError(f"exp part needs a rate: {chunk!r}")
            parts.append(_checked(exp_profile, rate, kv.get("alpha", 0.0), kv.get("c", 1.0)))
        else:
            raise ConfigError(f"unknown function part {name!r} (expected power | exp | zero)")
    if not parts:
        return zero_profile()
    return mixture_profile(parts)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections are ConfigErrors, not usage text and exit."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="heishardy",
        description="Hardy-type operators and sharp-constant verification on Heisenberg groups",
    )
    ap.add_argument("--version", action="version", version=f"heishardy {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_exps: bool = True) -> None:
        p.add_argument("--n", default="1", help="comma list of group indices n >= 1")
        if with_exps:
            p.add_argument("--p", default="2", help="comma list of radial exponents p")
            p.add_argument("--pbar1", default="2", help="comma list of source angular exponents")
            p.add_argument("--pbar2", default="2", help="comma list of target angular exponents")
            p.add_argument("--kind", default="hardy",
                           help="comma list: hardy | dual-hardy | weighted-hardy | weighted-cesaro")
            p.add_argument("--weight", default="power:c=1,beta=0",
                           help="weight spec, e.g. power:c=1,beta=2")
        p.add_argument("--rel-tol", type=float, default=1e-8)
        p.add_argument("--abs-tol", type=float, default=1e-14)
        p.add_argument("--mc-count", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: HH_SEED env var, else 0)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    pc = sub.add_parser("constants", help="table of sharp constants")
    common(pc)

    pv = sub.add_parser("verify-sharp", help="convergence tables and upper-bound probes")
    common(pv)
    pv.add_argument("--eps-grid", default=",".join(str(e) for e in DEFAULT_EPS_GRID),
                    help="strictly decreasing comma list in (0,1)")
    pv.add_argument("--trials", type=int, default=20, help="random probe trials per config")

    pa = sub.add_parser("apply", help="evaluate an operator on a radial function")
    common(pa)
    pa.add_argument("--function", default="power:1", help="radial function spec")
    pa.add_argument("--radii", default="1", help="comma list of evaluation radii")

    pn = sub.add_parser("norm", help="mixed radial-angular norm of a radial function")
    common(pn)
    pn.add_argument("--function", default="exp:1", help="radial function spec")

    pg = sub.add_parser("geom-check", help="geometry property suite")
    common(pg, with_exps=False)
    pg.add_argument("--triples", type=int, default=100_000)

    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        env = os.environ.get("HH_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"HH_SEED must be an integer, got {env!r}") from exc
    cfg = RunConfig(command=args.command, seed=seed, fmt=args.fmt, out=args.out,
                    rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    _checked(cfg.spec)
    cfg.ns = _parse_int_list(args.n, "--n")
    for n in cfg.ns:
        _checked(heis_space, n)
    cfg.mc_count = args.mc_count
    if cfg.mc_count < 1:
        raise ConfigError("--mc-count must be >= 1")

    if hasattr(args, "p"):
        cfg.ps = _parse_float_list(args.p, "--p")
        cfg.pbar1s = _parse_float_list(args.pbar1, "--pbar1")
        cfg.pbar2s = _parse_float_list(args.pbar2, "--pbar2")
        for triple in itertools.product(cfg.ps, cfg.pbar1s, cfg.pbar2s):
            _checked(MixedExponents, *triple)
        kinds = []
        for tok in args.kind.split(","):
            tok = tok.strip().lower()
            if tok not in _KIND_ALIASES:
                raise ConfigError(f"unknown kind {tok!r}")
            kinds.append(_KIND_ALIASES[tok])
        cfg.kinds = kinds
        cfg.weight_c, cfg.weight_beta = parse_weight_spec(args.weight)
        _checked(cfg.weight)

    if hasattr(args, "eps_grid"):
        cfg.eps_grid = _checked(check_eps_grid, _parse_float_list(args.eps_grid, "--eps-grid"))
        cfg.trials = args.trials
        if cfg.trials < 1:
            raise ConfigError("--trials must be >= 1")

    if hasattr(args, "function"):
        cfg.function = args.function
        parse_function_spec(cfg.function)  # validate before any computation
    if hasattr(args, "radii"):
        cfg.radii = _parse_float_list(args.radii, "--radii")
        if any(r <= 0 for r in cfg.radii):
            raise ConfigError("--radii entries must be positive")
    if hasattr(args, "triples"):
        cfg.triples = args.triples
        if cfg.triples < 1:
            raise ConfigError("--triples must be >= 1")
    return cfg


def _provenance(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
    }


def _grid(cfg: RunConfig):
    """(query, row key) for every kind x n x p x pbar1 x pbar2 of the config."""
    for tag, n, p, pb1, pb2 in itertools.product(cfg.kinds, cfg.ns, cfg.ps, cfg.pbar1s, cfg.pbar2s):
        q = SharpConstantQuery(cfg.kind(tag), MixedExponents(p, pb1, pb2), heis_space(n))
        yield q, {"kind": tag, "n": n, "p": p, "pbar1": pb1, "pbar2": pb2}


def cmd_constants(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    for q, row in _grid(cfg):
        try:
            row["constant"] = theoretical_constant(q, cfg.spec())
            row["verdict"] = "bounded"
        except UnboundedOperatorError:
            row["constant"] = None
            row["verdict"] = "unbounded"
        rows.append(row)
    return {"results": rows}, EXIT_OK


def cmd_verify_sharp(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    status = EXIT_OK
    offending = None
    for q, base in _grid(cfg):
        try:
            theoretical_constant(q, cfg.spec())
        except UnboundedOperatorError:
            rows.append({**base, "verdict": "unbounded"})
            continue
        try:
            table = convergence_table(q, cfg.eps_grid, cfg.spec())
            probe = upper_bound_probe(q, cfg.trials, cfg.seed, cfg.spec())
        except SharpnessViolationError as exc:
            status = EXIT_NUMERIC
            offending = {**base, "error": str(exc)}
            break
        final = table[-1]
        sandwich_ok = all(
            r.ratio <= r.constant * (1.0 + 1e-6 + r.error_estimate) for r in table
        ) and probe.ratio <= probe.constant * (1.0 + 1e-6 + probe.error_estimate)
        converged = final.relative_gap <= 0.05
        rows.append({
            **base,
            "verdict": "bounded",
            "constant": final.constant,
            "table": [
                {
                    "epsilon": r.epsilon,
                    "ratio": r.ratio,
                    "constant": r.constant,
                    "relative_gap": r.relative_gap,
                    "error_estimate": r.error_estimate,
                }
                for r in table
            ],
            "probe_worst_ratio": probe.ratio,
            "probe_trials": cfg.trials,
            "sandwich_ok": sandwich_ok,
            "converged": converged,
        })
        if not (sandwich_ok and converged):
            status = EXIT_NUMERIC
            offending = {**base, "relative_gap": final.relative_gap}
    report = {"results": rows}
    if offending is not None:
        report["offending"] = offending
    return report, status


def cmd_apply(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    f = parse_function_spec(cfg.function)
    for tag in cfg.kinds:
        for n in cfg.ns:
            space = heis_space(n)
            try:
                out = apply_operator(cfg.kind(tag), f, space, cfg.spec())
                for r in cfg.radii:
                    rows.append({
                        "kind": tag, "n": n, "r": r,
                        "value": float(out.eval(r)) if not out.is_zero else 0.0,
                    })
            except DivergentIntegralError as exc:
                rows.append({"kind": tag, "n": n, "verdict": "divergent",
                             "reason": str(exc)})
    return {"results": rows}, EXIT_OK


def cmd_norm(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    f = parse_function_spec(cfg.function)
    for n in cfg.ns:
        space = heis_space(n)
        for p in cfg.ps:
            for pb1 in cfg.pbar1s:
                row = {"n": n, "p": p, "pbar": pb1}
                try:
                    row["norm"] = radial_norm_with_error(f, p, pb1, space, cfg.spec()).value
                    row["verdict"] = "finite"
                except DivergentIntegralError as exc:
                    row["norm"] = None
                    row["verdict"] = "divergent norm"
                    row["reason"] = str(exc)
                rows.append(row)
    return {"results": rows}, EXIT_OK


def cmd_geom_check(cfg: RunConfig) -> tuple[dict, int]:
    rows = []
    ok = True
    for n in cfg.ns:
        space = heis_space(n)
        rep = run_geometry_checks(space, triples=cfg.triples,
                                  seed=cfg.seed, mc_count=cfg.mc_count)
        rows.append({
            "n": n,
            "checks": rep.rows(),
            "triangle_worst_slack": rep.triangle_worst_slack,
            "mc_volume_estimate": rep.mc_volume_estimate,
            "mc_volume_expected": rep.mc_volume_expected,
            "all_pass": rep.all_pass,
        })
        ok = ok and rep.all_pass
    return {"results": rows}, EXIT_OK if ok else EXIT_NUMERIC


def render_json(report: dict, cfg: RunConfig) -> str:
    payload = {
        "config": cfg.echo(),
        "results": report["results"],
        "provenance": _provenance(cfg),
    }
    if "offending" in report:
        payload["offending"] = report["offending"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flatten_for_csv(rows: list[dict]) -> tuple[list[str], list[dict]]:
    flat = []
    for row in rows:
        if "table" in row:
            for entry in row["table"]:
                flat.append({
                    "kind": row["kind"], "n": row["n"], "p": row["p"],
                    "pbar1": row["pbar1"], "pbar2": row["pbar2"],
                    "epsilon": entry["epsilon"], "ratio": entry["ratio"],
                    "constant": entry["constant"],
                    "relative_gap": entry["relative_gap"],
                    "error_estimate": entry["error_estimate"],
                })
        elif "checks" in row:
            for chk in row["checks"]:
                flat.append({"n": row["n"], **chk})
        else:
            flat.append({k: v for k, v in row.items() if not isinstance(v, (list, dict))})
    headers: list[str] = []
    for row in flat:
        for key in row:
            if key not in headers:
                headers.append(key)
    return headers, flat


def render_csv(report: dict, cfg: RunConfig) -> str:
    buf = io.StringIO()
    for key, val in sorted(_provenance(cfg).items()):
        buf.write(f"# {key}={val}\n")
    buf.write(f"# config={json.dumps(cfg.echo(), sort_keys=True)}\n")
    headers, rows = _flatten_for_csv(report["results"])
    writer = csv.DictWriter(buf, fieldnames=headers, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "constants": cmd_constants,
        "verify-sharp": cmd_verify_sharp,
        "apply": cmd_apply,
        "norm": cmd_norm,
        "geom-check": cmd_geom_check,
    }
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        report, status = handlers[cfg.command](cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "invalid configuration", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceNotReachedError as exc:
        print(json.dumps({"error": "numeric tolerance failure", "reason": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERIC

    text = render_json(report, cfg) if cfg.fmt == "json" else render_csv(report, cfg)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
