"""Command-line front end with reproducible, machine-readable reports.

Subcommands
-----------
constants     table of sharp operator-norm constants over a parameter grid
verify-sharp  sharp_constants.verify on every grid point: convergence table,
              upper-bound probes and the verdict, which the CLI only renders
apply         evaluate an operator on a named radial function at given radii
norm          mixed radial-angular norm of a named radial function
geom-check    randomized verification of the group geometry and gauge metric

Every report carries a provenance block (config echo, seed, tolerances,
package version) and is byte-identical across runs with the same
configuration.  Exit status: 0 success, 2 invalid configuration, 3 numeric
check failure (a failing verify-sharp row, a failed quadrature among them,
or a failed quadrature of apply or norm, which ends the run).  geom-check's
Monte Carlo volume check draws exact samples, so it runs at every n.

Each option is declared once, in build_parser: a type= converter that
validates through the library, a dest, and its default.  The converters are
the only checks of a configuration: main() validates nothing.  Each subcommand
takes only the flags its handler reads, plus --rel-tol, --abs-tol, --seed,
--format and --out, which every report uses; any other flag exits 2.  The
config echo is the parsed namespace: the subcommand and every flag it
takes, defaults included, except --out.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys
from typing import Callable

from . import __version__
from .geometry import heis_space, run_geometry_checks
from .mixed_norm import MixedExponents, radial_norm_with_error
from .operators import OperatorKind, apply_operator, power_weight
from .quadrature import (
    DivergentIntegralError,
    NonFiniteIntegrandError,
    QuadratureSpec,
    RadialProfile,
    ToleranceNotReachedError,
    exp_profile,
    mixture_profile,
    power_profile,
)
from .sharp_constants import (
    DEFAULT_EPS_GRID,
    SharpConstantQuery,
    UnboundedOperatorError,
    check_eps_grid,
    theoretical_constant,
    verify,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the grid keys of a result row
_GRID = ("kind", "n", "p", "pbar1", "pbar2")


class ConfigError(ValueError):
    """Invalid run configuration; rendered as a machine-readable reason."""


def _parse_float(text: str, what: str) -> float:
    """The one CLI number parser: a finite float, else ConfigError."""
    try:
        val = float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return val


# each spec family, by (spec, family): its parameters with their defaults
# (None: required); a bare number sets the first
_FAMILIES = {
    ("function", "power"): {"alpha": None, "lo": 0.0, "hi": math.inf, "c": 1.0},
    ("function", "exp"): {"rate": None, "alpha": 0.0, "c": 1.0},
    ("weight", "power"): {"beta": 0.0, "c": 1.0},
}


def _parse_part(text: str, spec: str) -> tuple[str, dict[str, float]]:
    """'FAMILY:[BARE][,key=val...]' as (family, all its parameters); each is set at
    most once, a bare number setting the first, and no key may be unknown or missing."""
    family, colon, rest = (s.strip() for s in text.partition(":"))
    params = _FAMILIES.get((spec, family))
    if params is None or not colon:
        known = " | ".join(f for s, f in _FAMILIES if s == spec)
        raise ConfigError(f"{spec} part {text.strip()!r} must be FAMILY:PARAMS, FAMILY one of {known}")
    given: dict[str, float] = {}
    for tok in filter(None, (t.strip() for t in rest.split(","))):
        key, eq, val = tok.partition("=")
        key = key.strip() if eq else next(iter(params))
        if key not in params:
            raise ConfigError(f"{family} {spec} has no parameter {key!r} (expected {' | '.join(params)})")
        if key in given:
            raise ConfigError(f"{family} {spec} parameter {key!r} is set twice")
        given[key] = _parse_float(val if eq else tok, f"{spec} parameter {tok!r}")
    values = {**params, **given}
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise ConfigError(f"{family} {spec} needs {missing[0]!r}: {text.strip()!r}")
    return family, values


def parse_weight_spec(text: str) -> tuple[float, float]:
    """Parse 'power:c=1,beta=2' as (c, beta); a bare number sets beta."""
    _, v = _parse_part(text, "weight")
    return v["c"], v["beta"]


def parse_function_spec(text: str) -> RadialProfile:
    """Parse a radial function description.

    Grammar: parts joined by '+' (not the '+' of an exponent, as in 1e+2);
    each part is 'power:ALPHA[,lo=..,hi=..,c=..]', 'exp:RATE[,alpha=..,c=..]'
    or 'zero'.  Example: 'power:-3,lo=1+exp:2,alpha=1'.
    """
    parts = []
    for chunk in re.split(r"(?<![\d.][eE])\+", text):
        if chunk.strip() in ("", "zero"):
            continue
        family, v = _parse_part(chunk, "function")
        if family == "power":
            parts.append(power_profile(v["alpha"], v["c"], (v["lo"], v["hi"])))
        else:
            parts.append(exp_profile(v["rate"], v["alpha"], v["c"]))
    return mixture_profile(parts)


# --- type= converters: each raises ValueError with the reason ---------------


def _floats(text: str) -> list[float]:
    vals = [_parse_float(tok, "list entry") for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ConfigError("empty list")
    return vals


def _exponents(text: str) -> list[float]:
    """Each entry must be an exponent of MixedExponents: in (1, inf)."""
    return [MixedExponents(v, v, v).p for v in _floats(text)]


def _group_indices(text: str) -> list[int]:
    """Each entry must build heis_space: an integer n >= 1 whose constants fit float64."""
    return [heis_space(int(v) if v.is_integer() else v).n for v in _floats(text)]


def _operator(tag: str, c: float = 1.0, beta: float = 0.0) -> OperatorKind:
    """The tag's OperatorKind; the weighted kinds carry the weight c t^beta."""
    return OperatorKind(tag, power_weight(c, beta) if tag.startswith("weighted") else None)


def _kinds(text: str) -> list[str]:
    """Operator tags; '-' may stand for '_', and whardy/wcesaro abbreviate."""
    abbreviations = {"whardy": "weighted_hardy", "wcesaro": "weighted_cesaro"}
    tags = (tok.strip().lower().replace("-", "_") for tok in text.split(","))
    return [_operator(abbreviations.get(t, t)).tag for t in tags]


def _weight(text: str) -> dict:
    c, beta = parse_weight_spec(text)
    power_weight(c, beta)
    return {"family": "power", "c": c, "beta": beta}


def _function(text: str) -> str:
    parse_function_spec(text)
    return text


def _radii(text: str) -> list[float]:
    radii = _floats(text)
    if any(r <= 0 for r in radii):
        raise ConfigError("entries must be positive")
    return radii


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise ConfigError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise ConfigError(f"must be >= 1, got {count}")
    return count


def _checked(parse: Callable) -> Callable:
    """`parse` as a type= converter: its ValueError message is the rejection reason."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


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

    # each option once, in --help order, with its default
    options = {
        "--n": dict(type=_checked(_group_indices), default=[1],
                    help="comma list of group indices n >= 1"),
        "--p": dict(type=_checked(_exponents), default=[2.0],
                    help="comma list of radial exponents p"),
        "--pbar1": dict(type=_checked(_exponents), default=[2.0],
                        help="comma list of source angular exponents"),
        "--pbar2": dict(type=_checked(_exponents), default=[2.0],
                        help="comma list of target angular exponents"),
        "--kind": dict(dest="kinds", metavar="KIND", type=_checked(_kinds), default=["hardy"],
                       help="comma list: hardy | dual-hardy | weighted-hardy | weighted-cesaro"),
        "--weight": dict(type=_checked(_weight), default={"family": "power", "c": 1.0, "beta": 0.0},
                         help="weight spec, e.g. power:c=1,beta=2"),
        "--rel-tol": dict(type=_checked(lambda text: QuadratureSpec(rel_tol=float(text)).rel_tol),
                          default=QuadratureSpec.rel_tol),
        "--abs-tol": dict(type=_checked(lambda text: QuadratureSpec(abs_tol=float(text)).abs_tol),
                          default=QuadratureSpec.abs_tol),
        "--mc-count": dict(type=_checked(_count), default=100_000),
        "--seed": dict(type=int, default=os.environ.get("HH_SEED", "0"),
                       help="RNG seed (default: HH_SEED env var, else 0)"),
        "--format": dict(choices=("csv", "json"), default="json"),
        "--out": dict(help="output path (default: stdout)"),
        "--eps-grid": dict(type=_checked(lambda text: check_eps_grid(_floats(text))),
                           default=list(DEFAULT_EPS_GRID),
                           help="strictly decreasing comma list in (0,1)"),
        "--trials": dict(type=_checked(_count), default=20, help="random probe trials per config"),
        "--function": dict(type=_checked(_function), help="radial function spec"),
        "--radii": dict(type=_checked(_radii), default=[1.0],
                        help="comma list of evaluation radii"),
        "--triples": dict(type=_checked(_count), default=100_000),
    }
    # each subcommand: handler, help, the flags its handler reads, its own defaults
    # (--function's differs by subcommand); every report also reads --rel-tol,
    # --abs-tol, --seed, --format and --out
    grid = "--n --p --pbar1 --pbar2 --kind --weight"
    commands = {
        "constants": (cmd_constants, "table of sharp constants", grid, {}),
        "verify-sharp": (cmd_verify_sharp, "convergence tables and upper-bound probes",
                         grid + " --eps-grid --trials", {}),
        "apply": (cmd_apply, "evaluate an operator on a radial function",
                  "--n --kind --weight --function --radii", {"function": "power:1"}),
        "norm": (cmd_norm, "mixed radial-angular norm of a radial function",
                 "--n --p --pbar1 --function", {"function": "exp:1"}),
        "geom-check": (cmd_geom_check, "geometry property suite",
                       "--n --mc-count --triples", {}),
    }
    for name, (run, about, flags, defaults) in commands.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run, **defaults)
        read = set(flags.split()) | {"--rel-tol", "--abs-tol", "--seed", "--format", "--out"}
        for flag, kwargs in options.items():
            if flag in read:
                p.add_argument(flag, **kwargs)
    return ap


def _config(cfg: argparse.Namespace) -> dict:
    """The config echo: the parsed namespace without the handler, spec and --out."""
    return {k: v for k, v in vars(cfg).items() if k not in ("run", "spec", "out")}


def _provenance(cfg: argparse.Namespace) -> dict:
    return {"version": __version__, "seed": cfg.seed,
            "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol}


def _grid(cfg: argparse.Namespace):
    """(query, row key) for every kind x n x p x pbar1 x pbar2 of the config."""
    for combo in itertools.product(cfg.kinds, cfg.n, cfg.p, cfg.pbar1, cfg.pbar2):
        tag, n, p, pb1, pb2 = combo
        kind = _operator(tag, cfg.weight["c"], cfg.weight["beta"])
        q = SharpConstantQuery(kind, MixedExponents(p, pb1, pb2), heis_space(n))
        yield q, dict(zip(_GRID, combo))


def cmd_constants(cfg: argparse.Namespace) -> tuple[dict, int]:
    rows = []
    for q, row in _grid(cfg):
        try:
            row["constant"] = theoretical_constant(q, cfg.spec)
            row["verdict"] = "bounded"
        except UnboundedOperatorError:
            row["constant"] = None
            row["verdict"] = "unbounded"
        rows.append(row)
    return {"results": rows}, EXIT_OK


def cmd_verify_sharp(cfg: argparse.Namespace) -> tuple[dict, int]:
    rows, offending = [], []
    for q, base in _grid(cfg):
        row, failed = verify(q, cfg.eps_grid, cfg.trials, cfg.seed, cfg.spec)
        rows.append({**base, **row})
        if failed is not None:
            offending.append({**base, **failed})
    if not offending:
        return {"results": rows}, EXIT_OK
    return {"results": rows, "offending": offending}, EXIT_NUMERIC


def cmd_apply(cfg: argparse.Namespace) -> tuple[dict, int]:
    rows = []
    f = parse_function_spec(cfg.function)
    for tag in cfg.kinds:
        kind = _operator(tag, cfg.weight["c"], cfg.weight["beta"])
        for n in cfg.n:
            space = heis_space(n)
            try:
                values = apply_operator(kind, f, space, cfg.spec).eval(cfg.radii)
                rows.extend({"kind": tag, "n": n, "r": r, "value": v}
                            for r, v in zip(cfg.radii, values.tolist()))
            except DivergentIntegralError as exc:
                rows.append({"kind": tag, "n": n, "verdict": "divergent",
                             "reason": str(exc)})
    return {"results": rows}, EXIT_OK


def cmd_norm(cfg: argparse.Namespace) -> tuple[dict, int]:
    rows = []
    f = parse_function_spec(cfg.function)
    for n, p, pb1 in itertools.product(cfg.n, cfg.p, cfg.pbar1):
        row = {"n": n, "p": p, "pbar": pb1}
        try:
            row["norm"] = radial_norm_with_error(f, p, pb1, heis_space(n), cfg.spec).value
            row["verdict"] = "finite"
        except DivergentIntegralError as exc:
            row["norm"] = None
            row["verdict"] = "divergent norm"
            row["reason"] = str(exc)
        rows.append(row)
    return {"results": rows}, EXIT_OK


def cmd_geom_check(cfg: argparse.Namespace) -> tuple[dict, int]:
    rows = []
    ok = True
    for n in cfg.n:
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


def render_json(report: dict, cfg: argparse.Namespace) -> str:
    payload = {"config": _config(cfg), "provenance": _provenance(cfg), **report}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flatten_for_csv(rows: list[dict]) -> tuple[list[str], list[dict]]:
    flat = []
    for row in rows:
        if "table" in row:
            flat.extend({**{k: row[k] for k in _GRID}, **entry} for entry in row["table"])
        elif "checks" in row:
            flat.extend({"n": row["n"], **chk} for chk in row["checks"])
        else:
            flat.append({k: v for k, v in row.items() if not isinstance(v, (list, dict))})
    return list(dict.fromkeys(key for row in flat for key in row)), flat


def render_csv(report: dict, cfg: argparse.Namespace) -> str:
    buf = io.StringIO()
    for key, val in sorted(_provenance(cfg).items()):
        buf.write(f"# {key}={val}\n")
    buf.write(f"# config={json.dumps(_config(cfg), sort_keys=True)}\n")
    headers, rows = _flatten_for_csv(report["results"])
    writer = csv.DictWriter(buf, fieldnames=headers, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _fail(error: str, reason: object, status: int) -> int:
    print(json.dumps({"error": error, "reason": str(reason)}), file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        cfg.spec = QuadratureSpec(cfg.rel_tol, cfg.abs_tol)
        report, status = cfg.run(cfg)
    except ConfigError as exc:
        return _fail("invalid configuration", exc, EXIT_CONFIG)
    except ToleranceNotReachedError as exc:
        return _fail("numeric tolerance failure", exc, EXIT_NUMERIC)
    except NonFiniteIntegrandError as exc:
        return _fail("non-finite integrand", exc, EXIT_NUMERIC)
    except DivergentIntegralError as exc:  # a guard: every subcommand reports its own divergences
        return _fail("divergent integral", exc, EXIT_NUMERIC)

    text = render_json(report, cfg) if cfg.format == "json" else render_csv(report, cfg)
    try:
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
            return status
    except OSError as exc:
        return _fail("invalid configuration", f"argument --out: {exc}", EXIT_CONFIG)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
