"""Outside-in tracing of the heishardy layers.

The tracer wraps public functions of each heishardy module from outside the
package: every binding of the original function in a loaded ``heishardy``
module (and every alias of a method in its class) is replaced by a wrapper
that opens a span on entry and closes it on exit.  Nothing in ``src/`` is
edited, and a name that no longer exists is reported as absent instead of
failing, so the same tracer works across refactors of the package.

A span holds its name, start, end, parent and the index of the benchmark
operation it belongs to.  Self time of a span is its
duration minus the time covered by its child spans; per-layer self time is
the sum over that layer's spans.  Counters are updated at the same
boundaries.  The layers are the six modules, with ``quadrature`` split into
its sampler (``quadrature.mc``), profile (``quadrature.profile``) and
integration (``quadrature``) parts.  Profiles returned by an operator are
remembered, so their evaluations count as ``operators`` work rather than
profile work; the certified integrals nested inside such an evaluation are
``quadrature`` spans and so are excluded from the operator self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

# layer -> (module, public names); "Class.method" wraps a method in its class
TARGETS = (
    ("geometry", "heishardy.geometry", (
        "heis_space", "group_mul", "group_inv", "dilate", "koranyi_norm",
        "heis_distance", "ball_volume", "group_mul_array", "koranyi_norm_array",
        "dilate_array", "sphere_project_array", "run_geometry_checks",
    )),
    ("quadrature.mc", "heishardy.quadrature", ("mc_ball_sample", "mc_sphere_sample")),
    ("quadrature", "heishardy.quadrature", (
        "certified_log_integral", "integrate_power_weighted", "integrate_radial",
    )),
    ("quadrature.profile", "heishardy.quadrature", (
        "RadialProfile.logeval", "RadialProfile.eval", "power_profile", "exp_profile",
        "constant_profile", "zero_profile", "mixture_profile", "scaled_profile",
        "product_profile", "abs_power_profile", "profile_from_callable",
    )),
    ("operators", "heishardy.operators", (
        "hardy", "dual_hardy", "weighted_hardy", "weighted_cesaro", "apply_operator",
        "apply_pointwise", "duality_pairing_check", "power_weight",
        "weight_from_callable",
    )),
    ("mixed_norm", "heishardy.mixed_norm", (
        "radial_norm_with_error", "mixed_norm_radial", "mixed_norm_separable",
        "radialize", "hardy_radialization_identity_check",
    )),
    ("sharp_constants", "heishardy.sharp_constants", (
        "theoretical_constant", "extremal_profile", "extremal_ratio",
        "convergence_table", "upper_bound_probe",
    )),
    ("cli", "heishardy.cli", (
        "main", "config_from_args", "build_parser", "parse_weight_spec",
        "parse_function_spec", "cmd_constants", "cmd_verify_sharp", "cmd_apply",
        "cmd_norm", "cmd_geom_check", "render_json", "render_csv",
    )),
)

# operator entry points whose return value is an operator-output profile
_OPERATOR_OUTPUTS = {"hardy", "dual_hardy", "weighted_hardy", "weighted_cesaro", "apply_operator"}
# point count of one integrand call inside certified_log_integral
_PANEL_POINTS = 15
_ENVELOPE_POINTS = 6
SPAN_CAP = 50_000  # spans kept for the trace file; all spans feed the counters


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    rows = 1
    for s in shape[:-1]:
        rows *= s
    return rows


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Spans and counters for one traced pass; install() ... uninstall()."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.op = 0  # index of the benchmark operation the next spans belong to
        self.stack: list[list] = []  # [layer, name, start, child_s, span_id]
        self.spans: list[tuple] = []  # (span_id, parent_id, op, layer.name, start, end)
        self.dropped_spans = 0
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._next_id = 0
        self._integral_depth = 0
        self._outputs: weakref.WeakSet = weakref.WeakSet()
        self._undo: list[tuple] = []

    # --- spans -----------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        self._next_id += 1
        frame = [layer, name, 0.0, 0.0, self._next_id]
        if not self.stack or self.stack[-1][0] != layer:
            self.counts[f"{layer}.calls"] += 1
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        layer, name, start, child_s, span_id = frame
        self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        parent = 0
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][4]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.op, f"{layer}.{name}", start, end))
        else:
            self.dropped_spans += 1

    def _outermost(self, layer: str) -> bool:
        """True when the innermost open span is the only open span of its layer run."""
        return len(self.stack) < 2 or self.stack[-2][0] != layer

    # --- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        if name in ("RadialProfile.logeval", "RadialProfile.eval"):
            counted = name == "RadialProfile.logeval"

            @functools.wraps(fn)
            def method(profile, u, *args, **kwargs):
                lay = "operators" if profile in tracer._outputs else "quadrature.profile"
                if counted:
                    tracer.counts[f"{lay}.evals"] += 1
                    tracer.counts[f"{lay}.points"] += _size(u)
                frame = tracer._enter(lay, name)
                try:
                    return fn(profile, u, *args, **kwargs)
                finally:
                    tracer._exit(frame)

            return method

        if name == "certified_log_integral":
            @functools.wraps(fn)
            def integral(fun, *args, **kwargs):
                counts = tracer.counts
                counts["quadrature.integrals"] += 1
                if tracer._integral_depth:
                    counts["quadrature.nested_integrals"] += 1

                def counted_fun(u):
                    points = _size(u)
                    if getattr(u, "ndim", 0) == 0:
                        counts["quadrature.tail_scan_evals"] += 1
                    elif points == _ENVELOPE_POINTS:
                        counts["quadrature.envelope_evals"] += 1
                    elif points % _PANEL_POINTS == 0:
                        # a batched call of several panels counts each panel
                        counts["quadrature.panels"] += points // _PANEL_POINTS
                    else:
                        counts["quadrature.other_points"] += points
                    return fun(u)

                frame = tracer._enter(layer, "certified_log_integral")
                tracer._integral_depth += 1
                try:
                    return fn(counted_fun, *args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "ToleranceNotReachedError":
                        counts["quadrature.tol_failures"] += 1
                    raise
                finally:
                    tracer._integral_depth -= 1
                    tracer._exit(frame)

            return integral

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if layer == "quadrature.mc" and tracer._outermost(layer):
                    tracer.counts["quadrature.mc.failures"] += 1
                raise
            finally:
                tracer._exit(frame)
            tracer._count_result(layer, name, args, out)
            return out

        return wrapper

    def _count_result(self, layer: str, name: str, args: tuple, out) -> None:
        counts = self.counts
        if layer == "geometry" and name.endswith("_array"):
            arr = args[1] if name == "dilate_array" else args[0]
            counts["geometry.points"] += _rows(arr)
            if (name == "koranyi_norm_array" and self.stack
                    and self.stack[-1][1] == "mc_ball_sample"):
                counts["quadrature.mc.candidates"] += _rows(arr)
        elif name == "mc_ball_sample":
            counts["quadrature.mc.useful"] += len(out)
        elif name in _OPERATOR_OUTPUTS:
            self._outputs.add(out)
            if not self.stack or self.stack[-1][0] != "operators":
                counts["operators.outputs"] += 1

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the missing ones in `absent`."""
        modules = {}
        for _, modname, _ in TARGETS:
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:
                modules[modname] = None
        # every module is loaded before the first wrap, so no module binds a
        # wrapper at import time that uninstall() would not restore
        for layer, modname, names in TARGETS:
            module = modules[modname]
            if module is None:
                self.absent.extend(f"{modname}.{n}" for n in names)
                continue
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = getattr(owner, attr, None) if owner is not None else None
                if not callable(orig):
                    self.absent.append(f"{modname}.{name}")
                    continue
                wrapped = self._wrap(layer, name, orig)
                if owner_name:
                    holders = [owner]
                else:
                    holders = [m for key, m in list(sys.modules.items())
                               if m is not None and (key == "heishardy" or key.startswith("heishardy."))]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # --- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Counters and per-layer self time, as plain JSON-able numbers."""
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "absent": list(self.absent),
            "spans": len(self.spans) + self.dropped_spans,
        }


def merge_summaries(parts: list[dict]) -> dict:
    """Sum counters and self times of several traced processes."""
    counts: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    absent: set = set()
    spans = 0
    for part in parts:
        counts.update(part["counts"])
        for layer, seconds in part["self_s"].items():
            self_s[layer] += seconds
        absent.update(part["absent"])
        spans += part["spans"]
    return {"counts": dict(counts), "self_s": dict(self_s), "absent": sorted(absent), "spans": spans}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a (merged) trace summary."""
    c = Counter(summary["counts"])
    s = defaultdict(float, summary["self_s"])
    integrals = c["quadrature.integrals"]
    candidates = c["quadrature.mc.candidates"]
    return {
        "geometry.calls": (c["geometry.calls"], "count"),
        "geometry.points": (c["geometry.points"], "count"),
        "geometry.self_s": (s["geometry"], "s"),
        "quadrature.mc.calls": (c["quadrature.mc.calls"], "count"),
        "quadrature.mc.candidates": (candidates, "count"),
        "quadrature.mc.accept_ratio": (
            c["quadrature.mc.useful"] / candidates if candidates else 0.0, "fraction"),
        "quadrature.mc.failures": (c["quadrature.mc.failures"], "count"),
        "quadrature.mc.self_s": (s["quadrature.mc"], "s"),
        "quadrature.profile.evals": (c["quadrature.profile.evals"], "count"),
        "quadrature.profile.points": (c["quadrature.profile.points"], "count"),
        "quadrature.profile.self_s": (s["quadrature.profile"], "s"),
        "quadrature.integrals": (integrals, "count"),
        "quadrature.nested_integrals": (c["quadrature.nested_integrals"], "count"),
        "quadrature.panels": (c["quadrature.panels"], "count"),
        "quadrature.panels_per_integral": (
            c["quadrature.panels"] / integrals if integrals else 0.0, "count"),
        "quadrature.envelope_evals": (c["quadrature.envelope_evals"], "count"),
        "quadrature.tail_scan_evals": (c["quadrature.tail_scan_evals"], "count"),
        "quadrature.tol_failures": (c["quadrature.tol_failures"], "count"),
        "quadrature.self_s": (s["quadrature"], "s"),
        "operators.outputs": (c["operators.outputs"], "count"),
        "operators.evals": (c["operators.evals"], "count"),
        "operators.points": (c["operators.points"], "count"),
        "operators.self_s": (s["operators"], "s"),
        "mixed_norm.calls": (c["mixed_norm.calls"], "count"),
        "mixed_norm.self_s": (s["mixed_norm"], "s"),
        "sharp_constants.calls": (c["sharp_constants.calls"], "count"),
        "sharp_constants.self_s": (s["sharp_constants"], "s"),
        "cli.invocations": (c["cli.invocations"], "count"),
        "cli.exit_unexpected": (c["cli.exit_unexpected"], "count"),
        "cli.self_s": (s["cli"], "s"),
    }
