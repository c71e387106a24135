"""In-memory tracing of rayvex's layers, installed from outside the package.

A ``Tracer`` replaces every public function of each rayvex module with a
timing wrapper, at every module that holds a reference to it (so
``ray_intersect`` is wrapped in ``envelope`` and ``verify`` as well as in
``geometry``).  It also wraps the ``eval``/``grad`` callables of the scalar
fields handed to the program.  Each call is aggregated under the pair
(nearest wrapped caller, callee) with its count, total time and self time
(total minus the time of wrapped calls it made).  Coarse calls are also kept
as spans (name, start, end, parent span, operation id) and written out at
the end of the run.  Nothing is patched until ``install`` is called, and
``uninstall`` restores every reference it replaced.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time

LAYERS = ("functions", "geometry", "simplex", "envelope", "verify", "cli")
FIELD = "functions.field"
FIELD_NONFINITE = "functions.field_nonfinite"
FIELD_GRAD = "functions.field_grad"
ROOT = "bench.op"

# Calls recorded as individual spans; everything else is only aggregated,
# because field evaluations and ray traces run ~10^5 times per certification.
SPAN_NAMES = frozenset(
    {
        "cli.main",
        "envelope.build",
        "verify.certify",
        "verify.check_ray_concavity",
        "verify.check_facet_convexity",
        "verify.check_positive_homogeneity",
        "verify.oracle_build",
        "verify.oracle_eval",
        "geometry.validate",
        "geometry.sample_interior",
        "geometry.vertices",
        "simplex.solve_lp",
    }
)


class Tracer:
    def __init__(self):
        self.agg: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s, self_s]
        self.op_counts: dict[tuple[str, str], int] = {}
        self.samples: dict[str, list[float]] = {"simplex.solve_lp": [], "verify.oracle_eval": []}
        self.extra: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = [[ROOT, 0.0, None]]
        self._next_span = 0
        self._op = -1
        self._undo: list = []  # closures restoring what install() replaced
        self._t0 = self._op_start = time.perf_counter()

    # -- bookkeeping ------------------------------------------------------

    def _record(self, parent: list, name: str, t0: float, dt: float, child: float, span_id) -> None:
        parent[1] += dt
        key = (parent[0], name)
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - child
        self.op_counts[key] = self.op_counts.get(key, 0) + 1
        if span_id is not None:
            self.spans.append((span_id, parent[2], self._op, name, t0 - self._t0, t0 + dt - self._t0))

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter
        spanned = name in SPAN_NAMES
        record = self._record

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = None
            if spanned:
                span_id = self._next_span
                self._next_span += 1
            frame = [name, 0.0, span_id if spanned else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(parent, name, t0, dt, frame[1], span_id)
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, index: int) -> None:
        """Open the root span of one benchmark operation."""
        self._op = index
        self.op_counts = {}
        span_id = self._next_span
        self._next_span += 1
        self._stack[:] = [[ROOT, 0.0, span_id]]
        self._op_start = time.perf_counter()

    def end_op(self) -> dict:
        end = time.perf_counter()
        root = self._stack[0]
        self.spans.append((root[2], None, self._op, ROOT, self._op_start - self._t0, end - self._t0))
        counts = self.op_counts
        self.op_counts = {}
        return counts

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        """Replace a module attribute or a field of a (frozen) ScalarField, undoably."""
        old = getattr(owner, attr)
        object.__setattr__(owner, attr, value)
        self._undo.append(lambda: object.__setattr__(owner, attr, old))

    def install(self) -> None:
        """Wrap every public rayvex function wherever it is referenced by name."""
        modules = [importlib.import_module("rayvex")]
        modules += [importlib.import_module(f"rayvex.{layer}") for layer in LAYERS]
        observers = {
            "simplex.solve_lp": self._observe_lp,
            "verify.oracle_eval": self._observe_oracle_eval,
            "verify.oracle_build": self._observe_oracle_build,
        }
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                observe = observers.get(name)
                if attr.startswith("check_") and layer == "verify":
                    observe = self._check_observer(inspect.signature(obj))
                wrappers[id(obj)] = (obj, self.wrap(name, obj, observe))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])

        # Fields built inside CLI commands come from the shared builder table.
        builders = modules[1 + LAYERS.index("functions")].CATALOG_BUILDERS
        originals = dict(builders)
        self._undo.append(lambda: builders.update(originals))
        for key, builder in originals.items():
            builders[key] = self._instrumenting_builder(wrappers[id(builder)][1])

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _instrumenting_builder(self, builder):
        def build_entry(*args, **kwargs):
            entry = builder(*args, **kwargs)
            self.instrument_field(entry.field)
            return entry

        return build_entry

    def instrument_field(self, field) -> None:
        """Wrap a ScalarField's callables in place (it is the user's function)."""
        original_eval = field.eval

        def observe_eval(args, kwargs, result, dt):
            if not math.isfinite(result):
                parent = self._stack[-1][0]
                key = (parent, FIELD_NONFINITE)
                self.op_counts[key] = self.op_counts.get(key, 0) + 1

        self._set(field, "eval", self.wrap(FIELD, original_eval, observe_eval))
        if field.grad is not None:
            self._set(field, "grad", self.wrap(FIELD_GRAD, field.grad))

    # -- observers --------------------------------------------------------

    def _observe_lp(self, args, kwargs, result, dt):
        objective = args[0] if args else kwargs["objective"]
        self.add("lp_columns", len(objective))
        self.samples["simplex.solve_lp"].append(dt)

    def _observe_oracle_eval(self, args, kwargs, result, dt):
        self.samples["verify.oracle_eval"].append(dt)

    def _observe_oracle_build(self, args, kwargs, result, dt):
        self.add("oracle_kept", len(result.values))
        self.add("oracle_evaluated", len(result.values) + result.skipped)

    def _check_observer(self, signature):
        def observe(args, kwargs, result, dt):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            if result.name == "ray_concave":
                drawn = params["n_rays"] * params["n_per_ray"]
            elif result.name == "facet_convex":
                drawn = params["n_pairs_per_facet"] * params["polytope"].n_facets
            elif result.name == "positively_homogeneous":
                # inside: g(0) plus three scalings per point; outside: one identity per point
                drawn = 1 + 3 * params["n_samples"] if params["model"].origin_in_P else params["n_samples"]
            else:
                return
            self.add(f"tested:{result.name}", result.samples)
            self.add(f"drawn:{result.name}", drawn)

        return observe

    # -- reporting --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per callee: [calls, total_s, self_s] summed over callers."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def counts_table(self) -> dict[str, int]:
        return {f"{caller} > {callee}": row[0] for (caller, callee), row in sorted(self.agg.items())}

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op, "name": name, "start_s": start, "end_s": end})
                    + "\n"
                )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, overhead_s: float) -> dict[str, tuple[float, str, str]]:
    """Per-layer numbers of one traced pass: name -> (value, unit, note).

    Counts are per benchmark operation unless the name says otherwise; a
    ``_us``/``_ms``/``_s`` figure is time per call (self time for the
    ``envelope`` evaluators, whose ray traces and field evaluations are
    their children).  A layer the workload never calls reads 0.
    """
    totals = tracer.totals()
    extra = tracer.extra

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def per_call(name, column, scale):
        n, total, own = totals.get(name, (0, 0.0, 0.0))
        return (total if column == "total" else own) * scale / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    agg = tracer.agg
    value_calls = calls("envelope.value")
    value_self = totals.get("envelope.value", (0, 0.0, 0.0))[2] + agg.get(("envelope.value", "envelope.eval"), (0, 0.0, 0.0))[2]
    builds = calls("envelope.build")
    commands = calls("cli.main")
    cli_self = sum(row[2] for name, row in totals.items() if name.startswith("cli."))
    per_op = f"per operation, {ops} operations"
    out = {
        "functions.field_evals": (ratio(calls(FIELD), ops), "count/op", per_op),
        "functions.eval_us": (per_call(FIELD, "self", 1e6), "us", f"{calls(FIELD)} evaluations"),
        "functions.grad_calls": (ratio(calls(FIELD_GRAD), ops), "count/op", per_op),
        "geometry.ray_intersect_calls": (ratio(calls("geometry.ray_intersect"), ops), "count/op", per_op),
        "geometry.ray_intersect_us": (per_call("geometry.ray_intersect", "total", 1e6), "us", "per call"),
        "geometry.validate_calls": (ratio(calls("geometry.validate"), builds), "count/build", f"{builds} builds"),
        "geometry.validate_ms": (per_call("geometry.validate", "total", 1e3), "ms", "per call, with its LPs"),
        "geometry.sample_interior_ms": (per_call("geometry.sample_interior", "total", 1e3), "ms", "per call"),
        "geometry.vertices_ms": (per_call("geometry.vertices", "total", 1e3), "ms", "per call"),
        "simplex.lp_solves": (ratio(calls("simplex.solve_lp"), ops), "count/op", per_op),
        "simplex.lp_ms_p50": (_median(tracer.samples["simplex.solve_lp"]) * 1e3, "ms", "median per solve"),
        "simplex.lp_columns": (ratio(extra.get("lp_columns", 0), calls("simplex.solve_lp")), "count", "mean per LP"),
        "envelope.value_us": (ratio(value_self, value_calls) * 1e6, "us", "self, with eval under value"),
        "envelope.gradient_us": (per_call("envelope.gradient", "self", 1e6), "us", "self per call"),
        "envelope.eval_homogeneous_us": (per_call("envelope.eval_homogeneous", "self", 1e6), "us", "self per call"),
        "envelope.eval_us": (per_call("envelope.eval", "self", 1e6), "us", "self per call"),
        "envelope.secant_raw_us": (per_call("envelope.secant_raw", "self", 1e6), "us", "self per call"),
        "envelope.secant_raw_calls": (ratio(calls("envelope.secant_raw"), ops), "count/op", per_op),
        "envelope.build_s": (per_call("envelope.build", "total", 1.0), "s", "per build, with certification"),
        "verify.ray_concave_s": (per_call("verify.check_ray_concavity", "total", 1.0), "s", "per check"),
        "verify.facet_convex_s": (per_call("verify.check_facet_convexity", "total", 1.0), "s", "per check"),
        "verify.homogeneous_s": (per_call("verify.check_positive_homogeneity", "total", 1.0), "s", "per check"),
    }
    for check in ("ray_concave", "facet_convex", "positively_homogeneous"):
        tested, drawn = extra.get(f"tested:{check}", 0), extra.get(f"drawn:{check}", 0)
        out[f"verify.tested_ratio.{check}"] = (ratio(tested, drawn), "ratio", f"{tested:.0f} tested / {drawn:.0f} drawn")
    kept, evaluated = extra.get("oracle_kept", 0), extra.get("oracle_evaluated", 0)
    usable, lattice = extra.get("usable", 0), extra.get("lattice", 0)
    out.update(
        {
            "verify.oracle_build_ms": (per_call("verify.oracle_build", "total", 1e3), "ms", "per build"),
            "verify.oracle_eval_ms_p50": (
                _median(tracer.samples["verify.oracle_eval"]) * 1e3, "ms",
                f"median of {len(tracer.samples['verify.oracle_eval'])} queries",
            ),
            "verify.oracle_kept_ratio": (ratio(kept, evaluated), "ratio", f"{kept:.0f} kept / {evaluated:.0f} sampled"),
            "cli.self_ms": (ratio(cli_self, commands) * 1e3, "ms", f"self per command, {commands} commands"),
            "cli.usable_query_ratio": (ratio(usable, lattice), "ratio", f"{usable:.0f} usable / {lattice:.0f} lattice points"),
            "trace.overhead_s": (overhead_s, "s", "traced minus untraced wall time, same operations"),
        }
    )
    return out
