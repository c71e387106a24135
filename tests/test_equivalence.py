"""Every fast path against its reference, in one table.

A ``Row`` names a fast path, the reference it must reproduce, how their
results compare, a strategy with its example count, and named special cases.
A case is a tuple of arguments for both.  The comparisons (``strategies.same``):

- ``bits``: floats and arrays by their bytes, containers item by item, and
  a raised ``RayvexError`` by its type and message (any other error fails
  the row, so two sides that crash alike do not pass);
- ``nan``: ``bits``, with any NaN equal to any NaN;
- ``json``: the ``json.dumps`` text, which tells 0.0 from -0.0;
- ``calls``: ``bits`` on the result and on the calls the user's f saw, the
  case's last item, each a 1-D float64 row; against a reference that loops
  over the rows, that is one call per row, in order.

One property draws every row's cases and one sweep runs its special cases, a test
per name, fast paths with every warning an error and references with numpy's
warnings silenced.  A new fast path registers by adding a row to ``TABLE``.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import pytest
import reference_checks
import reference_evaluators as ref
import reference_fields
import reference_lp
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    KERNEL_POLYTOPES, SENSES, SLAB, WORKING_CASES, band_cases, bits, catalog_model_points, catalog_models, cut_boxes,
    drawn_model_points, near_collinear_hull_lps, near_facet_batches, nearly_parallel_entry, oracle_query_runs, same,
    working_field_rows, working_field_samples, working_points,
)

import rayvex as rx
from rayvex import cli
from rayvex import envelope as env
from rayvex import geometry, simplex, verify
from rayvex.errors import RayvexError
from rayvex.functions import _eval_rows
from rayvex.geometry import GEOM_TOL, INTERIOR_MARGIN, _facet_dots, _facet_products, lattice
from rayvex.simplex import CertifiedBases


@dataclass(frozen=True)
class Row:
    name: str
    fast: Callable
    reference: Callable
    compare: str  # "bits", "nan", "json" or "calls"
    strategy: st.SearchStrategy | None = None  # cases for the property
    max_examples: int = 0
    specials: Callable[[], Iterable[tuple[str, tuple]]] | None = None  # (name, case) pairs for the sweep


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RayvexError as exc:  # the library's own errors are compared; any other fails the row
        return "raise", (type(exc), str(exc))


def _result(row, fn, case):
    if row.compare == "json":
        return json.dumps(fn(*case))
    if row.compare == "calls":
        *case, seen = case
        del seen[:]
        value = fn(*case)
        assert all(call[:2] == (np.dtype(float), 1) for call in seen), (row.name, seen)
        return value, list(seen)
    return _outcome(fn, *case)


def _check(row, case) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _result(row, row.fast, case)
    with np.errstate(all="ignore"):
        want = _result(row, row.reference, case)
    assert same(got, want, nan_alike=row.compare == "nan"), (row.name, case, got, want)


def _each(*fns):
    """Every fn's outcome on the same arguments, as one tuple."""
    return lambda *args: tuple(_outcome(fn, *args) for fn in fns)


# -- the scalar point path and the CLI row writer ------------------------------

EVALUATORS = _each(lambda m, x: tuple(env.eval(m, x)), env.value, env.eval_homogeneous, env.gradient)
REFERENCE_EVALUATORS = _each(ref.eval, lambda m, x: ref.eval(m, x)[0], ref.eval_homogeneous, ref.gradient)
# per catalog model, named points in original coordinates: inside, a degenerate vertex ray, the
# anchor (outside the domain for cubic, whose origin lies outside P), outside and non-finite
VALUE_POINTS = {
    "bilinear": {"interior": [0.3, 0.6], "vertex": [1.0, 1.0], "anchor": [0.0, 0.0], "outside": [2.0, 2.0]},
    "fractional": {"interior": [1.5, 0.5], "facet": [2.0, 1.0], "anchor": [1.0, 0.0], "outside": [0.5, 0.5]},
    "reliability": {"interior": [0.4, 0.7], "facet": [1.0, 0.5], "anchor": [0.0, 0.0], "outside": [-1.0, 0.5]},
    "cubic": {"interior": [0.7, 0.8], "x0-facet": [0.0, 1.5], "anchor": [0.0, 0.0], "outside": [3.0, 3.0]},
    "cobb-douglas": {"interior": [1.3, 1.5, 1.7], "degenerate": [1.0, 2.0, 1.0], "vertex": [2.0, 2.0, 2.0],
                     "anchor": [0.0, 0.0, 0.0], "outside": [0.5, 1.0, 1.0]},
}


def _value_specials():
    for name, points in VALUE_POINTS.items():
        model = catalog_models(True)[name][1]
        dim = model.polytope.dim
        for kind, x in [*points.items(), ("inf", [math.inf] + [1.0] * (dim - 1)), ("nan", [1.0] * (dim - 1) + [math.nan])]:
            yield f"{name}-{kind}", (model, np.array(x))


def _facet_product_case(n, m, seed):
    """m rows of n generic floats times 10^[-300, 300], and a point in [-10, 10]^n: hypothesis
    favours round floats, whose sums rarely round differently."""
    rng = np.random.default_rng(seed)
    rows = (rng.uniform(-1.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (m, 1))).tolist()
    return rows, rng.uniform(-10.0, 10.0, n).tolist()


WRITER_CASES = {
    # interior, anchor (empty region cells), outside (omitted), vertex, facet
    "eval-2d": ["eval", "--function", "bilinear", "--point", "0.3,0.6", "--point", "0,0", "--point", "2,2",
                "--point", "1,1", "--point", "1,0.25"],
    "eval-3d": ["eval", "--function", "cobb-douglas", "--point", "1.3,1.5,1.7", "--point", "1,2,1",
                "--point", "0.5,1,1", "--point", "2,2,2"],
    "eval-all-omitted": ["eval", "--function", "reliability", "--point", "5,5", "--point=-1,0.5"],
    "grid-origin-inside": ["grid", "--function", "reliability", "--resolution", "6"],  # anchor row at (0, 0)
    "grid-omitted": ["grid", "--function", "fractional", "--resolution", "7"],
    "grid-inf-nan": ["grid", "--function", "cubic", "--resolution", "5"],
    "grid-polytope-file": ["grid", "--function", "cubic", "--resolution", "7", "--polytope", None],
    "grid-3d": ["grid", "--function", "cobb-douglas", "--resolution", "3"],
}


def _printed(run):
    """What run(argv) prints for a writer case and format; a None in the argv is a polytope file."""

    def output(case, fmt):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
            path = Path(tmp) / "cubic.json"
            # cubic's domain cut at y <= 1.5: the lattice still meets the x = 0 facet, where f is inf
            rx.Polytope.from_inequalities(
                [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [0.0, 1.0]], [0.0, 0.0, -1.0, 2.0, 1.5]
            ).save(path)
            run([str(path) if arg is None else arg for arg in WRITER_CASES[case]] + ["--format", fmt, "--budget", "300"])
        return out.getvalue()

    return output


def _cli(argv):
    assert cli.main(argv) == 0


def _reference_writer(argv):
    """The old row writer, on the model and points the command builds."""
    args = cli._build_parser().parse_args(argv)
    model, entry = cli._model_from_args(args)
    payload = {"command": args.command, "function": entry.name}
    if args.command == "eval":
        points = [np.array([float(c) for c in raw.split(",")]) for raw in args.point]
    else:
        points = lattice(model.validation.coordinate_bounds + model.anchor[:, None], args.resolution)
        payload["resolution"] = args.resolution
    ref.emit_rows(payload, *ref.point_rows(model, points), args)


# -- membership and the batched ray kernel -------------------------------------

MEMBERSHIP_TOLS = (GEOM_TOL, 0.0, -INTERIOR_MARGIN)


def _batch_membership(poly, points):
    """A batch's margins and verdicts at each tolerance, row by row; ``_facet_dots`` on it and on each point alone."""
    dots = list(_facet_dots(poly.matrix, points)), [_facet_dots(poly.matrix, x) for x in points]
    return list(poly.margins(points)), [poly.contains(points, tol=tol).tolist() for tol in MEMBERSHIP_TOLS], dots


def _point_membership(poly, points):
    products = [np.array(_facet_products(poly._rows, x.tolist())) for x in points]
    verdicts = [[poly.contains(x, tol=tol) for x in points] for tol in MEMBERSHIP_TOLS]
    return [poly.margins(x) for x in points], verdicts, (products, products)


TRACE_FIELDS = ("alpha_minus", "alpha_plus", "alpha_v", "in_facet", "out_facet", "degenerate", "v_minus", "v_plus")


def _kernel_case(poly, seed):
    """poly, and rows: interior points, vertices (ties), facet points, near-vertex and random
    directions, then each of them at a short scale 2^[-1080, -1020], where ratios may overflow."""
    rng = np.random.default_rng(seed)
    verts = rx.vertices(poly)
    near = np.repeat(verts, 3, axis=0)
    near = near * (1.0 + rng.choice([-1.0, 1.0], size=near.shape) * 10.0 ** rng.uniform(-16, -8, size=near.shape))
    edges = [w1 + rng.uniform() * (w2 - w1) for w1, w2 in zip(verts, np.roll(verts, 1, axis=0))]
    rows = np.vstack([
        rx.sample_interior(poly, int(rng.integers(1000)), 20), verts, np.array(edges), near,
        rng.dirichlet(np.ones(len(verts)), size=10) @ verts, rng.normal(size=(20, poly.dim)) * 3.0,
    ])
    return poly, np.vstack([rows, np.ldexp(rows, rng.integers(-1080, -1019, size=(len(rows), 1)))])


def _scalar_traces(poly, rows):
    """Per row, ray_intersect's trace fields, or the type of the error it raises."""
    outcomes = [_outcome(rx.ray_intersect, poly, v) for v in rows]
    return [tuple(getattr(t, f) for f in TRACE_FIELDS) if kind == "value" else t[0] for kind, t in outcomes]


def _batch_traces(poly, rows):
    """The batch kernel on every row ray_intersect traces, in one call, and on each other row
    after a traced one: per row its trace fields, or the type of the error it raises."""
    traced = [_outcome(rx.ray_intersect, poly, v)[0] == "value" for v in rows]
    batch = rx.ray_intersect_batch(poly, rows[traced])
    columns = [getattr(batch, f).tolist() if f[0] != "v" else list(getattr(batch, f)) for f in TRACE_FIELDS]
    fields = ((lo, hi, av, None if i < 0 else i, o, d, vm, vp) for lo, hi, av, i, o, d, vm, vp in zip(*columns))
    out = []
    for v, ok in zip(rows, traced):
        if ok:
            out.append(next(fields))
        else:  # a rejected row makes the batch raise the scalar error
            kind, got = _outcome(rx.ray_intersect_batch, poly, np.vstack([rows[0] if traced[0] else v, v]))
            out.append(got[0] if kind == "raise" else "traced")
    return out


def _kernel_specials():
    # b / (a.v) and alpha_v overflow, as the scalar kernel's float division does; numpy warned there
    thin = rx.Polytope.box([0.0, -1.1125369292536007e-308], [1.0, 1.0])
    yield "thin-box", (thin, np.array([[3.883676458323351, -2.2638173737797933]]))  # alpha_v = -1 / 4.9e-309
    yield "short-ray", (rx.Polytope.box([0.0, 0.0], [1.0, 1.0]), np.array([[0.5, 0.5], [0.0, 2.2e-311]]))  # row 1: 1/(a.v) = inf
    polytope, v = nearly_parallel_entry()
    yield "nearly-parallel-entry", (polytope, v[None])  # an empty row to the scalar kernel, which finds it degenerate


# -- bulk field evaluation -----------------------------------------------------


def _per_row(field, points):
    """The loop every bulk evaluation replaced: ``field.eval`` at each row, in order."""
    return np.array([float(field.eval(row)) for row in np.asarray(points, dtype=float)]).reshape(-1)


def _column_form(field, points):
    """``_eval_rows`` through the column form the field's eval owns."""
    owner, form = field.eval._rows
    assert owner is field.eval and callable(form)
    return _eval_rows(field, points)


def _sample_loop(field, points):
    """``verify._sample_values`` as a loop: every point in order, the first non-finite one named."""
    per_sample = points.shape[1]
    loop = [float(field.eval(p)) for p in points.reshape(-1, points.shape[2])]
    first = next((k for k, value in enumerate(loop) if not math.isfinite(value)), None)
    done = len(points) if first is None else first // per_sample
    values = np.array(loop[: done * per_sample]).reshape(done, per_sample)
    return values, None if first is None else divmod(first, per_sample)


SUBNORMAL = 2.2250738585072014e-308 / 2**20
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e-300, 1.0, -1.0, 2.0, 1e200, -1e200, math.inf, -math.inf, math.nan)
coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0), st.floats())
CONTAINERS = (np.array, list, tuple)
# catalog field -> its numpy-scalar form; cobb-douglas at three parameter sets, the last overflowing at 1e200
PLANAR = {name: (rx.CATALOG_BUILDERS[name]().field, getattr(reference_fields, name))
          for name in ("bilinear", "fractional", "reliability", "cubic")}
COBB_DOUGLAS_PARAMS = [(1.0, 1 / 3, 1 / 3, 1 / 3), (2.5, 0.2, 0.5, 0.3), (1.0, 5.0, 0.5, 0.5)]
COBB_DOUGLAS = {f"cobb-douglas-{k}": (rx.cobb_douglas(*params).field, reference_fields.cobb_douglas(*params))
                for k, params in enumerate(COBB_DOUGLAS_PARAMS)}
FORMS = {**PLANAR, **COBB_DOUGLAS}
BATCHED = {name: field for name, (field, _) in FORMS.items()}


# catalog gradient -> its numpy-scalar form (planar) or its array form (cobb-douglas)
GRADIENTS = {name: (field.grad, getattr(reference_fields, f"{name}_grad")) for name, (field, _) in PLANAR.items()}
COBB_DOUGLAS_GRADIENTS = {name: (COBB_DOUGLAS[name][0].grad, reference_fields.cobb_douglas_grad(*params))
                          for name, params in zip(COBB_DOUGLAS, COBB_DOUGLAS_PARAMS)}
GRADIENTS.update(COBB_DOUGLAS_GRADIENTS)


def _float_form(name, coords, container):
    return float(FORMS[name][0].eval(container(coords)))


def _numpy_scalar_form(name, coords, container):
    return float(FORMS[name][1](np.array(coords, dtype=float)))


def _float_gradient(name, coords, container):
    return GRADIENTS[name][0](container(coords))


def _numpy_scalar_gradient(name, coords, container):
    return GRADIENTS[name][1](np.array(coords, dtype=float))


def _forms_on_specials(names, dim, containers):
    """Every name on every dim-tuple of SPECIAL values, in each container."""
    for name, coords, container in itertools.product(names, itertools.product(SPECIAL, repeat=dim), containers):
        yield name, (name, list(coords), container)


def _column_specials():
    # one batch: nan, infinities, signed zeros, subnormal and huge coordinates in every slot
    for name, field in BATCHED.items():
        yield name, (field, np.array(list(itertools.product(SPECIAL, repeat=field.dim))))
        yield name, (field, np.empty((0, field.dim)))


def _recording(evaluate, seen, wraps=False):
    """evaluate, appending (dtype, ndim, bytes) of each point to seen; ``functools.wraps`` copies a row form."""

    def recorded(p):
        seen.append((p.dtype, p.ndim, bits(p)))
        return evaluate(p)

    return functools.wraps(evaluate)(recorded) if wraps else recorded


def _call_cases():
    """(field, points, seen) with seen recording the calls of a replaced or wrapped eval."""
    entry = rx.reliability()
    for sense, anchor in itertools.product(SENSES, ["none", "origin-shift", (0.3, 0.2), (-0.0, 0.0)]):
        # f's eval replaced in place after build, as a tracer does: the row form looks it up per batch; list rows reach f as float64
        field, seen = replace(entry.field), []
        model = env.build(field, entry.default_polytope, sense=sense, anchor=anchor, run_certification=False)
        object.__setattr__(field, "eval", _recording(entry.field.eval, seen))
        yield f"traced-{anchor}-{sense}".replace(" ", ""), (model.field, [[0.2, 0.4], [-0.0, 0.5], [0.7, 0.1], [0.2, 0.4]], seen)
    # a working eval replaced (replace drops the row form) or wrapped (functools.wraps copies it)
    for entry, sense, wraps in ((rx.bilinear_neg(-1.0, -1.0, 2.0, 2.0), "concave", False), (entry, "convex", True)):
        model, seen = env.build(entry.field, entry.default_polytope, sense=sense, anchor=(0.5, 0.25), run_certification=False), []
        working = replace(model.field, eval=_recording(model.field.eval, seen, wraps))
        for points in (np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 1.5]]), np.empty((0, 2))):
            yield "working-" + ("wrapped" if wraps else "replaced"), (working, points, seen)
    # a catalog eval wrapped by functools.wraps, put in by replace or in place: the form is not the wrapper's
    for name, field in BATCHED.items():
        seen = []
        wrapped, in_place = _recording(field.eval, seen, wraps=True), replace(field)
        object.__setattr__(in_place, "eval", wrapped)
        for holder in (replace(field, eval=wrapped), in_place):
            yield f"wrapped-{name}", (holder, np.array(list(itertools.product((0.5, 1.5, 2.0), repeat=field.dim))), seen)


# -- the working field ---------------------------------------------------------


def _field_values(fields, p):
    """f(p) and grad f(p) of a field, and the finite-difference gradient of its grad-less twin
    (None where a probe is not finite)."""
    field, twin = fields
    with np.errstate(all="ignore"):  # the catalog's gradients divide by zero outside their domains
        fd = _outcome(twin.gradient, p)
        return float(field.eval(p)), field.gradient(p), None if fd[0] == "raise" else fd[1]


def _definition(field, t, base, sign):
    """v -> sign * (f(v + t) - base) as written; a zero t adds nothing, so -0.0 reaches f as -0.0."""
    at = (lambda p: p + t) if t.any() else (lambda p: p)
    grad = None if field.grad is None else (lambda p: sign * np.asarray(field.grad(at(p))))
    return rx.ScalarField(2, lambda p: sign * (float(field.eval(at(p))) - base), grad=grad)


def _chain(field, t, anchor, sense):
    """shift_field then negate_field, one lambda layer each."""
    chain = field if anchor == "none" else reference_fields.shift_field(field, t)
    return reference_fields.negate_field(chain) if sense == "concave" else chain


def _working_cases(reference):
    """(working, other, p): the working fields of a model and of its grad-less twin, the same pair
    built by reference ("definition" or "chain"), and a point, for every WORKING_CASES model in
    both senses at every ``working_points`` point.  The chain adds a zero t, which turns -0.0
    into +0.0, so its cases leave out a point with a -0.0 coordinate where t is zero."""
    for (entry, anchor), sense in itertools.product(WORKING_CASES, SENSES):
        t = np.zeros(2) if isinstance(anchor, str) else np.asarray(anchor, dtype=float)
        base = 0.0 if anchor == "none" else entry.field.eval(t)
        working, other = [], []
        for field in (entry.field, replace(entry.field, grad=None)):
            model = env.build(field, entry.default_polytope, sense=sense, anchor=anchor, run_certification=False)
            working.append(model.field)
            other.append(_definition(field, t, base, model.sign) if reference == "definition" else _chain(field, t, anchor, sense))
        for p in working_points(entry):
            if reference == "definition" or t.any() or not np.any(np.signbit(p) & (p == 0.0)):
                yield f"{entry.name}-{anchor}-{sense}".replace(" ", ""), (tuple(working), tuple(other), p)


# -- the certification checks --------------------------------------------------

# a box cut by one halfspace, rows rescaled, moved away from the origin: inexact a . v products
_SCALES = np.array([3.0, 0.7, 11.0, 0.13, 9.0])
CUT_FAR = rx.Polytope.from_inequalities(
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.6, -1.3]]) * _SCALES[:, None],
    np.array([1.3, 0.9, 0.7, 1.1, 0.8]) * _SCALES,
).translate([3.0, 3.0])
# 0 <= x <= 1e-8, 1 <= y <= 2: a ray's endpoint lies within GEOM_TOL of x >= 0, a facet through the origin
THIN_AT_ORIGIN = rx.Polytope.from_inequalities([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], [0.0, 1e-8, -1.0, 2.0])
FAILING_FIELDS = [  # (f, P), each failing certify at budget 600, seed 3, so the witnesses are compared too
    (lambda p: p[0] ** 2 + p[1] ** 2, rx.Polytope.box([0.0, 0.0], [1.0, 1.0])),  # ray-convex: witness
    (lambda p: -(p[0] ** 2) - p[1] ** 3, rx.Polytope.box([0.0, 0.0], [1.0, 1.0])),  # facet-concave
    (lambda p: math.exp(p[0]) - 1.0 + p[1], rx.Polytope.box([-1.0, -0.5], [1.0, 2.0])),  # origin interior
    (lambda p: 1.0 - p[0] * p[1], rx.Polytope.box([-1.0, -1.0], [1.0, 1.0])),  # f(0) = 1
    (lambda p: p[0] ** 2 + p[1], SLAB),  # origin outside, not homogeneous
    (lambda p: p[0] ** 2 + p[1], CUT_FAR),  # origin outside, inexact a . v
    (lambda p: -(p[0] ** 2) + p[1] * p[2], rx.Polytope.box([1.0, 1.0, 1.0], [2.0, 3.0, 2.0])),
]


def _failing_model(fn, polytope):
    return env.build(rx.ScalarField(polytope.dim, fn, name="anon"), polytope, anchor="none", run_certification=False)


def _certify_cases():
    for (name, (_, model)), seed in itertools.product(catalog_models(False).items(), (0, 1, 7)):
        yield f"{name}-{seed}", (model, 2000, seed)
    for k, (fn, polytope) in enumerate(FAILING_FIELDS):
        yield f"failing-{k}", (_failing_model(fn, polytope), 600, 3)
    yield "thin-at-origin", (_failing_model(lambda p: p[0] + p[1], THIN_AT_ORIGIN), 100, 0)


def _certify_checks(model, budget, seed):
    """certify's three checks, and its homogeneity verdict."""
    report = verify.certify(model, budget=budget, seed=seed)
    checks = (report.ray_concave, report.facet_convex, report.positively_homogeneous)
    return [check.to_dict() for check in checks] + [report.positively_homogeneous.status]


def _check_loops(model, budget, seed):
    """The per-sample loops at certify's parameters, and the verdict of the secant probes f(0) replaced."""
    field, poly, tol = model.field, model.polytope, verify.DEFAULT_TOL
    checks = (
        reference_checks.ray_concavity(field, poly, max(1, budget // 10), 10, tol, seed),
        reference_checks.facet_convexity(field, poly, max(10, budget // poly.n_facets), tol, seed + 1),
        reference_checks.positive_homogeneity(model, budget, tol, seed + 2),
    )
    probes = reference_checks.positive_homogeneity_probes(model, budget, tol, seed + 2)
    return [check.to_dict() for check in checks] + [probes.status]


def _inf_left_of(fn, edge):
    """fn, but +inf where x < edge: outside P here, reached only by the scaled points lambda * v."""
    return lambda p: math.inf if p[0] < edge else fn(p)


COROLLARY_CASES = {  # name -> (field, polytope, sense, the check's status)
    "cobb-douglas": (rx.cobb_douglas().field, rx.cobb_douglas().default_polytope, "concave", "pass"),
    "non-homogeneous": (rx.ScalarField(2, lambda p: p[0] ** 2 + p[1], name="bowl"),
                        rx.Polytope.box([0.1, 0.1], [1.0, 1.0]), "convex", "inapplicable"),
    "non-finite-scaled": (rx.ScalarField(2, _inf_left_of(lambda p: p[0] ** 2 + p[1], 0.3), name="inf-strip"),
                          rx.Polytope.box([0.5, 0.1], [1.0, 1.0]), "convex", "inapplicable"),
    "non-finite-scaled-homogeneous": (rx.ScalarField(2, _inf_left_of(lambda p: math.sqrt(p[0] * p[1]), 0.3)),
                                      rx.Polytope.box([0.5, 0.5], [1.0, 2.0]), "concave", "pass"),
}


def _corollary_cases():
    for (name, (field, polytope, sense, _)), seed in itertools.product(COROLLARY_CASES.items(), (0, 3)):
        yield f"{name}-{seed}", (field, polytope, sense, seed)


# -- the LP read ---------------------------------------------------------------


def _lp_run(lp, arrays):
    """(c, A, the right-hand sides, which arrays each solve passes): the set's own ("own"), fresh
    copies of c and A, which take the full check and the compare ("copies"), or the two by turns,
    the set's first ("mixed")."""
    c, a, rhss = lp
    return ((c, a, rhss, [arrays == "own" or (arrays == "mixed" and k % 2 == 0) for k in range(len(rhss))]),)


LP_RUNS = st.builds(_lp_run, st.one_of(
    oracle_query_runs().map(lambda case: (case[0].values, case[0].constraints, [np.append(x, 1.0) for x in case[1]])),
    near_collinear_hull_lps().map(lambda lp: (lp[0], lp[1], [lp[2], lp[2]])),  # asked twice: cold, then from its set
), st.sampled_from(["own", "copies", "mixed"]))


def _lp_reads(solve):
    """solve at each right-hand side of a run, all started from one set built with its c and A: each
    result, or the error it raises."""

    def run(lp):
        c, a, rhss, own = lp
        bases = CertifiedBases(c, a)
        arrays = [(bases.objective, bases.matrix) if mine else (np.array(c), np.array(a)) for mine in own]
        return [_outcome(solve, *ca, b, bases) for ca, b in zip(arrays, rhss)]

    return run


def _solution_specials():
    """``_solution`` with B = I, at basic values of its own or given: covered, refused by a basic value or by
    the residual, basics snapped to 0, a NaN or an infinity among the basics or the residuals, and an LP with
    no row.  Whether a NaN fails a test depends on where it sits, under Python's min and max as under numpy's,
    but it makes x and the objective NaN, so the read is refused; a NaN in B stands for an overflow at a huge b."""
    c, eye, b = np.array([1.0, -2.0, 0.5, 3.0]), np.eye(3), [0.5, 0.25, 1.0]
    cases = {  # name -> (B, b, the basic values given, if any)
        "covered": (eye, b, None), "negative-basic": (eye, [0.5, -2e-11, 1.0], None),
        "within-pivot-tol": (eye, [0.5, -5e-12, 1.0], None), "snapped": (eye, [1e-16, -0.0, 1.0], None),
        "residual": (eye, b, [0.5, 0.25 + 2e-9, 1.0]), "within-feas-tol": (eye, b, [0.5, 0.25 + 5e-10, 1.0]),
        "within-scaled-tol": (eye, [5.0, 0.25, 1.0], [5.0, 0.25 + 2e-9, 1.0]),  # within FEAS_TOL * |b| = 5e-9
        "nan-first": (eye, b, [np.nan, -1.0, 0.5]), "nan-later": (eye, b, [-1.0, np.nan, 0.5]),
        "nan-residual": (np.diag([1.0, np.nan, 1.0]), b, [0.5 - 2e-9, 0.25, 1.0]),
        "inf-basic": (np.ones((3, 3)), b, [0.5, np.inf, 1.0]), "inf-residual": (np.diag([1.0, np.inf, 1.0]), b, None),
    }
    for name, (matrix, rhs, basics) in cases.items():
        yield name, (c, (3, 0, 1), matrix, eye, np.array(rhs), 2, None if basics is None else np.array(basics))
    yield "no-rows", (c, (), np.empty((0, 0)), np.empty((0, 0)), np.empty(0), 0, None)


TABLE = [
    # anchored, concave, origin-outside and 3-D catalog models; drawn polytopes with a wave field
    Row("evaluators-catalog", EVALUATORS, REFERENCE_EVALUATORS, "bits", catalog_model_points(), 80),
    Row("evaluators-drawn", EVALUATORS, REFERENCE_EVALUATORS, "bits", drawn_model_points(), 50),
    # value leaves out eval's f(x): the same value, or the same error (outside, the anchor outside P, non-finite)
    Row("value", env.value, lambda m, x: env.eval(m, x).value, "bits",
        st.one_of(catalog_model_points(), drawn_model_points()), 100, _value_specials),
    # points near facets, in the band, along rescaled and subnormal rays
    Row("ray-kernel", _each(rx.ray_intersect, geometry.locate), _each(ref.ray_intersect, ref.locate), "bits",
        band_cases(), 60, lambda: [("nearly-parallel-entry", nearly_parallel_entry())]),
    Row("facet-products", geometry._facet_products, ref._facet_products, "bits",
        st.builds(_facet_product_case, st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1)), 60),
    Row("batch-membership", _batch_membership, _point_membership, "bits", near_facet_batches(), 150),
    Row("row-writer", _printed(_cli), _printed(_reference_writer), "bits",
        specials=lambda: (("-".join(case), case) for case in itertools.product(sorted(WRITER_CASES), ("csv", "json")))),
    # catalog and other polytopes, or two cuts with every row rescaled: inexact a.v sums, in 2-4-D
    Row("batch-kernel", _batch_traces, _scalar_traces, "bits", st.builds(_kernel_case, st.one_of(
        st.sampled_from(KERNEL_POLYTOPES),
        cut_boxes(cuts=2, permute=False).map(lambda case: rx.Polytope.from_inequalities(case[0], case[1])),
    ), st.integers(0, 2**32 - 1)), 60, _kernel_specials),
    Row("working-rows", _eval_rows, _per_row, "bits", working_field_rows(), 150),
    Row("sample-values", verify._sample_values, _sample_loop, "bits", working_field_samples(), 60),
    Row("row-calls", _eval_rows, _per_row, "calls", specials=_call_cases),
    Row("working-definition", lambda w, _, p: _field_values(w, p), lambda _, d, p: _field_values(d, p), "nan",
        specials=lambda: _working_cases("definition")),
    Row("working-chain", lambda w, _, p: _field_values(w, p), lambda _, c, p: _field_values(c, p), "nan",
        specials=lambda: _working_cases("chain")),
    # zero, subnormal, huge and non-finite coordinates (fractional at x = 0, reliability with
    # den <= 0, cubic with x <= 0, cobb-douglas at a negative one) in arrays, lists and tuples
    Row("planar-floats", _float_form, _numpy_scalar_form, "nan", st.tuples(
        st.sampled_from(sorted(PLANAR)), st.lists(coordinate, min_size=2, max_size=2), st.sampled_from(CONTAINERS),
    ), 600, lambda: _forms_on_specials(sorted(PLANAR), 2, CONTAINERS)),
    Row("cobb-douglas-floats", _float_form, _numpy_scalar_form, "nan", st.tuples(
        st.sampled_from(sorted(COBB_DOUGLAS)), st.lists(coordinate, min_size=3, max_size=3), st.sampled_from(CONTAINERS),
    ), 300, lambda: _forms_on_specials(sorted(COBB_DOUGLAS), 3, (list,))),
    # the same coordinates through the planar gradients: x = 0, den = 0, and ** overflowing at 1e200
    Row("planar-gradients", _float_gradient, _numpy_scalar_gradient, "nan", st.tuples(
        st.sampled_from(sorted(PLANAR)), st.lists(coordinate, min_size=2, max_size=2), st.sampled_from(CONTAINERS),
    ), 300, lambda: _forms_on_specials(sorted(PLANAR), 2, CONTAINERS)),
    # cobb-douglas's quotients on floats against its array formula: a zero coordinate divides by zero
    Row("cobb-douglas-gradients", _float_gradient, _numpy_scalar_gradient, "nan", st.tuples(
        st.sampled_from(sorted(COBB_DOUGLAS_GRADIENTS)), st.lists(coordinate, min_size=3, max_size=3),
        st.sampled_from(CONTAINERS),
    ), 300, lambda: _forms_on_specials(sorted(COBB_DOUGLAS_GRADIENTS), 3, (list,))),
    Row("column-forms", _column_form, _per_row, "bits", st.sampled_from(sorted(BATCHED)).flatmap(
        lambda name: st.lists(st.lists(coordinate, min_size=BATCHED[name].dim, max_size=BATCHED[name].dim), max_size=12)
        .map(lambda rows: (BATCHED[name], np.array(rows, dtype=float).reshape(-1, BATCHED[name].dim)))
    ), 200, _column_specials),
    Row("certify-checks", _certify_checks, _check_loops, "json", specials=_certify_cases),
    Row("corollary-check",
        lambda f, p, sense, seed: verify.check_corollary_convexity(f, p, sense=sense, seed=seed, n_samples=300).to_dict(),
        lambda f, p, sense, seed: reference_checks.corollary_convexity(f, p, sense, verify.DEFAULT_TOL, seed, 300).to_dict(),
        "json", specials=_corollary_cases),
    # oracle runs and near-collinear lattices: covered reads, walks and cold solves, from the set's c and A or copies
    Row("lp-read", _lp_reads(simplex.solve_lp), _lp_reads(reference_lp.solve_lp), "bits", LP_RUNS, 100),
    Row("lp-solution", simplex._solution, reference_lp.solution, "nan", specials=_solution_specials),
]


@pytest.mark.parametrize("row", [row for row in TABLE if row.strategy is not None], ids=lambda row: row.name)
def test_fast_path_matches_its_reference(row):
    @settings(max_examples=row.max_examples, deadline=None)
    @given(row.strategy)
    def holds(case):
        _check(row, case)

    holds()


@pytest.mark.parametrize("row, cases", [  # a test per name; each row yields a name's cases in a run
    pytest.param(row, [case for _, case in named], id=f"{row.name}/{name}")
    for row in TABLE if row.specials is not None for name, named in itertools.groupby(row.specials(), lambda nc: nc[0])
])
def test_special_values_match_the_reference(row, cases):
    for case in cases:
        _check(row, case)


def test_the_special_cases_reach_what_they_stand_for():
    csv = {case: _printed(_cli)(case, "csv").splitlines() for case in ("grid-inf-nan", "grid-polytope-file",
                                                                     "grid-origin-inside", "eval-all-omitted")}
    for case in ("grid-inf-nan", "grid-polytope-file"):  # x = 0, where f is inf: 0 * inf adds 0 to g
        g_cells = {line.split(",")[3] for line in csv[case][1:-1]}
        assert "inf" in g_cells and "nan" not in g_cells
    assert any(line.endswith(",,") for line in csv["grid-origin-inside"]) and csv["eval-all-omitted"] == ["# omitted=2"]
    values = {name: _outcome(env.eval, *case) for name, case in _value_specials()}
    assert {name for name, (kind, _) in values.items() if kind == "raise"} == {
        f"{name}-{kind}" for name in VALUE_POINTS for kind in ("outside", "inf", "nan")} | {"cubic-anchor", "cobb-douglas-anchor"}
    assert values["cobb-douglas-degenerate"][1].trace.degenerate and values["cubic-x0-facet"][1].value == math.inf
    for fn, polytope in FAILING_FIELDS:
        assert not verify.certify(_failing_model(fn, polytope), budget=600, seed=3).all_passed
    for (field, polytope, sense, status), seed in itertools.product(COROLLARY_CASES.values(), (0, 3)):
        result = verify.check_corollary_convexity(field, polytope, sense=sense, seed=seed, n_samples=300)
        assert result.status == status and (status != "inapplicable" or set(result.witness) == {"v", "lambda"})


def test_cubic_products_stay_within_rounding_of_its_powers():
    # the powers are products so that the float and column forms share their bits;
    # against libm's pow they differ in the last place only, over cubic's default domain
    rng = np.random.default_rng(0)
    s = rng.uniform(1.0, 2.0, 20_000)  # x + y
    x = s * rng.uniform(0.0, 1.0, s.size)
    field = rx.cubic_rational().field
    for p in np.column_stack([x, s - x])[x > 0.0]:
        got, want = field.eval(p), reference_fields.cubic_pow(p)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (p.tolist(), got, want)
