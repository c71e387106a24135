"""The lean scalar point path: bit for bit its reference, byte for byte its CLI rows, no warning on
non-finite points, and the call structure the benchmark's tracer counts."""

import importlib.util
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rayvex as rx
import reference_evaluators as ref
from strategies import bits, band_cases, near_facet, non_finite_points, polytopes
from rayvex import cli
from rayvex import envelope as env
from rayvex import geometry
from rayvex.errors import PointOutsideDomain, PointOutsidePolytope
from rayvex.geometry import lattice

# the evaluators read only this status, so the models drawn here need no certification run
HOMOGENEOUS = SimpleNamespace(positively_homogeneous=SimpleNamespace(status="pass"), all_passed=False)


def _wave(p):
    return float(np.sin(p).sum() + p[0] * p[-1])


def _wave_grad(p):
    g = np.cos(p)
    g[0] += p[-1]
    g[-1] += p[0]
    return g


FIELDS = {  # defined on all of R^n: with and without an analytic gradient (finite differences)
    "wave": lambda n: rx.ScalarField(n, _wave, grad=_wave_grad, name="wave"),
    "wave-fd": lambda n: rx.ScalarField(n, _wave, name="wave-fd"),
}


def _same(a, b) -> bool:
    """Equal bit for bit: arrays and floats by their bytes, traces and results field by field."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float) and not isinstance(a, bool):
        return type(b) is float and bits(a) == bits(b)
    if isinstance(a, rx.RegionId):
        return type(b) is rx.RegionId and (a.in_facet, a.out_facet) == (b.in_facet, b.out_facet)
    return type(a) is type(b) and a == b


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "raise", (type(exc), str(exc))


RESULT_FIELDS = ("value", "trace", "region", "tight", "f")


def _eval_fields(model, x):
    result = env.eval(model, x)
    return tuple(getattr(result, name) for name in RESULT_FIELDS)


EVALUATORS = [(_eval_fields, ref.eval), (env.value, lambda m, x: ref.eval(m, x)[0]),
              (env.eval_homogeneous, ref.eval_homogeneous), (env.gradient, ref.gradient)]


def test_eval_returns_a_named_tuple_with_shared_region_ids(catalog_models):
    model = catalog_models["reliability"][1]
    first, second = env.eval(model, [0.4, 0.7]), env.eval(model, [0.3, 0.8])
    assert isinstance(first, tuple) and type(first)._fields == RESULT_FIELDS
    assert first.region == rx.RegionId(None, 2) and first.region is second.region
    assert rx.region_of(model.polytope, np.array([0.2, 0.9])) is first.region


def _assert_matches_reference(model, x):
    for new, old in EVALUATORS:
        got, want = _outcome(new, model, x), _outcome(old, model, x)
        assert got[0] == want[0] and _same(got[1], want[1]), (new.__name__, x.tolist(), got, want)


def _degenerate_direction(polytope, vertex, s):
    """d such that the line through vertex along d meets P only there, and o = vertex - s d.

    For two facets i, j active at the vertex, d = u_i - u_j (unit normals) has u_i.d > 0 and
    u_j.d < 0, so the line leaves P on both sides of the vertex.
    """
    active = np.flatnonzero(np.abs(polytope.matrix @ vertex - polytope.offsets) <= 1e-9)
    u = polytope.matrix[active[:2]] / np.linalg.norm(polytope.matrix[active[:2]], axis=1)[:, None]
    d = u[0] - u[1]
    return vertex - s * d


POINT_KINDS = ("interior", "facet", "vertex", "anchor", "degenerate", "outside")


def _draw_point(data, model, kind):
    """A point of the given kind in the model's original coordinates."""
    verts = rx.vertices(model.polytope)
    if kind == "interior":
        w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(verts), max_size=len(verts))))
        v = w @ verts / w.sum()
    elif kind == "facet":
        v = data.draw(near_facet(model.polytope, moves=("on",)))
    elif kind in ("vertex", "degenerate"):  # each vertex ray of cobb-douglas's box but two is degenerate
        v = verts[data.draw(st.integers(0, len(verts) - 1))]
    elif kind == "anchor":
        v = np.zeros(model.polytope.dim)
    else:
        v = verts[data.draw(st.integers(0, len(verts) - 1))] * data.draw(st.floats(1.01, 3.0))
    return model.anchor + v


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_catalog_evaluators_match_the_reference_bit_for_bit(catalog_models, data):
    # anchored (bilinear, fractional), concave (reliability), origin outside (cubic), 3-D with
    # degenerate vertex rays (cobb-douglas)
    _, model = catalog_models[data.draw(st.sampled_from(sorted(catalog_models)))]
    x = _draw_point(data, model, data.draw(st.sampled_from(POINT_KINDS)))
    _assert_matches_reference(model, x)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), case=polytopes())
def test_drawn_models_match_the_reference_bit_for_bit(data, case):
    polytope, centre = case
    kind = data.draw(st.sampled_from(POINT_KINDS))
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))](polytope.dim)
    sense = data.draw(st.sampled_from(["convex", "concave"]))
    if kind == "degenerate":
        # the origin on a line that touches P only at one vertex
        verts = rx.vertices(polytope)
        vertex = verts[data.draw(st.integers(0, len(verts) - 1))]
        origin = _degenerate_direction(polytope, vertex, data.draw(st.floats(0.5, 2.0)))
        polytope, anchor = polytope.translate(origin), "none"
    else:
        anchor = data.draw(st.sampled_from(["none", "centre"]))
        anchor = centre if anchor == "centre" else anchor
    model = env.build(field, polytope, sense=sense, anchor=anchor, run_certification=False)
    model = replace(model, certification=HOMOGENEOUS)
    if kind == "degenerate":
        x = vertex - origin
        assume(ref.locate(model.polytope, x).degenerate)  # a second facet within 1e-9 of the vertex can leave a sliver
    else:
        x = _draw_point(data, model, kind)
    _assert_matches_reference(model, x)


@settings(max_examples=60, deadline=None)
@given(case=band_cases())
def test_ray_kernel_matches_the_reference_bit_for_bit(case):
    # points near facets, in the band, along rescaled and subnormal rays
    polytope, v = case
    for new, old in ((rx.ray_intersect, ref.ray_intersect), (geometry.locate, ref.locate)):
        got, want = _outcome(new, polytope, v), _outcome(old, polytope, v)
        assert got[0] == want[0] and _same(got[1], want[1]), (new.__name__, v.tolist(), got, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_facet_products_match_the_column_sums(data):
    # 2-D and 3-D are written out per row; the other dimensions take the column loop
    # generic floats (hypothesis favours round ones, whose sums rarely round differently), rows at 10^[-300, 300]
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = (rng.uniform(-1.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (m, 1))).tolist()
    coords = rng.uniform(-10.0, 10.0, n).tolist()
    assert bits(geometry._facet_products(rows, coords)) == bits(ref._facet_products(rows, coords))


# -- non-finite points ------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_non_finite_points_are_rejected_without_a_warning(catalog_models, data):
    # 0 * inf in the trace's endpoints warned "invalid value encountered in multiply" before the error
    _, model = catalog_models[data.draw(st.sampled_from(sorted(catalog_models)))]
    polytope = model.polytope
    x = data.draw(non_finite_points(polytope.dim))
    v = x - model.anchor
    inside = rx.validate(polytope).interior_point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (env.eval, env.value, env.gradient, env.eval_homogeneous):
            with pytest.raises(PointOutsideDomain, match="outside the model domain"):
                fn(model, x)
        for fn in (rx.ray_intersect, geometry.locate, rx.region_of):
            with pytest.raises(PointOutsidePolytope, match="not finite"):
                fn(polytope, v)
        with pytest.raises(PointOutsidePolytope, match="not finite"):
            rx.secant_raw(model, v)
        with pytest.raises(PointOutsidePolytope, match=r"not finite.*\(row 1\)"):
            rx.ray_intersect_batch(polytope, np.array([inside, v]))
        assert polytope.contains(v) is False
        assert not np.isfinite(polytope.margins(v)).all()


@settings(max_examples=50, deadline=None)
@given(case=polytopes(), data=st.data())
def test_non_finite_directions_are_rejected_by_every_trace_without_a_warning(case, data):
    polytope, centre = case
    v = data.draw(non_finite_points(polytope.dim))
    rows = np.array([centre, v, centre])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (rx.ray_intersect, geometry.locate, rx.region_of):
            with pytest.raises(PointOutsidePolytope, match="not finite"):
                fn(polytope, v)
        with pytest.raises(PointOutsidePolytope, match=r"not finite.*\(row 1\)"):
            rx.ray_intersect_batch(polytope, rows)
        assert polytope.contains(rows).tolist() == [True, False, True]


@pytest.mark.parametrize("point", ["inf,0.5", "0.5,-inf", "nan,0.5", "inf,nan"])
def test_cli_eval_omits_a_non_finite_point_silently(point, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["eval", "--function", "bilinear", "--point", point, "--point", "0.3,0.6", "--budget", "300"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["omitted"] == 1


# -- CLI rows ------------------------------------------------------------------------


def _cubic_polytope_file(tmp_path) -> str:
    # cubic's domain cut at y <= 1.5: the lattice still meets the x = 0 facet, where f is inf
    path = tmp_path / "cubic.json"
    rx.Polytope.from_inequalities(
        [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [0.0, 1.0]], [0.0, 0.0, -1.0, 2.0, 1.5]
    ).save(path)
    return str(path)


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


def _reference_output(argv, capsys) -> str:
    """What the old row writer prints for argv, on the model and points the command builds."""
    args = cli._build_parser().parse_args(argv)
    model, entry = cli._model_from_args(args)
    if args.command == "eval":
        points = [np.array([float(c) for c in raw.split(",")]) for raw in args.point]
        payload = {"command": "eval", "function": entry.name}
    else:
        points = lattice(model.validation.coordinate_bounds + model.anchor[:, None], args.resolution)
        payload = {"command": "grid", "function": entry.name, "resolution": args.resolution}
    rows, omitted = ref.point_rows(model, points)
    ref.emit_rows(payload, rows, omitted, args)
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_row_writer_prints_the_reference_bytes(case, fmt, capsys, tmp_path):
    argv = [_cubic_polytope_file(tmp_path) if arg is None else arg for arg in WRITER_CASES[case]]
    argv += ["--format", fmt, "--budget", "300"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == _reference_output(argv, capsys)
    if fmt == "csv":
        cells = [line.split(",") for line in out.splitlines()[1:-1]]
        if case.startswith("grid-inf") or case.startswith("grid-polytope"):
            g_cells = {row[3] for row in cells}  # x1, x2, f, g, ...
            assert "inf" in g_cells and "nan" not in g_cells  # x = 0, where f is inf: 0 * inf adds 0
        if case == "grid-origin-inside":
            assert ["", ""] in [row[-2:] for row in cells]  # the anchor row
        if case == "eval-all-omitted":
            assert out == "# omitted=2\n"


# -- the call structure the benchmark traces -----------------------------------------


def _bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"rayvex_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(catalog_models):
    tracer = _bench_module("tracer").Tracer()
    tracer.install()
    try:
        for entry, _ in catalog_models.values():
            tracer.instrument_field(entry.field)
        yield tracer
    finally:
        tracer.uninstall()


def _counts(tracer, call) -> dict:
    tracer.begin_op(0)
    try:
        call()
    except rx.errors.RayvexError:
        pass
    return {f"{caller} > {callee}": n for (caller, callee), n in tracer.end_op().items()}


LOCATED = {"geometry.locate > geometry.ray_intersect": 1}
# (call, point kind) -> per call, traced (caller > callee) counts; field evaluations are
# 3 on a ray through P, 2 on a degenerate one (f(x) twice) and 1 at the anchor
EXPECTED = {
    ("value", "ray"): {"envelope.eval > geometry.locate": 1, **LOCATED, "envelope.eval > functions.field": 3},
    ("value", "degenerate"): {"envelope.eval > geometry.locate": 1, **LOCATED, "envelope.eval > functions.field": 2},
    ("value", "anchor"): {"envelope.eval > functions.field": 1},
    ("eval_homogeneous", "ray"): {
        "envelope.eval_homogeneous > geometry.locate": 1, **LOCATED,
        "envelope.eval_homogeneous > geometry.normalize_facet": 1, "envelope.eval_homogeneous > functions.field": 1,
    },
    ("eval_homogeneous", "degenerate"): {
        "envelope.eval_homogeneous > geometry.locate": 1, **LOCATED, "envelope.eval_homogeneous > functions.field": 1,
    },
    ("eval_homogeneous", "anchor"): {},
    ("gradient", "ray"): {
        "envelope.gradient > geometry.locate": 1, **LOCATED, "envelope.gradient > geometry.normalize_facet": 1,
        "envelope.gradient > functions.field": 1, "envelope.gradient > functions.field_grad": 1,
    },
    ("gradient", "anchor"): {},
}
EXPECTED["gradient", "degenerate"] = EXPECTED["gradient", "ray"]  # the gradient reads f and grad f at v_plus alone
POINTS = {  # (catalog entry, point): a ray through P, a degenerate ray, the anchor
    "ray": [("bilinear", [0.3, 0.6]), ("cobb-douglas", [1.3, 1.5, 1.7]), ("reliability", [0.4, 0.7])],
    "degenerate": [("cobb-douglas", [1.0, 2.0, 1.0]), ("cobb-douglas", [2.0, 1.0, 1.0])],
    "anchor": [("bilinear", [0.0, 0.0]), ("reliability", [0.0, 0.0])],
}


@pytest.mark.parametrize("call, kind", sorted(EXPECTED))
def test_each_scalar_call_makes_the_traced_calls_the_benchmark_counts(tracer, catalog_models, call, kind):
    for name, x in POINTS[kind]:
        model = catalog_models[name][1]
        counts = _counts(tracer, lambda: getattr(env, call)(model, np.array(x)))
        own = {f"bench.op > envelope.{call}": 1}
        if call == "value":
            own["envelope.value > envelope.eval"] = 1
        assert counts == {**own, **EXPECTED[call, kind]}, (name, x)


def test_a_grid_command_evaluates_each_lattice_point_once(tracer):
    counts = _counts(tracer, lambda: cli.main(["grid", "--function", "reliability", "--resolution", "9", "--budget", "300"]))
    assert counts["cli.cmd_grid > envelope.eval"] == 81
    assert counts["envelope.eval > geometry.locate"] == 80  # every lattice point but the anchor


@pytest.mark.parametrize("name", sorted(rx.CATALOG_BUILDERS))
def test_a_traced_certify_makes_the_field_calls_the_benchmark_expects(tracer, name):
    # the tracer wraps each catalog field's eval in place when the CLI builds it, which
    # drops the column form: the checks then call f once per point, as the benchmark's
    # certify completeness requires (3 per ray or facet sample; 1, or 2 per homogeneity sample)
    workloads = _bench_module("workloads")
    tracer.begin_op(0)
    output = workloads.run_cli(["certify", "--function", name, "--budget", "400", "--seed", "5"])
    counts = tracer.end_op()
    assert output.code == 0, output.err
    assert counts[("verify.check_ray_concavity", "functions.field")] > 0
    assert workloads.CertifyWorkload().completeness(None, output, counts) is None
