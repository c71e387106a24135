"""The lean scalar point path: its result type, no warning on non-finite points, and the call
structure the benchmark's tracer counts.  ``test_equivalence.py`` holds it to its reference."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayvex as rx
from strategies import non_finite_points, polytopes
from rayvex import cli
from rayvex import envelope as env
from rayvex import geometry
from rayvex.errors import PointOutsideDomain, PointOutsidePolytope

RESULT_FIELDS = ("value", "trace", "region", "tight", "f")


def test_eval_returns_a_named_tuple_with_shared_region_ids(catalog_models):
    model = catalog_models["reliability"][1]
    first, second = env.eval(model, [0.4, 0.7]), env.eval(model, [0.3, 0.8])
    assert isinstance(first, tuple) and type(first)._fields == RESULT_FIELDS
    assert first.region == rx.RegionId(None, 2) and first.region is second.region
    assert rx.region_of(model.polytope, np.array([0.2, 0.9])) is first.region


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
# (call, point kind) -> per call, traced (caller > callee) counts.  Field evaluations: value 2 on a
# ray through P (f(v_minus), f(v_plus)), eval 3 (f(x) too); both 1 on a degenerate ray and at the
# anchor, where g is f(x); eval_homogeneous 1; gradient 1, plus one grad
EXPECTED = {
    ("value", "ray"): {"envelope.value > geometry.locate": 1, **LOCATED, "envelope.value > functions.field": 2},
    ("value", "degenerate"): {"envelope.value > geometry.locate": 1, **LOCATED, "envelope.value > functions.field": 1},
    ("value", "anchor"): {"envelope.value > functions.field": 1},
    ("eval", "ray"): {"envelope.eval > geometry.locate": 1, **LOCATED, "envelope.eval > functions.field": 3},
    ("eval", "degenerate"): {"envelope.eval > geometry.locate": 1, **LOCATED, "envelope.eval > functions.field": 1},
    ("eval", "anchor"): {"envelope.eval > functions.field": 1},
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
        assert counts == {f"bench.op > envelope.{call}": 1, **EXPECTED[call, kind]}, (name, x)


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
