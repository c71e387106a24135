"""One error family: every failure rayvex raises is a RayvexError, and malformed input an InvalidInput."""

import ast
import builtins
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import polytope_json

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import DimensionMismatch, InvalidInput, RayvexError

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rayvex").glob("*.py"))
BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
}
BOX2D = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])


def _builtin_raises(source: str, name: str) -> list[str]:
    """``name:line exception`` for each ``raise E(...)`` or ``raise E`` of a builtin exception E, in line order."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id in BUILTIN_EXCEPTIONS:
                found.append((node.lineno, f"{name}:{node.lineno} {raised.id}"))
    return [hit for _, hit in sorted(found)]


def test_the_library_raises_no_builtin_exception():
    # there were 24 bare ValueError raises beside the typed classes
    assert len(SOURCES) >= 8
    assert [hit for path in SOURCES for hit in _builtin_raises(path.read_text(), path.name)] == []


def test_the_guard_sees_a_builtin_raise():
    source = "def f(x):\n    if x:\n        raise ValueError('bad')\n    raise KeyError\n    raise RayvexError('typed')\n"
    assert _builtin_raises(source, "probe.py") == ["probe.py:3 ValueError", "probe.py:4 KeyError"]


def test_input_errors_are_value_errors_and_rayvex_errors():
    # callers' "except ValueError" keeps catching what used to be a bare ValueError
    assert issubclass(InvalidInput, RayvexError) and issubclass(InvalidInput, ValueError)
    assert issubclass(DimensionMismatch, InvalidInput)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rx.ray_intersect(BOX2D, [1.0, 2.0, 3.0]),
        lambda: rx.ray_intersect_batch(BOX2D, np.ones((2, 3))),
        lambda: rx.ray_intersect_batch(BOX2D, np.ones(2)),
        lambda: BOX2D.margins([1.0, 2.0, 3.0]),
        lambda: rx.solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0]),
        lambda: env.build(rx.cobb_douglas().field, BOX2D, run_certification=False),
        lambda: env.build(rx.bilinear_neg().field, BOX2D, anchor=[0.5, 0.5, 0.5], run_certification=False),
    ],
    ids=["ray_intersect", "ray_intersect_batch", "ray_intersect_batch_1d", "margins", "solve_lp", "build", "anchor"],
)
def test_a_dimension_mismatch_has_one_type(call):
    # ray_intersect raised ValueError("direction dimension 3 != 2") where build raised DimensionMismatch
    with pytest.raises(DimensionMismatch):
        call()


@pytest.fixture(scope="module")
def bilinear_model():
    entry = rx.bilinear_neg()
    return env.build(entry.field, entry.default_polytope, budget=200)


@pytest.mark.parametrize("evaluator", [env.value, env.eval, env.eval_homogeneous, env.gradient])
@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5]], ids=["1-D", "3-D"])
def test_a_point_of_another_dimension_is_a_dimension_mismatch(evaluator, point, bilinear_model):
    # [0.5] broadcast to (0.5, 0.5) and was evaluated there; a 3-vector raised numpy's broadcast ValueError
    assert bilinear_model.homogeneity_certified
    with pytest.raises(DimensionMismatch, match=f"^point dimension {len(point)} != 2$"):
        evaluator(bilinear_model, point)


def test_ints_past_float_range_are_not_numbers():
    # int() and numpy raise OverflowError for them
    halfspace = {"a": [1, 10**400], "b": 1}
    with pytest.raises(InvalidInput, match="^halfspace entries must be numbers$"):
        rx.Polytope.from_json_dict({"dim": 2, "halfspaces": [halfspace]})
    with pytest.raises(InvalidInput, match="^polytope JSON 'dim' must be an integer"):
        rx.Polytope.from_json_dict({"dim": 10**400, "halfspaces": [halfspace]})


def test_a_negative_seed_is_an_input_error():
    with pytest.raises(InvalidInput, match="seed must be non-negative, got -1"):
        rx.sample_interior(BOX2D, -1, 3)


@settings(max_examples=100, deadline=None)
@given(data=polytope_json())
def test_any_json_shaped_value_gives_a_polytope_or_invalid_input(data):
    # "dim": Infinity was an OverflowError; ragged rows numpy's ValueError; "dim": 2.7 loaded as 2-D;
    # numeric strings and bools loaded as numbers, and any value as a label
    try:
        polytope = rx.Polytope.from_json_dict(data)
    except InvalidInput:
        return
    assert polytope.dim == float(data["dim"])
    assert math.isfinite(float(data["dim"]))
    for item in data["halfspaces"]:
        for entry in [*item["a"], *(item["b"] if isinstance(item["b"], list) else [item["b"]])]:
            assert type(entry) in (int, float)
        assert isinstance(item.get("label"), (str, type(None)))
