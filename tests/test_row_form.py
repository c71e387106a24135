"""The working field's row form: one batch through ``functions._eval_rows`` gives the
scalar closure's bits and calls f exactly as a per-point loop does.

The bulk loops of ``verify`` (the sampled checks, the corollary's scalings and
``oracle_build``) evaluate through the row form, so these tests also state the
call counts that a tracer wrapping the user's f sees there: one call per point,
in sample order, with a 1-D float64 row.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import bits

import rayvex as rx
from rayvex import envelope as env
from rayvex import verify
from rayvex.functions import _eval_rows

ANCHORS = ("none", "origin-shift", "vector", "-0.0")
SENSES = ("convex", "concave")
RETURNS = (float, np.float64, np.float32)  # what the drawn field hands back


class _Ball:
    """-x*y, except nan, inf or -inf within a ball, returned as float, np.float64 or np.float32."""

    def __init__(self, center, radius, bad, kind):
        self.center, self.radius, self.bad, self.kind = center, radius, bad, kind

    def __call__(self, p):
        coords = p.tolist()
        if math.dist(coords, self.center) <= self.radius:
            return self.kind(self.bad)
        return self.kind(-coords[0] * coords[1])


def _poisoned(data):
    """A planar field that is not finite on a drawn ball of [-1, 1] x [-0.5, 2]."""
    center = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 2.0)), label="center")
    ball = _Ball(
        center,
        data.draw(st.floats(0.05, 1.0), label="radius"),
        data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad"),
        data.draw(st.sampled_from(RETURNS), label="returns"),
    )
    return rx.ScalarField(2, ball, name="ball"), rx.Polytope.box([-1.0, -0.5], [1.0, 2.0])


def _model(data, field, polytope):
    """field over polytope under a drawn anchor and sense, uncertified.

    The origin anchors need the origin in P; a P without it is moved so that
    its vertex mean is the origin.
    """
    kind = data.draw(st.sampled_from(ANCHORS), label="anchor")
    corners = rx.vertices(polytope)
    if kind in ("origin-shift", "-0.0") and not polytope.contains(np.zeros(polytope.dim)):
        polytope = polytope.translate(corners.mean(axis=0))
        corners = rx.vertices(polytope)
    if kind == "vector":
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=len(corners), max_size=len(corners))))
        anchor = corners.mean(axis=0) if weights.sum() == 0 else weights @ corners / weights.sum()
    elif kind == "-0.0":
        anchor = np.array([-0.0] + [0.0] * (polytope.dim - 1))
    else:
        anchor = kind
    sense = data.draw(st.sampled_from(SENSES), label="sense")
    return env.build(field, polytope, sense=sense, anchor=anchor, run_certification=False)


def _points(data, dim, max_rows=12):
    """A (k, dim) array with k in [0, max_rows]: coordinates in [-3, 3], signed zeros, infinities and nan."""
    coordinate = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    rows = data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), max_size=max_rows), label="points")
    return np.array(rows, dtype=float).reshape(-1, dim)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_form_gives_the_scalar_bits(data):
    if data.draw(st.booleans(), label="catalog"):
        entry = data.draw(st.sampled_from(rx.catalog()), label="entry")
        field, polytope = entry.field, entry.default_polytope
    else:
        field, polytope = _poisoned(data)
    model = _model(data, field, polytope)
    points = _points(data, polytope.dim)
    got = _eval_rows(model.field, points)
    want = [model.field.eval(p) for p in points]
    assert got.dtype == np.float64 and got.shape == (len(points),)
    assert bits(got) == bits(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sample_values_keeps_the_first_non_finite_witness(data):
    field, polytope = _poisoned(data)
    model = _model(data, field, polytope)
    per_sample = data.draw(st.integers(1, 3), label="per_sample")
    flat = _points(data, 2, max_rows=4 * per_sample)
    points = flat[: len(flat) // per_sample * per_sample].reshape(-1, per_sample, 2)
    values, bad = verify._sample_values(model.field, points)
    # the loop it replaces: every point in order, the first non-finite one named
    loop = [float(model.field.eval(p)) for p in points.reshape(-1, 2)]
    first = next((k for k, value in enumerate(loop) if not math.isfinite(value)), None)
    want_bad = None if first is None else divmod(first, per_sample)
    done = len(points) if first is None else first // per_sample
    assert bad == want_bad
    assert values.shape == (done, per_sample)
    assert bits(values) == bits(loop[: done * per_sample])


# -- the per-point call contract under the row form ---------------------------


@pytest.mark.parametrize("sense", SENSES)
@pytest.mark.parametrize("anchor", ["none", "origin-shift", (0.3, 0.2), (-0.0, 0.0)])
def test_rows_call_f_once_per_row_in_order_on_float64_rows(anchor, sense):
    entry = rx.reliability()
    field = replace(entry.field)
    model = env.build(field, entry.default_polytope, sense=sense, anchor=anchor, run_certification=False)
    seen = []  # f's eval replaced in place after build, as a tracer does: the row form looks it up per batch
    object.__setattr__(field, "eval", lambda p: seen.append((p.dtype, p.ndim, bits(p))) or entry.field.eval(p))
    points = [[0.2, 0.4], [-0.0, 0.5], [0.7, 0.1], [0.2, 0.4]]  # a list: the rows still reach f as float64 arrays
    values = _eval_rows(model.field, points)
    shift = model.anchor if model.anchor.any() else None  # no add at a zero anchor: -0.0 reaches f as -0.0
    want = [(np.dtype(float), 1, bits(np.array(p) if shift is None else np.array(p) + shift)) for p in points]
    assert seen == want
    assert bits(values) == bits([model.field.eval(np.array(p, dtype=float)) for p in points])


def test_a_replaced_working_eval_is_called_once_per_row():
    # replace(model.field, eval=...) drops the row form: the replacement sees every row
    entry = rx.bilinear_neg(-1.0, -1.0, 2.0, 2.0)
    model = env.build(entry.field, entry.default_polytope, sense="concave", anchor=(0.5, 0.25), run_certification=False)
    evaluate, seen = model.field.eval, []
    counted = replace(model.field, eval=lambda p: seen.append(bits(p)) or evaluate(p))
    points = np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 1.5]])
    assert bits(_eval_rows(counted, points)) == bits(_eval_rows(model.field, points))
    assert seen == [bits(p) for p in points]
    assert len(_eval_rows(counted, np.empty((0, 2)))) == 0 and len(seen) == 3


def test_a_wrapped_working_eval_is_called_once_per_row():
    # functools.wraps copies the row form onto the wrapper, which must not bypass it
    entry = rx.reliability()
    model = env.build(entry.field, entry.default_polytope, sense="convex", anchor=(0.5, 0.25), run_certification=False)
    evaluate, seen = model.field.eval, []

    @functools.wraps(evaluate)
    def counting(p):
        seen.append(bits(p))
        return evaluate(p)

    points = np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 1.5]])
    assert bits(_eval_rows(replace(model.field, eval=counting), points)) == bits(_eval_rows(model.field, points))
    assert seen == [bits(p) for p in points]


@pytest.mark.parametrize("name", ["bilinear", "fractional", "reliability", "cubic"])
def test_oracle_build_calls_f_once_per_point_kept_or_skipped(name):
    # the benchmark's compare completeness: finite oracle field calls = oracle points
    entry = rx.CATALOG_BUILDERS[name]()
    field = replace(entry.field)
    model = env.build(
        field, entry.default_polytope, sense=entry.build_sense, anchor=entry.default_anchor, run_certification=False
    )
    results, evaluate = [], field.eval
    object.__setattr__(field, "eval", lambda p: results.append(evaluate(p)) or results[-1])
    oracle = rx.oracle_build(model.field, model.polytope, grid_density=12)
    finite = sum(map(math.isfinite, results))
    assert finite == len(oracle.points) and len(results) - finite == oracle.skipped


@pytest.mark.parametrize("sense", SENSES)
def test_corollary_convexity_calls_f_once_per_sampled_point(sense):
    entry = rx.cobb_douglas()
    calls = []
    field = replace(entry.field, eval=lambda p: calls.append(p) or entry.field.eval(p))
    n_samples = 300
    result = verify.check_corollary_convexity(field, entry.default_polytope, sense=sense, seed=4, n_samples=n_samples)
    n_hom = min(n_samples, 2000)
    facet_samples = result.samples - len(verify._SCALING_FACTORS) * n_hom - n_samples
    # f(v) and its three scalings per homogeneity point, three per facet and per global sample
    assert len(calls) == n_hom * (1 + 3) + 3 * (facet_samples + n_samples)
