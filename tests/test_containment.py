"""One set-membership rule: ``Polytope.margins`` and ``Polytope.contains``.

Both take a point (n,) or a batch (k, n).  a . x is summed column by column,
as the ray kernels sum it, so a point gets the same margins, bit for bit,
and the same verdict alone and as a row of a batch (``test_equivalence.py``).  Halfspaces with a
non-finite entry are rejected when they are built.  A translated polytope's
offsets are the anchor's margins, and the point-location rule ``locate``
agrees with ``contains`` outside a stated band around each facet.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import band_cases, near_facet, outside, polytopes

import rayvex as rx
from rayvex.cli import main
from rayvex.errors import PointOutsidePolytope
from rayvex.geometry import GEOM_TOL, _facet_dots, locate


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_translated_offsets_are_the_anchor_margins(data):
    polytope, center = data.draw(polytopes())
    t = data.draw(st.one_of(st.just(center), near_facet(polytope, center)))
    moved = polytope.translate(t)
    assert moved.offsets.tobytes() == polytope.margins(t).tobytes()
    assert moved.matrix.tobytes() == polytope.matrix.tobytes()
    assert moved.contains(np.zeros(polytope.dim)) == polytope.contains(t)


@settings(max_examples=200, deadline=None)
@given(band_cases())
def test_locate_and_contains_differ_only_in_the_band(case):
    """Every margin >= 0: both accept; a margin < -2 GEOM_TOL max(1, |a.v|): both reject."""
    polytope, v = case
    if not v.any():
        return
    t = _facet_dots(polytope.matrix, v)
    margins = polytope.margins(v)
    verdicts = (polytope.contains(v), not outside(locate, polytope, v))
    if np.all(margins >= 0.0):
        assert verdicts == (True, True)
    if np.any(margins < -2.0 * GEOM_TOL * np.maximum(1.0, np.abs(t))):
        assert verdicts == (False, False)


def test_a_subnormal_v_along_a_facet_from_a_vertex_is_located():
    """On [0, 1] x [-1, 0], v = (5e-324, 0) has every margin >= 0, and 1 / 5e-324 overflows."""
    box = rx.Polytope.box([0.0, -1.0], [1.0, 0.0])
    v = np.array([5e-324, 0.0])
    assert np.all(box.margins(v) >= 0.0) and box.contains(v)
    trace = locate(box, v)
    assert trace.alpha_minus == 0.0 and trace.alpha_plus == math.inf and trace.alpha_v == 1.0
    assert trace.v_plus.tolist() == [1.0, 0.0] and trace.out_facet == 0


def test_one_ulp_outside_a_facet_through_the_origin_is_in_the_band():
    """On reliability's working box, (-5e-324, 0.5) has margin -5e-324 on x >= 0: contains accepts, locate rejects."""
    entry = rx.reliability()
    model = rx.envelope.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, run_certification=False)
    v = np.array([np.nextafter(0.0, -1.0), 0.5])
    margins = model.polytope.margins(v)
    assert margins.min() == -5e-324
    assert model.polytope.contains(v)
    with pytest.raises(PointOutsidePolytope):
        locate(model.polytope, v)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 5.0])
def test_contains_pins_its_tolerance_on_canonical_margins(scale):
    """Rows given at any scale: a canonical margin of -1.5 GEOM_TOL is outside, -0.5 GEOM_TOL inside."""
    corner = rx.Polytope.from_inequalities(np.diag([scale, 1.0]), [scale, 1.0])  # x <= 1, y <= 1
    a, b = corner.matrix[0, 0], corner.offsets[0]  # the canonical row of x <= 1
    points = np.array([[(b + 1.5 * GEOM_TOL) / a, 0.5], [(b + 0.5 * GEOM_TOL) / a, 0.5]])
    assert np.allclose(corner.margins(points)[:, 0], [-1.5 * GEOM_TOL, -0.5 * GEOM_TOL], rtol=1e-6, atol=0.0)
    assert [corner.contains(x) for x in points] == [False, True]
    assert corner.contains(points).tolist() == [False, True]


def test_points_of_the_wrong_shape_are_rejected():
    box = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), np.float64(0.5)):
        with pytest.raises(ValueError):
            box.margins(bad)
        with pytest.raises(ValueError):
            box.contains(bad)


UNIT_SQUARE_ROWS = ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["a", "b"])
def test_non_finite_rows_are_rejected_when_built(bad, where, tmp_path, capsys):
    a, b = [list(row) for row in UNIT_SQUARE_ROWS[0]], list(UNIT_SQUARE_ROWS[1])
    if where == "a":
        a[1][0] = bad
    else:
        b[1] = bad
    message = f"error: halfspace entries must be finite, got a = {a[1]}, b = {b[1]}\n"
    with pytest.raises(ValueError, match="must be finite"):
        rx.Polytope.from_inequalities(a, b)
    data = {"dim": 2, "halfspaces": [{"a": row, "b": offset} for row, offset in zip(a, b)]}
    with pytest.raises(ValueError, match="must be finite"):
        rx.Polytope.from_json_dict(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # NaN, Infinity and -Infinity, which json reads back
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--function", "bilinear", "--polytope", str(path), "--anchor", "none"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == message
    assert caught == []
