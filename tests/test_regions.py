"""The 2-D ray subdivision: cells built from traced vertex rays.

``enumerate_regions_2d`` traces the mid-ray between each pair of angularly
adjacent vertex rays once and puts the cell's corners on the traced facets'
lines a.x = 1.  These tests hold it to the polygon-clipping engine it
replaced (``tests/reference_regions.py``) where that engine partitions P,
and to the partition itself everywhere: areas summing to area(P), corners
in P, counterclockwise cells with distinct vertices, and ``region_of``
naming each cell by its id.

The partition property draws polygons whose edges and turns are bounded
below.  Hulls of arbitrary points can have vertices 1e-7 apart, where the
absolute tolerances (GEOM_TOL in ``_meets``, DEDUP_TOL, the 1e-10 area
filter) decide ids and cells; there only the shape guarantees are required.
"""

import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from reference_regions import order_ccw, regions_by_clipping, without_repeats
from strategies import placed_polygons

import rayvex as rx
from rayvex.cli import main
from rayvex.errors import RayvexError, UnboundedPolytope
from rayvex.geometry import DEDUP_TOL, polygon_area


def signed_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def assert_ccw_with_distinct_vertices(poly):
    assert signed_area(poly) > 0.0
    assert np.abs(poly - np.roll(poly, 1, axis=0)).max(axis=1).min() > DEDUP_TOL  # consecutive, cyclically


def partitions(polytope, cells):
    """Whether the cells' areas sum to area(P) within 1e-9 relative and every corner lies in P."""
    area = polygon_area(order_ccw(rx.vertices(polytope)))
    total = sum(polygon_area(poly) for _, poly in cells)
    return abs(total - area) <= 1e-9 * area and all(polytope.contains(poly).all() for _, poly in cells)


def same_cycle(p, q, tol):
    """Whether polygons p and q list the same vertices within tol, up to the starting vertex."""
    return len(p) == len(q) and any(np.abs(np.roll(p, s, axis=0) - q).max() <= tol for s in range(len(p)))


def same_cells(polytope, cells, reference):
    """Whether each cell lists its reference cell's vertices within 1e-9 x the polytope's scale."""
    tol = 1e-9 * max(1.0, float(np.abs(rx.vertices(polytope)).max()))
    return all(same_cycle(poly, without_repeats(ref), tol) for (_, poly), (_, ref) in zip(cells, reference))


@settings(max_examples=300, deadline=None)
@given(placed_polygons())
def test_cells_partition_p_and_match_the_clipping_engine(case):
    placement, polytope = case
    event(f"origin: {placement}")
    cells = rx.enumerate_regions_2d(polytope)
    assert cells
    assert partitions(polytope, cells)
    for rid, poly in cells:
        assert_ccw_with_distinct_vertices(poly)
        center = poly.mean(axis=0)
        for inner in [center] + [0.5 * (center + corner) for corner in poly]:
            assert rx.region_of(polytope, inner) == rid

    reference = regions_by_clipping(polytope)
    assert [rid for rid, _ in cells] == [rid for rid, _ in reference]
    event(f"clipping engine partitions P: {partitions(polytope, reference)}")
    if partitions(polytope, reference):
        assert same_cells(polytope, cells, reference)


@settings(max_examples=200, deadline=None)
@given(placed_polygons(conditioned=False))
def test_any_polygon_gets_ccw_cells_with_distinct_vertices_or_a_validate_error(case):
    _, polytope = case
    try:
        rx.validate(polytope)
    except RayvexError:
        return
    for _, poly in rx.enumerate_regions_2d(polytope):
        assert_ccw_with_distinct_vertices(poly)


@pytest.mark.parametrize("rows, offsets", [
    # the mid-ray between two vertex rays 1e-7 apart misses P by rounding (the clipping engine raised here)
    ([[-1e-07, -0.0078125], [0.0, -0.9921875], [1.0, -0.1875], [-0.9999999, 1.1875]],
     [0.0, 9.921874999999999e-08, 1.00000001875, -1.665881667282102e-16]),
    # a mid-ray leaves P through facet 0, whose line passes through the origin
    ([[-1e-07, -0.0078125], [0.0, -0.9921875], [3.0, 1.0], [-2.9999999, 0.0]], [0.0, 9.921874999999999e-08, 2.9999999, 0.0]),
])
def test_vertices_within_1e_7_of_the_origin_still_partition_p(rows, offsets):
    polytope = rx.Polytope.from_inequalities(rows, offsets)
    cells = rx.enumerate_regions_2d(polytope)
    assert partitions(polytope, cells)
    for _, poly in cells:
        assert_ccw_with_distinct_vertices(poly)


@pytest.mark.parametrize("rows, offsets", [
    ([[0, -1], [-1, 0], [-1, -1], [-1, 1]], [0, 0, -1, 5]),  # an unbounded strip in x
    ([[0, -1], [-1, 0], [-1, -1]], [0, 0, -1]),  # the quadrant minus a corner: two vertices
])
def test_unbounded_polytope_raises_the_validate_error(rows, offsets):
    with pytest.raises(UnboundedPolytope):
        rx.enumerate_regions_2d(rx.Polytope.from_inequalities(rows, offsets))


def test_origin_within_rounding_of_a_facet_line_keeps_cells_in_p():
    # the origin lies 7.6e-13 off the line of the last facet, outside P; on the
    # user's rows the clipping engine's cells summed to 128.586 and left P
    a = [
        [-85.10284152403085, 45.5362302241834],
        [-30.612155861164247, 14.99666043911262],
        [-19.218425548048064, 7.8553215897973985],
        [-27.312818330195825, -10.009416404389002],
        [28.584139300198753, -13.969498522851744],
    ]
    b = [-886.8156384869142, 77.34986697053492, 518.4388519450152, 7053.169479651414, -7.602807272633072e-13]
    polytope = rx.Polytope.from_inequalities(a, b)
    cells = rx.enumerate_regions_2d(polytope)
    assert polygon_area(order_ccw(rx.vertices(polytope))) == pytest.approx(127.868, abs=1e-3)
    assert partitions(polytope, cells)
    reference = regions_by_clipping(polytope)
    assert partitions(polytope, reference)  # canonical rows put its GEOM_TOL tests on distances
    assert [rid for rid, _ in cells] == [rid for rid, _ in reference]
    assert same_cells(polytope, cells, reference)


def check_regions_output(out):
    """Each printed cell: ccw, distinct vertices, every corner less the anchor on a_minus or a_plus, or the anchor."""
    payload = json.loads(out)
    anchor = np.array(payload["anchor"])
    for region in payload["regions"]:
        poly = np.array(region["polygon"])
        assert_ccw_with_distinct_vertices(poly)
        for corner in poly - anchor:
            lines = [a for a in (region["a_minus"], region["a_plus"]) if a is not None]
            assert any(abs(np.dot(a, corner) - 1.0) <= 1e-12 for a in lines) or not corner.any()
    return payload["regions"]


def test_regions_output_has_distinct_vertices_on_its_facets(capsys):
    # the clipping engine printed the quadrilateral with 6 points and each triangle with 4
    code = main(["regions", "--function", "bilinear", "--lx", "1", "--ly", "1", "--ux", "2", "--uy", "3",
                 "--anchor", "none", "--budget", "400"])
    assert code == 0
    regions = check_regions_output(capsys.readouterr().out)
    assert sorted(len(r["polygon"]) for r in regions) == [3, 3, 4]


def test_regions_output_when_the_anchor_is_within_rounding_outside_a_facet(tmp_path, capsys):
    # the anchor is 1e-13 outside x >= 0, so every ray enters through that facet; printing its
    # normal raised HyperplaneThroughOrigin ("facet[1] has b = 0") and exited 1
    path = tmp_path / "box.json"
    rx.Polytope.from_inequalities([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1e-13, 1, 0.5]).save(path)
    code = main(["regions", "--function", "bilinear", "--polytope", str(path), "--anchor", "none", "--budget", "400"])
    assert code == 0
    regions = check_regions_output(capsys.readouterr().out)
    assert [(r["in_facet"], r["a_minus"]) for r in regions] == [(1, None)] * 3
