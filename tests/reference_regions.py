"""Polygon-clipping reference for ``rayvex.geometry.enumerate_regions_2d``.

This is the engine the ray-traced cell construction replaced: facet edges
detected among the vertices, then one triangle per edge when the origin lies
in P, or the vertex polygon clipped (Sutherland-Hodgman) to the pair of
sectors spanned by two edges when it does not.  Cells are named by
``region_of`` at their vertex centroid.  Tests compare the two engines'
ids and cells; this one can repeat a vertex, and when the origin lies within
rounding of a facet's line its cells can leak outside P.
"""

import itertools

import numpy as np

from rayvex.errors import EmptyInterior
from rayvex.geometry import ALGEBRA_TOL, DEDUP_TOL, GEOM_TOL, polygon_area, region_of, vertices


def order_ccw(points):
    """Order 2-D points counterclockwise around their centroid."""
    p = np.asarray(points, dtype=float)
    c = p.mean(axis=0)
    ang = np.arctan2(p[:, 1] - c[1], p[:, 0] - c[0])
    return p[np.argsort(ang, kind="stable")]


def _clip_halfplane(poly, normal, offset):
    """Sutherland-Hodgman clip of a convex polygon against normal.x <= offset."""
    if len(poly) == 0:
        return poly
    kept = []
    vals = poly @ normal - offset
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        inside_i = vals[i] <= ALGEBRA_TOL
        inside_j = vals[j] <= ALGEBRA_TOL
        if inside_i:
            kept.append(poly[i])
        if inside_i != inside_j:
            denom = vals[i] - vals[j]
            if abs(denom) > 1e-300:
                s = vals[i] / denom
                kept.append(poly[i] + s * (poly[j] - poly[i]))
    return np.array(kept) if kept else np.zeros((0, 2))


def _facet_edges_2d(polytope, verts):
    """Endpoints of each facet that is a genuine edge of the 2-D polytope."""
    edges = {}
    for i, (a, b) in enumerate(zip(polytope.matrix, polytope.offsets)):
        on = verts[np.abs(verts @ a - b) <= GEOM_TOL]
        if len(on) < 2:
            continue
        tangent = np.array([-a[1], a[0]])
        proj = on @ tangent
        w1, w2 = on[np.argmin(proj)], on[np.argmax(proj)]
        if np.max(np.abs(w1 - w2)) <= DEDUP_TOL:
            continue
        edges[i] = (w1, w2)
    return edges


def _sector_constraints(w1, w2):
    """Halfplane pair cutting out cone{w1, w2}, or None when degenerate."""
    cross = w1[0] * w2[1] - w1[1] * w2[0]
    if abs(cross) <= ALGEBRA_TOL * max(1.0, float(np.abs(w1).max() * np.abs(w2).max())):
        return None  # endpoints on one ray through the origin: flat cone
    if cross < 0:
        w1, w2 = w2, w1
    return (
        (np.array([w1[1], -w1[0]]), 0.0),  # cross(w1, x) >= 0
        (np.array([-w2[1], w2[0]]), 0.0),  # cross(x, w2) >= 0
    )


def regions_by_clipping(polytope):
    """(RegionId, ccw polygon) per cell, sorted by (in, out), as the clipping engine built them."""
    verts = vertices(polytope)
    if len(verts) < 3:
        raise EmptyInterior("fewer than 3 vertices")
    edges = _facet_edges_2d(polytope, verts)

    cells = []
    if polytope.contains(np.zeros(2)):
        zero = np.zeros(2)
        for w1, w2 in edges.values():
            tri = np.array([zero, w1, w2])
            if polygon_area(tri) <= 1e-10:
                continue
            poly = order_ccw(tri)
            cells.append((region_of(polytope, poly.mean(axis=0)), poly))
    else:
        base = order_ccw(verts)
        for i, j in itertools.combinations(sorted(edges), 2):
            poly = base
            degenerate = False
            for k in (i, j):
                constraints = _sector_constraints(*edges[k])
                if constraints is None:
                    degenerate = True
                    break
                for normal, offset in constraints:
                    poly = _clip_halfplane(poly, normal, offset)
            if degenerate or polygon_area(poly) <= 1e-10:
                continue
            poly = order_ccw(poly)
            cells.append((region_of(polytope, poly.mean(axis=0)), poly))

    cells.sort(key=lambda item: (-1 if item[0].in_facet is None else item[0].in_facet, item[0].out_facet))
    return cells


def without_repeats(poly):
    """The polygon with each vertex that repeats its predecessor (cyclically, within DEDUP_TOL) removed."""
    keep = [k for k in range(len(poly)) if np.max(np.abs(poly[k] - poly[k - 1])) > DEDUP_TOL]
    return poly[keep]

