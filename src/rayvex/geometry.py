"""Polytopes in halfspace form and ray/boundary intersection geometry.

Everything here is desk scale: dense numpy throughout, brute-force vertex
enumeration over active sets, and explicit region enumeration only in 2-D.
Halfspaces are always oriented as a.x <= b.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionNotSupported,
    EmptyInterior,
    HyperplaneThroughOrigin,
    PointOutsidePolytope,
    RayMissesPolytope,
    SamplingBudgetExceeded,
    UnboundedPolytope,
    ZeroDirection,
)
from .simplex import solve_inequality_lp

GEOM_TOL = 1e-9  # activity / containment decisions
ALGEBRA_TOL = 1e-12  # algebraic identities
DEDUP_TOL = 1e-8  # vertex deduplication
INTERIOR_MARGIN = 1e-10  # strict-containment margin for sampled points


@dataclass(frozen=True, eq=False)
class Halfspace:
    """One inequality a.x <= b."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).reshape(-1))
        object.__setattr__(self, "b", float(self.b))
        if not np.any(self.a != 0.0):
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True, eq=False)
class Polytope:
    """Bounded intersection of halfspaces with nonempty interior.

    Boundedness and the interior point are not checked at construction;
    ``validate`` does that (and model building always validates).
    """

    halfspaces: tuple[Halfspace, ...]
    dim: int
    facet_labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if not self.halfspaces:
            raise ValueError("polytope needs at least one halfspace")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for h in self.halfspaces:
            if h.a.size != self.dim:
                raise ValueError(f"halfspace dimension {h.a.size} != {self.dim}")
        if self.facet_labels is not None:
            labels = tuple(self.facet_labels)
            if len(labels) != len(self.halfspaces):
                raise ValueError("facet_labels length must match halfspace count")
            object.__setattr__(self, "facet_labels", labels)

    @cached_property
    def matrix(self) -> np.ndarray:
        return np.array([h.a for h in self.halfspaces], dtype=float)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.array([h.b for h in self.halfspaces], dtype=float)

    @cached_property
    def _rows(self) -> list[list[float]]:
        return self.matrix.tolist()

    @cached_property
    def _offset_list(self) -> list[float]:
        return self.offsets.tolist()

    @cached_property
    def _validation(self) -> "ValidationReport":
        return _validate(self)  # a raise caches nothing: only valid polytopes keep a report

    @property
    def n_facets(self) -> int:
        return len(self.halfspaces)

    def margins(self, x) -> np.ndarray:
        """Slack b - A x per halfspace (negative entries are violations)."""
        return self.offsets - self.matrix @ np.asarray(x, dtype=float)

    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        return bool(self.margins(x).min() >= -tol)

    def translate(self, t) -> "Polytope":
        """The shifted polytope P - t (so x in result iff x + t in self)."""
        t = np.asarray(t, dtype=float)
        moved = tuple(Halfspace(h.a, h.b - float(h.a @ t)) for h in self.halfspaces)
        return Polytope(moved, self.dim, self.facet_labels)

    def label(self, index: int) -> str:
        if self.facet_labels is not None and self.facet_labels[index]:
            return self.facet_labels[index]
        return f"facet[{index}]"

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.size != upper.size or np.any(lower >= upper):
            raise ValueError("box needs lower < upper per coordinate")
        n = lower.size
        halfspaces = []
        labels = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            halfspaces.append(Halfspace(e, upper[i]))
            labels.append(f"x{i + 1}<={upper[i]:g}")
            halfspaces.append(Halfspace(-e, -lower[i]))
            labels.append(f"x{i + 1}>={lower[i]:g}")
        return cls(tuple(halfspaces), n, tuple(labels))

    @classmethod
    def from_inequalities(cls, a_matrix, b_vector, labels=None) -> "Polytope":
        a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
        b_vector = np.asarray(b_vector, dtype=float).reshape(-1)
        hs = tuple(Halfspace(a_matrix[i], b_vector[i]) for i in range(a_matrix.shape[0]))
        return cls(hs, a_matrix.shape[1], tuple(labels) if labels else None)

    # -- JSON wire format: {"dim": n, "halfspaces": [{"a": [...], "b": ..., "label": ...}]}

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "halfspaces": [
                {
                    "a": list(h.a),
                    "b": h.b,
                    **({"label": self.facet_labels[i]} if self.facet_labels and self.facet_labels[i] else {}),
                }
                for i, h in enumerate(self.halfspaces)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polytope":
        hs = tuple(Halfspace(item["a"], item["b"]) for item in data["halfspaces"])
        labels = tuple(item.get("label") for item in data["halfspaces"])
        if not any(labels):
            labels = None
        return cls(hs, int(data["dim"]), labels)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Polytope":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True, eq=False)
class NormalizedFacet:
    """Facet hyperplane rescaled so it reads a.x = 1."""

    index: int
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class RayTrace:
    """Intersection data of the ray {alpha * v : alpha >= 0} with a polytope.

    Scalings are relative to v itself, i.e. v_minus = alpha_minus * v and
    v_plus = alpha_plus * v; when v lies in the polytope, alpha_minus <= 1
    <= alpha_plus and v = alpha_v * v_minus + (1 - alpha_v) * v_plus.
    """

    v: np.ndarray
    alpha_minus: float
    alpha_plus: float
    v_minus: np.ndarray
    v_plus: np.ndarray
    in_facet: int | None
    out_facet: int
    alpha_v: float
    degenerate: bool = False


@dataclass(frozen=True)
class RegionId:
    """Pair of facets (entry, exit) naming one cell of the ray subdivision.

    in_facet is None exactly when the polytope contains the origin.
    """

    in_facet: int | None
    out_facet: int


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Boundedness, interior point and origin classification for a polytope."""

    coordinate_bounds: np.ndarray  # (n, 2) per-coordinate [min, max]
    interior_point: np.ndarray
    interior_margin: float
    origin_location: str  # "interior" | "boundary" | "outside"
    origin_on_facet_interior: bool

    @property
    def origin_in_polytope(self) -> bool:
        return self.origin_location != "outside"

    def to_dict(self) -> dict:
        return {
            "coordinate_bounds": self.coordinate_bounds.tolist(),
            "interior_point": self.interior_point.tolist(),
            "interior_margin": self.interior_margin,
            "origin_location": self.origin_location,
            "origin_on_facet_interior": self.origin_on_facet_interior,
        }


def validate(polytope: Polytope) -> ValidationReport:
    """Check boundedness and interior nonemptiness via per-coordinate LPs.

    Raises UnboundedPolytope / EmptyInterior; on success reports coordinate
    bounds, a (Chebyshev-center) interior point and where the origin sits.
    The unusual configuration "origin in the relative interior of a single
    facet" is flagged rather than rejected.  The report of a successful
    validation is kept on the (immutable) polytope, so later calls solve no
    LPs; its arrays are read-only because every caller shares them.
    """
    return polytope._validation


def _validate(polytope: Polytope) -> ValidationReport:
    a = polytope.matrix
    b = polytope.offsets
    n = polytope.dim

    bounds = np.zeros((n, 2))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        low = solve_inequality_lp(e, a, b)
        if low.status == "infeasible":
            raise EmptyInterior("polytope is empty")
        if low.status == "unbounded":
            raise UnboundedPolytope(f"coordinate x{i + 1} is unbounded below")
        high = solve_inequality_lp(-e, a, b)
        if high.status == "unbounded":
            raise UnboundedPolytope(f"coordinate x{i + 1} is unbounded above")
        bounds[i] = (low.objective, -high.objective)

    # Chebyshev center: max t s.t. a_i.x + |a_i| t <= b_i.
    norms = np.linalg.norm(a, axis=1)
    cheb = solve_inequality_lp(
        np.concatenate([np.zeros(n), [-1.0]]),
        np.hstack([a, norms[:, None]]),
        b,
    )
    if cheb.status != "optimal":
        raise EmptyInterior("interior-point search failed")
    margin = -cheb.objective
    if margin <= GEOM_TOL:
        raise EmptyInterior(f"no interior point (best margin {margin:.3e})")
    center = cheb.x[:n].copy()
    bounds.setflags(write=False)
    center.setflags(write=False)

    if np.any(b < -GEOM_TOL):
        origin = "outside"
        on_facet_interior = False
    else:
        active = int(np.count_nonzero(np.abs(b) <= GEOM_TOL))
        origin = "interior" if active == 0 else "boundary"
        on_facet_interior = active == 1
    return ValidationReport(bounds, center, float(margin), origin, on_facet_interior)


def _facet_products(rows: list[list[float]], coords: list[float]) -> list[float]:
    """a_i . v for every facet row, summed left to right in plain floats.

    Column by column, as ``ray_intersect_batch`` sums, so the two kernels
    see bit-identical a_i . v.
    """
    x = coords[0]
    products = [row[0] * x for row in rows]
    for j in range(1, len(coords)):
        x = coords[j]
        products = [acc + row[j] * x for acc, row in zip(products, rows)]
    return products


def _interval_rules(alpha_lo, alpha_hi):
    """(empty, degenerate) for trace intervals [alpha_lo, alpha_hi].

    Shared by both ray kernels; works on floats and elementwise on arrays.
    Both tests are relative to alpha_hi, so the verdict on v and on any
    positive multiple of v is the same.
    """
    gap = alpha_hi - alpha_lo
    slack = ALGEBRA_TOL * alpha_hi
    return (alpha_hi < 0.0) | (gap < -slack), gap <= slack


def _meets(t, alpha, b):
    """Whether the ray meets facet hyperplane a.x = b at scaling alpha (t = a.v).

    The endpoint tie-break of both ray kernels: among the facets this holds
    for, the smallest index names the endpoint.
    """
    return abs(t * alpha - b) <= GEOM_TOL


def ray_intersect(polytope: Polytope, v) -> RayTrace:
    """Closed-form intersection of the ray through v with the polytope boundary.

    alpha_plus is the smallest exit ratio b_i / (a_i.v) over facets the ray
    crosses outward; alpha_minus the largest entry ratio clamped at 0.  When
    several facets are active at an endpoint the smallest facet index wins.
    A single-point intersection yields a degenerate trace with alpha_v = 1.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != polytope.dim:
        raise ValueError(f"direction dimension {v.size} != {polytope.dim}")
    coords = v.tolist()
    if not any(coords):
        raise ZeroDirection("ray direction must be nonzero")

    # plain python over the handful of facets: faster than masked numpy here
    t = _facet_products(polytope._rows, coords)
    b = polytope._offset_list

    alpha_hi = math.inf
    alpha_lo = 0.0
    hi_arg = -1
    lo_arg = -1
    for i, (ti, bi) in enumerate(zip(t, b)):
        if ti > 0.0:
            ratio = bi / ti
            if ratio < alpha_hi:
                alpha_hi = ratio
                hi_arg = i
        elif ti < 0.0:
            ratio = bi / ti
            if ratio > alpha_lo:
                alpha_lo = ratio
                lo_arg = i
        elif bi < -GEOM_TOL:
            raise RayMissesPolytope("ray is parallel to a violated facet")
    if hi_arg < 0:
        raise RayMissesPolytope("ray never exits (polytope unbounded along it?)")
    empty, degenerate = _interval_rules(alpha_lo, alpha_hi)
    if empty:
        raise RayMissesPolytope("empty intersection interval")
    if degenerate:
        alpha_lo = alpha_hi

    # smallest active index among genuinely crossed facets; argmin fallback
    out_facet = hi_arg
    in_facet = lo_arg if alpha_lo > 0.0 else None
    for i, (ti, bi) in enumerate(zip(t, b)):
        if i >= out_facet and (in_facet is None or i >= in_facet):
            break
        if i < out_facet and ti > 0.0 and _meets(ti, alpha_hi, bi):
            out_facet = i
        if in_facet is not None and i < in_facet and ti < 0.0 and _meets(ti, alpha_lo, bi):
            in_facet = i

    if degenerate:
        alpha_v = 1.0
    else:
        alpha_v = (alpha_hi - 1.0) / (alpha_hi - alpha_lo)
        alpha_v = min(1.0, max(0.0, alpha_v))

    return RayTrace(v, alpha_lo, alpha_hi, alpha_lo * v, alpha_hi * v, in_facet, out_facet, alpha_v, degenerate)


@dataclass(frozen=True, eq=False)
class RayTraceBatch:
    """``ray_intersect`` of every row of a (k, n) direction array, as arrays.

    Row r holds the fields of ``ray_intersect(polytope, v[r])`` bit for bit,
    with in_facet -1 where the scalar trace has None.  The endpoints are
    formed on demand, so a batch holds no endpoint arrays.
    """

    v: np.ndarray  # (k, n)
    alpha_minus: np.ndarray  # (k,)
    alpha_plus: np.ndarray  # (k,)
    in_facet: np.ndarray  # (k,) int, -1 for None
    out_facet: np.ndarray  # (k,) int
    alpha_v: np.ndarray  # (k,)
    degenerate: np.ndarray  # (k,) bool

    @property
    def v_minus(self) -> np.ndarray:
        return self.alpha_minus[:, None] * self.v

    @property
    def v_plus(self) -> np.ndarray:
        return self.alpha_plus[:, None] * self.v


def ray_intersect_batch(polytope: Polytope, v) -> RayTraceBatch:
    """``ray_intersect`` for every row of the (k, n) array ``v`` at once.

    Same rules, a_i . v and smallest-index tie-break as the scalar kernel;
    a row the scalar kernel rejects makes the whole batch raise the scalar
    kernel's error for the first such row.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != polytope.dim:
        raise ValueError(f"directions must be a (k, {polytope.dim}) array, got shape {v.shape}")
    a = polytope.matrix
    b = polytope.offsets
    rows = np.arange(len(v))

    t = np.multiply.outer(v[:, 0], a[:, 0])  # (k, m), summed as _facet_products sums
    for j in range(1, polytope.dim):
        t += np.multiply.outer(v[:, j], a[:, j])
    outward = t > 0.0
    inward = t < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = b / t
    exit_ratio = np.where(outward, ratio, math.inf)
    hi_arg = np.argmin(exit_ratio, axis=1)  # first occurrence, as the scalar strict <
    alpha_hi = exit_ratio[rows, hi_arg]
    del exit_ratio  # (k, m) temporaries go as soon as they are used
    entry_ratio = ratio
    entry_ratio[~inward] = -math.inf
    lo_arg = np.argmax(entry_ratio, axis=1)
    best_entry = entry_ratio[rows, lo_arg]
    del ratio, entry_ratio
    entered = best_entry > 0.0  # the scalar loop only moves alpha_lo above 0
    alpha_lo = np.where(entered, best_entry, 0.0)

    with np.errstate(invalid="ignore"):
        empty, degenerate = _interval_rules(alpha_lo, alpha_hi)
    zero = ~np.any(v != 0.0, axis=1)
    parallel = np.any(~outward & ~inward & (b < -GEOM_TOL), axis=1)
    no_exit = ~(alpha_hi < math.inf)
    failed = zero | parallel | no_exit | empty
    if np.any(failed):
        first = int(np.argmax(failed))
        # the scalar kernel's error for that row, in the order it checks them
        for bad, error, message in (
            (zero, ZeroDirection, "ray direction must be nonzero"),
            (parallel, RayMissesPolytope, "ray is parallel to a violated facet"),
            (no_exit, RayMissesPolytope, "ray never exits (polytope unbounded along it?)"),
            (empty, RayMissesPolytope, "empty intersection interval"),
        ):
            if bad[first]:
                raise error(f"{message} (row {first})")
    alpha_lo = np.where(degenerate, alpha_hi, alpha_lo)

    at_exit = outward & _meets(t, alpha_hi[:, None], b)
    at_exit[rows, hi_arg] = True
    out_facet = np.argmax(at_exit, axis=1)
    entering = (alpha_lo > 0.0) & entered  # otherwise the scalar in_facet is None
    at_entry = inward & _meets(t, alpha_lo[:, None], b)
    at_entry[rows[entering], lo_arg[entering]] = True
    in_facet = np.where(entering, np.argmax(at_entry, axis=1), -1)

    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_v = (alpha_hi - 1.0) / (alpha_hi - alpha_lo)
    alpha_v = np.where(alpha_v > 0.0, alpha_v, 0.0)  # max(0.0, x), then min(1.0, .)
    alpha_v = np.where(alpha_v < 1.0, alpha_v, 1.0)
    alpha_v = np.where(degenerate, 1.0, alpha_v)
    return RayTraceBatch(v, alpha_lo, alpha_hi, in_facet, out_facet, alpha_v, degenerate)


def normalize_facet(polytope: Polytope, facet_index: int) -> NormalizedFacet:
    """Rescale halfspace ``facet_index`` so its hyperplane reads a.x = 1."""
    h = polytope.halfspaces[facet_index]
    if abs(h.b) <= GEOM_TOL:
        raise HyperplaneThroughOrigin(f"{polytope.label(facet_index)} has b = 0")
    return NormalizedFacet(facet_index, h.a / h.b)


def locate(polytope: Polytope, v) -> RayTrace:
    """The trace of v if v lies in P by the one point-location rule, alpha_minus <= 1 <= alpha_plus.

    Tested within GEOM_TOL on the ratios b / (a.v), which ignore row scaling; raises
    PointOutsidePolytope otherwise (also when the ray misses P) and ZeroDirection at v = 0.
    """
    try:
        trace = ray_intersect(polytope, v)
    except RayMissesPolytope as exc:
        raise PointOutsidePolytope(f"the ray through {np.ravel(v).tolist()} misses the polytope") from exc
    if trace.alpha_minus > 1.0 + GEOM_TOL or trace.alpha_plus < 1.0 - GEOM_TOL:
        raise PointOutsidePolytope(f"point {trace.v.tolist()} lies outside the polytope")
    return trace


def region_of(polytope: Polytope, v) -> RegionId:
    """Identify the subdivision cell containing v by its (entry, exit) facets."""
    trace = locate(polytope, v)
    return RegionId(trace.in_facet, trace.out_facet)


def vertices(polytope: Polytope) -> np.ndarray:
    """All vertices by brute force over n-subsets of active halfspaces.

    Singular subsets are skipped; solutions are kept when feasible within
    GEOM_TOL and deduplicated within DEDUP_TOL.  Returns a lexicographically
    sorted (k, n) array.
    """
    a = polytope.matrix
    b = polytope.offsets
    n = polytope.dim
    found: list[np.ndarray] = []
    for subset in itertools.combinations(range(len(b)), n):
        sub = a[list(subset)]
        try:
            x = np.linalg.solve(sub, b[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if polytope.margins(x).min() < -GEOM_TOL:
            continue
        if not any(np.max(np.abs(x - y)) <= DEDUP_TOL for y in found):
            found.append(x)
    if not found:
        return np.zeros((0, n))
    arr = np.array(found)
    return arr[np.lexsort(arr.T[::-1])]


def sample_interior(polytope: Polytope, seed: int, count: int) -> np.ndarray:
    """Deterministic rejection sample of strictly interior points.

    Draws uniformly in the coordinate bounding box and keeps points whose
    slack is at least INTERIOR_MARGIN on every halfspace.  Gives up once
    1000 * count candidates have been tried.
    """
    report = validate(polytope)
    lo = report.coordinate_bounds[:, 0]
    hi = report.coordinate_bounds[:, 1]
    rng = np.random.default_rng(seed)

    accepted: list[np.ndarray] = [np.zeros((0, polytope.dim))]
    n_accepted = 0
    budget = 1000 * count
    tried = 0
    while n_accepted < count:
        if tried >= budget:
            raise SamplingBudgetExceeded(
                f"accepted {n_accepted}/{count} after {tried} draws"
            )
        chunk = min(max(count, 512), budget - tried)
        pts = rng.uniform(lo, hi, size=(chunk, polytope.dim))
        tried += chunk
        slack = polytope.offsets - pts @ polytope.matrix.T
        good = pts[np.min(slack, axis=1) >= INTERIOR_MARGIN]
        accepted.append(good)
        n_accepted += len(good)
    return np.concatenate(accepted)[:count]


# -- 2-D region enumeration ---------------------------------------------------


def polygon_area(points) -> float:
    """Unsigned shoelace area of a polygon given by its ordered vertices."""
    p = np.asarray(points, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def order_ccw(points) -> np.ndarray:
    """Order 2-D points counterclockwise around their centroid."""
    p = np.asarray(points, dtype=float)
    c = p.mean(axis=0)
    ang = np.arctan2(p[:, 1] - c[1], p[:, 0] - c[0])
    return p[np.argsort(ang, kind="stable")]


def _clip_halfplane(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against normal.x <= offset."""
    if len(poly) == 0:
        return poly
    kept: list[np.ndarray] = []
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


def _facet_edges_2d(polytope: Polytope, verts: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Endpoints of each facet that is a genuine edge of the 2-D polytope."""
    edges = {}
    for i, h in enumerate(polytope.halfspaces):
        on = verts[np.abs(verts @ h.a - h.b) <= GEOM_TOL]
        if len(on) < 2:
            continue
        tangent = np.array([-h.a[1], h.a[0]])
        proj = on @ tangent
        w1, w2 = on[np.argmin(proj)], on[np.argmax(proj)]
        if np.max(np.abs(w1 - w2)) <= DEDUP_TOL:
            continue
        edges[i] = (w1, w2)
    return edges


def _sector_constraints(w1: np.ndarray, w2: np.ndarray):
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


def enumerate_regions_2d(polytope: Polytope) -> list[tuple[RegionId, np.ndarray]]:
    """All full-dimensional cells of the ray subdivision of a 2-D polytope.

    Cells are returned as counterclockwise polygons; rays through the
    polytope vertices introduce the new cell boundaries.  Cells partition
    the polytope up to measure zero.
    """
    if polytope.dim != 2:
        raise DimensionNotSupported("region enumeration is 2-D only")
    verts = vertices(polytope)
    if len(verts) < 3:
        raise EmptyInterior("fewer than 3 vertices")
    edges = _facet_edges_2d(polytope, verts)
    origin_inside = bool(polytope.offsets.min() >= -GEOM_TOL)

    cells: list[tuple[RegionId, np.ndarray]] = []
    if origin_inside:
        zero = np.zeros(2)
        for i, (w1, w2) in edges.items():
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
