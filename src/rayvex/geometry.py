"""Polytopes in halfspace form and ray/boundary intersection geometry.

Everything here is desk scale: dense numpy throughout, brute-force vertex
enumeration over active sets, and explicit region enumeration only in 2-D.
Halfspaces are always oriented as a.x <= b.  The 2-D cells come from the
ray kernel itself: one ``ray_intersect`` per pair of adjacent vertex rays
names a cell, and its corners lie on the named facets' lines a.x = 1.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionNotSupported,
    EmptyInterior,
    HyperplaneThroughOrigin,
    InvalidInput,
    PointOutsidePolytope,
    RayMissesPolytope,
    SamplingBudgetExceeded,
    UnboundedPolytope,
    ZeroDirection,
)
from .simplex import CertifiedBases, solve_lp

GEOM_TOL = 1e-9  # containment and facet activity: a margin on canonical rows, or a ray ratio alpha
ALGEBRA_TOL = 1e-12  # empty or degenerate trace intervals, parallel rays: relative, dimensionless
DEDUP_TOL = 1e-8  # when two vertices or cell corners are one: a coordinate distance, max norm
INTERIOR_MARGIN = 1e-10  # how far inside a sampled interior point lies: a margin on canonical rows
MAX_LATTICE_POINTS = 10**6  # points of one lattice, points_per_axis^n


@dataclass(frozen=True, eq=False)
class Polytope:
    """Bounded intersection of halfspaces a_i.x <= b_i with nonempty interior.

    Each row (a_i, b_i) is stored once, times the power of two that puts
    max_j |a_ij| in [1, 2): |a_i| is then in [1, 2 sqrt(n)) and a margin
    b_i - a_i.x is the distance to the facet's hyperplane within that factor,
    at any user scale.  The factor is exact short of leaving the normal
    doubles, so ratios b_i / (a_i.v) and normals a_i / b_i keep their bits,
    and a product a_ij v_j with |a_ij| >= 1 cannot underflow to 0.  Rows are
    checked before scaling; ``matrix`` and ``offsets`` are read-only.

    Boundedness and the interior point are not checked at construction;
    ``validate`` does that (and model building always validates).
    """

    matrix: np.ndarray
    offsets: np.ndarray
    facet_labels: tuple[str | None, ...] | None = None

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float)
        b = np.array(self.offsets, dtype=float)
        if a.ndim != 2 or len(a) == 0:
            raise InvalidInput("polytope needs at least one halfspace")
        if a.shape[1] < 1:
            raise InvalidInput("dimension must be positive")
        if b.shape != (len(a),):
            raise InvalidInput(f"{len(a)} halfspace rows need {len(a)} offsets, got shape {b.shape}")
        finite = np.isfinite(a).all(axis=1) & np.isfinite(b)
        nonzero = np.any(a != 0.0, axis=1)
        if not np.all(finite & nonzero):
            i = int(np.argmin(finite & nonzero))  # the first bad row, checked as it was built
            if not finite[i]:
                raise InvalidInput(f"halfspace entries must be finite, got a = {a[i].tolist()}, b = {b[i]}")
            raise InvalidInput("halfspace normal must be nonzero")
        _, exponent = np.frexp(np.abs(a).max(axis=1))  # max |a_ij| = m 2^e with m in [0.5, 1)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(b, 1 - exponent)
        if not np.all(np.isfinite(scaled)):
            i = int(np.argmin(np.isfinite(scaled)))
            raise InvalidInput(f"halfspace offset overflows at unit scale, got a = {a[i].tolist()}, b = {b[i]}")
        a, b = np.ldexp(a, 1 - exponent[:, None]), scaled
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offsets", b)
        if self.facet_labels is not None:
            labels = tuple(self.facet_labels)
            if len(labels) != len(b):
                raise InvalidInput("facet_labels length must match halfspace count")
            object.__setattr__(self, "facet_labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _rows(self) -> list[list[float]]:
        return self.matrix.tolist()

    @cached_property
    def _offset_list(self) -> list[float]:
        return self.offsets.tolist()

    @cached_property
    def _normalized(self) -> tuple[np.ndarray | None, ...]:
        """Per facet its read-only normal a / b, or None where the canonical |b| <= GEOM_TOL."""
        out = []
        for a, b in zip(self.matrix, self.offsets):
            if abs(b) <= GEOM_TOL:
                out.append(None)
                continue
            a = a / b
            a.setflags(write=False)
            out.append(a)
        return tuple(out)

    @cached_property
    def _validation(self) -> "ValidationReport":
        return _validate(self)  # a raise caches nothing: only valid polytopes keep a report

    @property
    def n_facets(self) -> int:
        return len(self.offsets)

    def margins(self, x) -> np.ndarray:
        """Slack b - A x per canonical row, (m,) for a point (n,) and (k, m) for a (k, n) batch.

        Each margin is the distance to the facet's hyperplane times |a_i| in [1, 2 sqrt(n)).
        A x is summed as the ray kernels sum it, so a point's margins are the same alone and in a batch.
        A batch's margins are a (k, m) view of facet-major storage, as ``_facet_dots`` returns, so a
        reduction over the facets (``contains``) runs along contiguous rows of k samples.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DimensionMismatch(f"points must be ({self.dim},) or (k, {self.dim}), got shape {x.shape}")
        return self.offsets - _facet_dots(self.matrix, x)

    def contains(self, x, tol: float = GEOM_TOL) -> bool | np.ndarray:
        """The set-membership rule, every margin >= -tol: a bool for a point (n,), a (k,) mask for a (k, n) batch.

        The margins are on canonical rows, so tol is a distance within a factor 2 sqrt(n), whatever
        scale the rows were given at.  A negative tol asks for points at least that far inside every halfspace.
        At the default tol it may differ from ``locate`` at v != 0 only in a band: if every b_i - a_i.v >= 0
        both accept; if some b_i - a_i.v < -2 GEOM_TOL max(1, |a_i.v|) both reject.
        """
        inside = self.margins(x).min(axis=-1) >= -tol
        return inside if inside.ndim else bool(inside)

    def translate(self, t) -> "Polytope":
        """The shifted polytope P - t (x in result iff x + t in self), whose offsets are t's margins bit for bit."""
        return Polytope(self.matrix, self.margins(t), self.facet_labels)

    def label(self, index: int) -> str:
        if self.facet_labels is not None and self.facet_labels[index]:
            return self.facet_labels[index]
        return f"facet[{index}]"

    @classmethod
    def box(cls, lower, upper) -> "Polytope":
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.size != upper.size or np.any(lower >= upper):
            raise InvalidInput("box needs lower < upper per coordinate")
        n = lower.size
        eye = np.eye(n)
        matrix = np.stack([eye, -eye], axis=1).reshape(2 * n, n)  # rows e_1, -e_1, e_2, -e_2, ...
        labels = [label for i in range(n) for label in (f"x{i + 1}<={upper[i]:g}", f"x{i + 1}>={lower[i]:g}")]
        return cls(matrix, np.stack([upper, -lower], axis=1).ravel(), labels)

    @classmethod
    def from_inequalities(cls, a_matrix, b_vector, labels=None) -> "Polytope":
        return cls(np.atleast_2d(a_matrix), np.ravel(b_vector), labels or None)

    # -- JSON wire format: {"dim": n, "halfspaces": [{"a": [...], "b": ..., "label": ...}]}

    def to_json_dict(self) -> dict:
        labels = self.facet_labels or (None,) * self.n_facets
        return {
            "dim": self.dim,
            "halfspaces": [
                {"a": a, "b": b, **({"label": label} if label else {})}
                for a, b, label in zip(self.matrix.tolist(), self.offsets.tolist(), labels)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polytope":
        if not isinstance(data, dict):
            raise InvalidInput(f"polytope JSON must be an object, got {type(data).__name__}")
        _require_keys(data, ("dim", "halfspaces"), "polytope JSON")
        items = data["halfspaces"]
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise InvalidInput("polytope JSON 'halfspaces' must be a list of objects")
        try:
            dim = float(data["dim"])  # "2" and 2.0 are integers; 2.7, inf and nan are not
        except (TypeError, ValueError, OverflowError):
            dim = math.nan
        if not dim.is_integer():
            raise InvalidInput(f"polytope JSON 'dim' must be an integer, got {data['dim']!r}")
        for i, item in enumerate(items):
            _require_keys(item, ("a", "b"), f"halfspace {i}")
            if isinstance(item["a"], list) and len(item["a"]) != dim:
                raise DimensionMismatch(f"halfspace {i} has {len(item['a'])} 'a' entries, 'dim' is {data['dim']}")
            if not (isinstance(item["a"], list) and _json_numbers(item["a"]) and _json_numbers(item["b"])):
                raise InvalidInput("halfspace entries must be numbers")
            if not isinstance(item.get("label", ""), (str, type(None))):
                raise InvalidInput(f"halfspace {i} 'label' must be a string, got {item['label']!r}")
        labels = [item.get("label") for item in items]
        try:
            a, b = (np.array([item[key] for item in items], dtype=float) for key in ("a", "b"))
        except (TypeError, ValueError, OverflowError):  # a non-numeric, nested or out-of-range entry
            raise InvalidInput("halfspace entries must be numbers") from None
        return cls(a, b, labels if any(labels) else None)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Polytope":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8: the decoder's message
            raise InvalidInput(str(exc)) from None
        return cls.from_json_dict(data)


def _json_numbers(value) -> bool:
    """Whether value is a JSON number, or a list of them: an int or a float, never a bool or a numeric string."""
    return all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        for item in (value if isinstance(value, list) else [value])
    )


def _require_keys(obj: dict, keys, what: str) -> None:
    for key in keys:
        if key not in obj:
            raise InvalidInput(f"{what} has no {key!r} key")


class RayTrace(NamedTuple):
    """Intersection data of the ray {alpha * v : alpha >= 0} with a polytope.

    Scalings are relative to v itself, i.e. v_minus = alpha_minus * v and
    v_plus = alpha_plus * v; when v lies in the polytope, alpha_minus <= 1
    <= alpha_plus and v = alpha_v * v_minus + (1 - alpha_v) * v_plus.
    in_facet is None when the ray starts inside (alpha_minus = 0), and a
    degenerate trace meets the polytope in one point (alpha_v = 1).  Next to
    the origin an alpha can overflow to inf while its point stays finite.

    An immutable named tuple, because ``ray_intersect`` builds one per call
    on the certification checks' hot path.  Its arrays make ``==`` and
    ``hash`` unusable, so compare traces field by field.
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


_region_id = functools.cache(RegionId)  # one shared (frozen) RegionId per facet-index pair, so m (m + 1) at most


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
    """Check boundedness and interior nonemptiness by one LP at its 2n + 1 right-hand sides.

    Raises UnboundedPolytope / EmptyInterior; on success reports coordinate
    bounds, a (Chebyshev-center) interior point and where the origin sits.
    The LP minimizes b.y over facet weights y >= 0 and a slack s >= 0
    subject to A^T y = r_x and |a|.y - s = r_t, the dual of
    max r_x.x + r_t t s.t. a_i.x + |a_i| t <= b_i, t >= 0 (Bertsimas &
    Tsitsiklis, *Introduction to Linear Optimization*, ch. 4).  Each question
    is one right-hand side r, solved through ``solve_lp`` with one
    ``CertifiedBases``.  The Chebyshev LP r = (0, 1) is unbounded exactly
    when P is empty, so it is asked first, cold, and the multipliers (x, t)
    of its basis are the interior point and the margin; r = (-e_i, 0) and
    (e_i, 0) give -min x_i and max x_i, or are infeasible when x_i is
    unbounded.  Each answer, the cold one too, is read from a certified
    basis's stored B^-1, not from a tableau that may drift.  The LP and
    every GEOM_TOL test read the canonical rows, so a row's user scale
    moves no threshold by a factor 2 or more.  With several Chebyshev
    optima the interior point is any one.
    The unusual configuration "origin in the relative interior of a single
    facet" is flagged rather than rejected.  The report of a successful
    validation is kept on the (immutable) polytope, so later calls solve no
    LPs; its arrays are read-only because every caller shares them.
    """
    return polytope._validation


def _validate(polytope: Polytope) -> ValidationReport:
    a = polytope.matrix
    b = polytope.offsets
    m, n = a.shape
    matrix = np.zeros((n + 1, m + 1))  # columns: the facet weights y, then the slack s
    matrix[:n, :m] = a.T
    matrix[n, :m] = np.linalg.norm(a, axis=1)
    matrix[n, m] = -1.0
    cost = np.append(b, 0.0)
    bases = CertifiedBases()

    def solve(rhs):
        res = solve_lp(cost, matrix, rhs, start=bases)
        if res.status == "unbounded":  # no x meets A x <= b
            raise EmptyInterior("polytope is empty")
        return res

    unit = np.eye(n + 1)
    cheb = solve(unit[n])  # the Chebyshev LP, cold: unbounded exactly when P is empty
    bounds = np.zeros((n, 2))
    for i in range(n):
        low = solve(-unit[i])
        if low.status == "infeasible":
            raise UnboundedPolytope(f"coordinate x{i + 1} is unbounded below")
        high = solve(unit[i])
        if high.status == "infeasible":
            raise UnboundedPolytope(f"coordinate x{i + 1} is unbounded above")
        bounds[i] = (0.0 - low.objective, high.objective)  # 0 - v, not -v: a zero bound reads 0.0, never -0.0

    if cheb.status != "optimal" or len(cheb.basis) != n + 1:
        raise EmptyInterior("interior-point search failed")
    basis = list(cheb.basis)
    multipliers = np.linalg.solve(matrix[:, basis].T, cost[basis])  # (x, t) of B^T (x, t) = c_B
    margin = float(multipliers[n])
    if margin <= GEOM_TOL:
        raise EmptyInterior(f"no interior point (best margin {margin:.3e})")
    center = multipliers[:n]
    bounds.setflags(write=False)
    center.setflags(write=False)

    if not polytope.contains(np.zeros(n)):
        origin = "outside"
        on_facet_interior = False
    else:
        active = int(np.count_nonzero(np.abs(b) <= GEOM_TOL))
        origin = "interior" if active == 0 else "boundary"
        on_facet_interior = active == 1
    return ValidationReport(bounds, center, float(margin), origin, on_facet_interior)


def _facet_products(rows: list[list[float]], coords: list[float]) -> list[float]:
    """a_i . v for every facet row, summed left to right in plain floats.

    Column by column, as ``_facet_dots`` sums, so the scalar kernel sees
    bit-identical a_i . v to the batch kernel and ``Polytope.margins``.
    In 2-D and 3-D, where every catalog entry lies, each sum is written out:
    the same operations in the same order, at about half the cost.
    """
    if len(coords) == 2:
        x0, x1 = coords
        return [a0 * x0 + a1 * x1 for a0, a1 in rows]
    if len(coords) == 3:
        x0, x1, x2 = coords
        return [a0 * x0 + a1 * x1 + a2 * x2 for a0, a1, a2 in rows]
    x = coords[0]
    products = [row[0] * x for row in rows]
    for j in range(1, len(coords)):
        x = coords[j]
        products = [acc + row[j] * x for acc, row in zip(products, rows)]
    return products


def _facet_dots(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a_i . x for every row of a: (m,) for a point x (n,), (k, m) for a (k, n) batch.

    Summed column by column, as ``_facet_products`` sums; BLAS may sum in another order.
    A non-finite x gives nan where float arithmetic does (0 * inf), without a warning.
    A batch is summed into facet-major (m, k) storage and returned as its (k, m) transpose,
    a view: a pass over the facets then runs along contiguous k-long rows, not m-wide ones.
    """
    with np.errstate(invalid="ignore"):
        t = np.multiply.outer(a[:, 0], x[..., 0])
        for j in range(1, a.shape[1]):
            t += np.multiply.outer(a[:, j], x[..., j])
    return t.T


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
    """Whether the ray meets facet hyperplane a.x = b at scaling alpha (t = a.v), on canonical rows.

    The endpoint tie-break of both ray kernels: among the facets this holds
    for, the smallest index names the endpoint.
    """
    return abs(t * alpha - b) <= GEOM_TOL


def ray_intersect(polytope: Polytope, v) -> RayTrace:
    """Closed-form intersection of the ray through v with the polytope boundary.

    alpha_plus is the smallest exit ratio b_i / (a_i.v) over facets the ray
    crosses outward; alpha_minus the largest entry ratio clamped at 0.  When
    several facets are active at an endpoint the smallest facet index wins.
    A single-point intersection yields a degenerate trace with alpha_v = 1, and so does an
    interval empty only by entry ratios past alpha_plus whose facets all meet the ray at
    alpha_plus (``_meets``): a facet nearly parallel to the ray can overshoot in its ratio.
    This is the one statement of the trace rules; ``ray_intersect_batch`` and ``locate`` defer to it.

    Next to the origin every exit ratio can overflow, so a v with max |v_j| < 1 whose ray misses P
    is read again on the ray through 2^k v, max |2^k v_j| in [1, 2).  Its products are v's times 2^k,
    which is exact, so its ratios are v's times 2^-k and the facets and points found are v's; the
    points are as accurate as a_i.v, whose products may be subnormal.  If that ray misses P, its error is raised.
    A v with a nan or infinite coordinate raises PointOutsidePolytope: no point of P lies on it.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    coords = v.tolist()
    rows = polytope._rows
    if len(coords) != len(rows[0]):
        raise DimensionMismatch(f"direction dimension {v.size} != {polytope.dim}")
    if not any(coords):
        raise ZeroDirection("ray direction must be nonzero")
    if not math.isfinite(sum(coords)) and not all(map(math.isfinite, coords)):  # the sum of finite ones may overflow
        raise PointOutsidePolytope(f"direction {coords} is not finite: no point of it lies in the polytope")

    # plain python over the handful of facets: faster than masked numpy here
    t = _facet_products(rows, coords)
    try:
        return _trace(v, t, polytope._offset_list)
    except RayMissesPolytope:
        top = max(map(abs, coords))
        if top >= 1.0:
            raise
    k = 1 - math.frexp(top)[1]
    scaled = [math.ldexp(ti, k) for ti in t]
    return _trace(np.ldexp(v, k), scaled, polytope._offset_list, at=math.ldexp(1.0, -k))._replace(v=v)


def _trace(v: np.ndarray, t: list[float], b: list[float], at: float = 1.0) -> RayTrace:
    """The trace of the ray through v from its facet products t = a_i.v and offsets b.

    ``at`` is the queried point's scaling on that ray: alpha_v places at * v, and alpha_minus and
    alpha_plus are relative to at * v (inf where they overflow).
    """
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
    if empty and alpha_hi >= 0.0 and all(
        _meets(ti, alpha_hi, bi) for ti, bi in zip(t, b) if ti < 0.0 and bi / ti > alpha_hi
    ):
        empty, degenerate = False, True  # the ray touches P at alpha_hi only
    if empty:
        raise RayMissesPolytope("empty intersection interval")
    if degenerate:
        alpha_lo = alpha_hi

    # smallest active index among genuinely crossed facets; argmin fallback
    out_facet = hi_arg
    for i in range(hi_arg):
        ti = t[i]
        if ti > 0.0 and _meets(ti, alpha_hi, b[i]):
            out_facet = i
            break
    in_facet = None
    if alpha_lo > 0.0:
        in_facet = lo_arg
        for i in range(lo_arg):
            ti = t[i]
            if ti < 0.0 and _meets(ti, alpha_lo, b[i]):
                in_facet = i
                break

    if degenerate:
        alpha_v = 1.0
    else:
        alpha_v = (alpha_hi - at) / (alpha_hi - alpha_lo)
        alpha_v = min(1.0, max(0.0, alpha_v))

    return RayTrace(v, alpha_lo / at, alpha_hi / at, alpha_lo * v, alpha_hi * v, in_facet, out_facet, alpha_v, degenerate)


@dataclass(frozen=True, eq=False)
class RayTraceBatch:
    """``ray_intersect`` of every row of a (k, n) direction array, as arrays.

    Row r holds the fields of ``ray_intersect(polytope, v[r])`` bit for bit,
    with in_facet -1 where the scalar trace has None.  The endpoints are kept,
    as ``RayTrace`` keeps them: a short row's alphas may overflow to inf.
    """

    v: np.ndarray  # (k, n)
    alpha_minus: np.ndarray  # (k,)
    alpha_plus: np.ndarray  # (k,)
    v_minus: np.ndarray  # (k, n)
    v_plus: np.ndarray  # (k, n)
    in_facet: np.ndarray  # (k,) int, -1 for None
    out_facet: np.ndarray  # (k,) int
    alpha_v: np.ndarray  # (k,)
    degenerate: np.ndarray  # (k,) bool


def _first_row(mask: np.ndarray) -> np.ndarray:
    """``np.argmax(mask, axis=0)`` of an (m, k) bool array as one pass over its m rows: the first
    row holding True per column, or 0 where none does.  Row i scores m - i where it holds True."""
    m = len(mask)
    scores = mask * np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
    return (m - scores.max(axis=0).astype(np.intp)) % m


def ray_intersect_batch(polytope: Polytope, v) -> RayTraceBatch:
    """``ray_intersect`` for every row of the (k, n) array ``v`` at once.

    A vector pass traces the rows the scalar rules accept at v's scale, with
    the same a_i . v and smallest-index tie-break.  Every other row (parallel
    to a violated facet, no finite exit, an empty interval, a non-finite entry;
    a zero row has no exit) goes, in order, to ``ray_intersect`` itself, which
    traces a short row whose ray meets P and otherwise raises, with " (row r)"
    appended.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != polytope.dim:
        raise DimensionMismatch(f"directions must be a (k, {polytope.dim}) array, got shape {v.shape}")
    b = polytope.offsets
    rows = np.arange(len(v))
    finite = np.isfinite(v.T.copy()).all(axis=0)  # n passes along a coordinate-major copy
    w = v if finite.all() else np.where(finite[:, None], v, 1.0)  # placeholders: ray_intersect rejects those rows

    t = _facet_dots(polytope.matrix, w).T  # (m, k): every pass below runs along the k rows
    b = b[:, None]
    outward = t > 0.0
    inward = t < 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # b / t overflows to inf, as in float division
        ratio = b / t
    exit_ratio = np.where(outward, ratio, math.inf)
    hi_arg = _first_row(exit_ratio == exit_ratio.min(axis=0))  # the first minimum, as the scalar strict <
    alpha_hi = exit_ratio[hi_arg, rows]
    del exit_ratio  # (m, k) temporaries go as soon as they are used
    entry_ratio = ratio
    entry_ratio[~inward] = -math.inf
    lo_arg = _first_row(entry_ratio == entry_ratio.max(axis=0))
    best_entry = entry_ratio[lo_arg, rows]
    del ratio, entry_ratio
    entered = best_entry > 0.0  # the scalar loop only moves alpha_lo above 0
    alpha_lo = np.where(entered, best_entry, 0.0)

    with np.errstate(invalid="ignore", over="ignore"):  # alpha_hi - alpha_lo may overflow, as floats do
        empty, degenerate = _interval_rules(alpha_lo, alpha_hi)
    scalar = empty | ~(alpha_hi < math.inf) | (~outward & ~inward & (b < -GEOM_TOL)).any(axis=0) | ~finite
    alpha_hi[scalar] = 1.0  # placeholders until ray_intersect fills the row, so the tie-break stays finite
    alpha_lo[scalar] = 0.0
    alpha_lo = np.where(degenerate, alpha_hi, alpha_lo)

    at_exit = outward & _meets(t, alpha_hi, b)
    at_exit[hi_arg, rows] = True
    out_facet = _first_row(at_exit)
    entering = (alpha_lo > 0.0) & entered  # otherwise the scalar in_facet is None
    at_entry = inward & _meets(t, alpha_lo, b)
    at_entry[lo_arg[entering], rows[entering]] = True
    in_facet = np.where(entering, _first_row(at_entry), -1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha_v = (alpha_hi - 1.0) / (alpha_hi - alpha_lo)
    alpha_v = np.where(alpha_v > 0.0, alpha_v, 0.0)  # max(0.0, x), then min(1.0, .)
    alpha_v = np.where(alpha_v < 1.0, alpha_v, 1.0)
    alpha_v = np.where(degenerate, 1.0, alpha_v)
    v_minus, v_plus = alpha_lo[:, None] * w, alpha_hi[:, None] * w
    batch = RayTraceBatch(v, alpha_lo, alpha_hi, v_minus, v_plus, in_facet, out_facet, alpha_v, degenerate)
    for r in np.flatnonzero(scalar).tolist():  # the rows the vector pass rejected, in order
        try:
            trace = ray_intersect(polytope, v[r])
        except (RayMissesPolytope, ZeroDirection, PointOutsidePolytope) as exc:
            raise type(exc)(f"{exc} (row {r})") from None
        for name, value in zip(trace._fields[1:], trace[1:]):
            getattr(batch, name)[r] = -1 if value is None else value
    return batch


def normalize_facet(polytope: Polytope, facet_index: int) -> np.ndarray:
    """The normal a / b of halfspace ``facet_index``, whose hyperplane then reads a.x = 1.

    The normals are computed once per (immutable) polytope and shared by
    every caller, so they are read-only.
    """
    facet = polytope._normalized[facet_index]
    if facet is None:
        raise HyperplaneThroughOrigin(f"{polytope.label(facet_index)} has b = 0")
    return facet


def locate(polytope: Polytope, v) -> RayTrace:
    """The trace of v if v lies in P by the one point-location rule, alpha_minus <= 1 <= alpha_plus.

    Tested within GEOM_TOL on the ratios b / (a.v), which ignore row scaling; raises
    PointOutsidePolytope otherwise (also when the ray misses P) and ZeroDirection at v = 0.
    It may differ from ``Polytope.contains`` only in a band: if every b_i - a_i.v >= 0 both accept;
    if some b_i - a_i.v < -2 GEOM_TOL max(1, |a_i.v|) both reject.
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
    return _region_id(trace.in_facet, trace.out_facet)


def vertices(polytope: Polytope) -> np.ndarray:
    """All vertices by brute force over n-subsets of active halfspaces.

    Singular subsets are skipped, and so are solutions whose margins are not
    finite (a nearly singular subset can solve to a point so far out that
    a.x overflows); the rest are kept when ``contains`` them (so at most
    GEOM_TOL outside any facet's hyperplane) and deduplicated within
    DEDUP_TOL.  Returns a lexicographically sorted (k, n) array.
    """
    a = polytope.matrix
    b = polytope.offsets
    n = polytope.dim
    candidates = []
    for subset in itertools.combinations(range(len(b)), n):
        rows = list(subset)
        try:
            candidates.append(np.linalg.solve(a[rows], b[rows]))
        except np.linalg.LinAlgError:
            continue
    found: list[np.ndarray] = []
    if candidates:
        points = np.array(candidates)
        with np.errstate(over="ignore", invalid="ignore"):
            points = points[np.isfinite(polytope.margins(points)).all(axis=1)]
        for x in points[polytope.contains(points)]:
            if not any(np.max(np.abs(x - y)) <= DEDUP_TOL for y in found):
                found.append(x)
    if not found:
        return np.zeros((0, n))
    arr = np.array(found)
    return arr[np.lexsort(arr.T[::-1])]


def sample_interior(polytope: Polytope, seed: int, count: int) -> np.ndarray:
    """Deterministic rejection sample of strictly interior points.

    Draws uniformly in the coordinate bounding box and keeps points whose
    canonical margin is at least INTERIOR_MARGIN on every halfspace, so at
    least INTERIOR_MARGIN / (2 sqrt(n)) from its hyperplane.  Gives up once
    1000 * count candidates have been tried.
    """
    if seed < 0:  # numpy's generators take none
        raise InvalidInput(f"seed must be non-negative, got {seed}")
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
        good = pts[polytope.contains(pts, tol=-INTERIOR_MARGIN)]
        accepted.append(good)
        n_accepted += len(good)
    return np.concatenate(accepted)[:count]


def guard_lattice(points_per_axis: int, dim: int) -> None:
    """Reject a negative ``points_per_axis``, or one giving more than MAX_LATTICE_POINTS points in dim-D."""
    if points_per_axis < 0:
        raise InvalidInput(f"lattice points per axis must be at least 0, got {points_per_axis}")
    if int(points_per_axis) ** dim > MAX_LATTICE_POINTS:
        raise InvalidInput(f"{points_per_axis} lattice points per axis give more than {MAX_LATTICE_POINTS} points in {dim}-D")


def lattice(bounds: np.ndarray, points_per_axis: int) -> np.ndarray:
    """(points_per_axis**n, n) evenly spaced points over the (n, 2) box ``bounds``, lexicographic by index.

    ``guard_lattice`` rejects a size out of range before anything is allocated.
    """
    guard_lattice(points_per_axis, len(bounds))
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in bounds]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# -- 2-D region enumeration ---------------------------------------------------


def polygon_area(points) -> float:
    """Unsigned shoelace area of a polygon given by its ordered vertices."""
    p = np.asarray(points, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def enumerate_regions_2d(polytope: Polytope) -> list[tuple[RegionId, np.ndarray]]:
    """All full-dimensional cells of the ray subdivision of a 2-D polytope, sorted by (in, out).

    The rays through the vertices of P cut it into cones.  Between two
    angularly adjacent vertex rays w1, w2 every ray enters and leaves P
    through the same facets, so one trace of the mid-ray (w1 + w2) / 2
    names the cell.  With those facets scaled to read a.x = 1, the corners
    are w / (a_plus.w) for w1 and w2, then w / (a_minus.w) for w2 and w1,
    or the origin alone when the rays start inside P or enter through a
    facet whose line passes through the origin.

    Each cell is a counterclockwise polygon with distinct vertices
    (consecutive corners within DEDUP_TOL are merged), every corner on the
    a_plus or a_minus line or at the origin.  Cells of area at most 1e-10
    are dropped, and the rest partition P up to measure zero.  Raises like
    ``validate`` on an unbounded or empty polytope.
    """
    if polytope.dim != 2:
        raise DimensionNotSupported("region enumeration is 2-D only")
    validate(polytope)
    rays = [w for w in vertices(polytope) if np.max(np.abs(w)) > DEDUP_TOL]
    rays.sort(key=lambda w: math.atan2(w[1], w[0]))

    cells: list[tuple[RegionId, np.ndarray]] = []
    for w1, w2 in zip(rays, rays[1:] + rays[:1]):
        cross = w1[0] * w2[1] - w1[1] * w2[0]
        if cross <= ALGEBRA_TOL * max(1.0, float(np.abs(w1).max() * np.abs(w2).max())):
            continue  # w1, w2 on one line through the origin, or the reflex gap of an outside origin
        try:
            trace = ray_intersect(polytope, 0.5 * (w1 + w2))
        except RayMissesPolytope:
            continue  # the rays between w1 and w2 meet P only within rounding: no cell
        a_plus = polytope._normalized[trace.out_facet]
        if a_plus is None:
            continue  # the rays leave P on a line through the origin: a sliver of width GEOM_TOL / |a|
        a_minus = None if trace.in_facet is None else polytope._normalized[trace.in_facet]
        corners = [w1 / (a_plus @ w1), w2 / (a_plus @ w2)]
        corners += [np.zeros(2)] if a_minus is None else [w2 / (a_minus @ w2), w1 / (a_minus @ w1)]
        poly = np.array([c for c, prev in zip(corners, corners[-1:] + corners) if np.max(np.abs(c - prev)) > DEDUP_TOL])
        if polygon_area(poly) <= 1e-10:
            continue
        cells.append((_region_id(trace.in_facet, trace.out_facet), poly))

    cells.sort(key=lambda item: (-1 if item[0].in_facet is None else item[0].in_facet, item[0].out_facet))
    return cells
