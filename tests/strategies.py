"""Hypothesis strategies that draw polytopes and points near their facets, and shared numeric helpers.

Every composite strategy of the suite lives here, and so does every helper
that more than one test file needs.  Each strategy's docstring states the
domain it draws from.  Row scaling and permutation are one shared step,
``_rescaled``.
"""

import dataclasses
import functools
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import reference_evaluators
from hypothesis import assume
from hypothesis import strategies as st
from reference_regions import order_ccw

import rayvex as rx
from rayvex import envelope as env
from rayvex.cli import _SHORTHANDS
from rayvex.errors import GradientUnavailable, PointOutsideDomain, PointOutsidePolytope
from rayvex.geometry import lattice

CATALOG = {entry.name: entry.default_polytope for entry in rx.catalog()}
PLANAR = [name for name, polytope in CATALOG.items() if polytope.dim == 2]
SLAB = rx.Polytope.from_inequalities(  # {(x, y) >= 0 : 1 <= x + y <= 2}, origin outside
    [[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [1.0, 1.0]],
    [0.0, 0.0, -1.0, 2.0],
)
# triangle conv{(1,0), (0,1), (1,1)}
TRIANGLE = rx.Polytope.from_inequalities([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0, 1.0])
# a regular 12-gon of apothem 1 centred at (1, 0.25): its first facet, x >= 0, passes through the origin
_NORMALS = np.round([[math.cos(k * math.pi / 6), math.sin(k * math.pi / 6)] for k in range(6, 18)], 15)
DODECAGON = rx.Polytope.from_inequalities(_NORMALS, _NORMALS @ [1.0, 0.25] + 1.0)
KERNEL_POLYTOPES = [*CATALOG.values()] + [
    DODECAGON,
    rx.Polytope.box([0.0, 0.0], [1.0, 1.0]),
    SLAB,
    TRIANGLE,
    rx.Polytope.box([1.0, 1.0], [2.0, 2.0]),
    CATALOG["fractional"].translate([1.0, 0.0]),  # fractional, working coordinates: b = 0 facets
    rx.Polytope.box([1.0, 1.0], [1.0 + 1e-8, 2.0]),  # thin: traces span 1e-8 of alpha at unit scale
]


@functools.cache
def catalog_models(certified: bool) -> dict:
    """name -> (entry, model) for the five catalog entries, each built once at its default sense and anchor.

    Certified at budget 10^4, seed 0, or built without certification.
    """
    build_args = {"budget": 10_000, "seed": 0} if certified else {"run_certification": False}
    build = lambda e: env.build(e.field, e.default_polytope, sense=e.build_sense, anchor=e.default_anchor, **build_args)  # noqa: E731
    return {entry.name: (entry, build(entry)) for entry in rx.catalog()}


def bits(x) -> bytes:
    """x as float64 bytes: equal only when every bit is."""
    return np.asarray(x, dtype=float).tobytes()


def same(a, b, nan_alike=False) -> bool:
    """Equal bit for bit: floats and arrays (same dtype and shape) by their bytes; tuples, lists
    and dataclasses item by item; anything else by type and ==.

    With nan_alike any NaN equals any NaN; the sign of zero and of inf still count.
    """
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y, nan_alike) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        names = [field.name for field in dataclasses.fields(a)]
        return type(a) is type(b) and same([getattr(a, n) for n in names], [getattr(b, n) for n in names], nan_alike)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)):
            return False
        if nan_alike and a.dtype.kind == "f":
            nan = np.isnan(a)
            return bool((nan == np.isnan(b)).all()) and bits(np.where(nan, 0.0, a)) == bits(np.where(nan, 0.0, b))
        return a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return type(b) is type(a) and ((nan_alike and math.isnan(a) and math.isnan(b)) or bits(a) == bits(b))
    return type(a) is type(b) and a == b


def central_diff_gradient(fn, x, h=6e-6):
    """Fourth-order central differences; truncation ~h^4 keeps the steep cubic honest."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (-fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e) + fn(x - 2 * e)) / (12 * h)
    return out


def nearly_parallel_entry():
    """(polytope, v): a vertex v of a box cut by y + 1e-15 z <= 1 + 4e-16, moved so that v's ray meets P at v only.

    The cut's entry ratio, 1.11, overshoots alpha_plus = 1 while the cut meets the ray at 1
    (a.v = -1e-15); v is 1.1e-16 outside the cut.
    """
    cut_box = rx.Polytope.from_inequalities(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 1, 1e-15]],
        [1, 0, 2, 0, 1, 0, 1.0000000000000004],
    )
    t = np.array([1.0, 0.9999999999999994, 2.0])
    return cut_box.translate(t), np.array([0.0, 0.9999999999999994, 1.0]) - t


def hull_lp(points, values, x):
    """(c, A, b) of the lower-hull LP at x: convex weights of the points, weighted values minimised."""
    points = np.asarray(points, dtype=float)
    return np.asarray(values, dtype=float), np.vstack([points.T, np.ones(len(points))]), np.append(x, 1.0)


def record_calls(monkeypatch, owner, name) -> list:
    """The positional arguments of every later call of owner.name, which still runs with its keywords."""
    calls, wrapped = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(args) or wrapped(*args, **kwargs))
    return calls


def outside(fn, *args) -> bool:
    """Whether fn reports its point outside P or the domain; any other error propagates.

    A gradient with no derivative at its point reports a point inside.
    """
    try:
        fn(*args)
    except (PointOutsideDomain, PointOutsidePolytope):
        return True
    except GradientUnavailable:
        if fn is not env.gradient:
            raise
    return False


def scaled(polytope, scales):
    """polytope with row i times scales[i]."""
    s = np.asarray(scales, dtype=float)
    return rx.Polytope.from_inequalities(polytope.matrix * s[:, None], polytope.offsets * s)


def region_interior(model, v, margin) -> bool:
    """Whether every +-margin axis probe of v stays at least 1e-12 inside P and in v's region."""
    base = rx.region_of(model.polytope, v)
    for i, sign in itertools.product(range(v.size), (-1.0, 1.0)):
        probe = v.copy()
        probe[i] += sign * margin
        if not model.polytope.contains(probe, tol=-1e-12) or rx.region_of(model.polytope, probe) != base:
            return False
    return True


def region_interior_points(model, count, margin, seed) -> np.ndarray:
    """The first count region-interior points among 6 count interior samples, in working coordinates."""
    pool = rx.sample_interior(model.polytope, seed, 6 * count)
    return np.array(list(itertools.islice((v for v in pool if region_interior(model, v, margin)), count)))


def facets(polytope) -> list[tuple[int, np.ndarray]]:
    """(index, vertices on it) for every facet of a polytope that has at least dim vertices."""
    verts = rx.vertices(polytope)
    out = []
    for i, (a, b) in enumerate(zip(polytope.matrix, polytope.offsets)):
        on = verts[np.abs(verts @ a - b) <= 1e-9]
        if len(on) >= polytope.dim:
            out.append((i, on))
    return out


def on_facet(face, weights) -> np.ndarray:
    """w0 + sum_k lambda_k (w_k - w0): stays exactly on an axis-aligned facet."""
    w = np.asarray(weights, dtype=float)[: len(face)]
    w = w / w.sum()
    return face[0] + w[1:] @ (face[1:] - face[0])


def _rescaled(draw, a, b, exponents, permute):
    """Rows (a_i, b_i) times 10^e_i, each e_i in exponents = (lo, hi) (no scaling for None), then maybe permuted."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if exponents is not None:
        scales = 10.0 ** np.array(draw(st.lists(st.floats(*exponents), min_size=len(b), max_size=len(b))))
        a, b = a * scales[:, None], b * scales
    if permute:
        order = np.array(draw(st.permutations(range(len(b)))))
        a, b = a[order], b[order]
    return a, b


@st.composite
def cut_boxes(draw, dims=(2, 4), exponents=(-3.0, 3.0), permute=True, rounded=False, cuts=1):
    """(a, b, centre): user rows of a box cut to keep its centre inside, and that centre.

    The box is lower + [0, w], n in dims, lower in [-3, 3]^n, w in [0.1, 4]^n.
    Each of the cuts is c.x <= c.centre + d with c in [-1, 1]^n, max |c_j| >= 0.1,
    and d in [0, max(1, |c|.w)], which reaches past the far corner; with two
    or more cuts d is at least 0.05 max(1, |c|.w), so no pair of cuts flattens
    P.  Then ``_rescaled`` scales each row by 10^exponents and permutes the
    rows.  ``rounded`` rounds lower and c to 1e-6, so every entry is 0 or at
    least 1e-6 in magnitude and stays a normal double through any scaling by
    10^[-8, 8].
    """
    n = draw(st.integers(*dims))
    rounding = (lambda x: round(x, 6)) if rounded else (lambda x: x)
    coords = st.floats(-1.0, 1.0).map(rounding)
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0).map(rounding), min_size=n, max_size=n)))
    widths = np.array(draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n)))
    box = rx.Polytope.box(lower, lower + widths)
    centre = lower + 0.5 * widths
    a, b = [box.matrix], [box.offsets]
    for _ in range(cuts):
        c = np.array(draw(st.lists(coords, min_size=n, max_size=n).filter(lambda c: max(map(abs, c)) >= 0.1)))
        depth = draw(st.floats(0.05 if cuts > 1 else 0.0, 1.0)) * max(1.0, float(np.abs(c) @ widths))
        a.append(c[None])
        b.append([c @ centre + depth])
    a, b = _rescaled(draw, np.vstack(a), np.concatenate(b), exponents, permute)
    return a, b, centre


@st.composite
def rescaled_polytopes(draw):
    """A ``cut_boxes()`` polytope, or one of KERNEL_POLYTOPES with its rows scaled by 10^[-3, 3] and permuted."""
    if draw(st.booleans()):
        a, b, _ = draw(cut_boxes())
    else:
        polytope = draw(st.sampled_from(KERNEL_POLYTOPES))
        a, b = _rescaled(draw, polytope.matrix, polytope.offsets, (-3.0, 3.0), True)
    return rx.Polytope.from_inequalities(a, b)


def polytopes():
    """(polytope, a point inside it): a catalog polytope and its Chebyshev centre, or ``cut_boxes()`` and its centre."""
    return st.one_of(
        st.sampled_from(list(CATALOG.values())).map(lambda p: (p, rx.validate(p).interior_point)),
        cut_boxes().map(lambda case: (rx.Polytope.from_inequalities(case[0], case[1]), case[2])),
    )


@st.composite
def polytope_json(draw):
    """A JSON-shaped dict near the polytope wire format ``{"dim": n, "halfspaces": [{"a": [...], "b": ...}]}``.

    Well formed, it is n in 1..3 and 0..5 halfspaces of n small numbers each; that can still be
    an invalid polytope (a zero row).  Each of "dim", every "a" and every "b" is instead, one draw in
    eight, drawn from the malformed grammar: "dim" an int, a float (2.7, inf and nan too), a
    string, null, a bool or a list; an "a" row a list of mixed length and entry types, or a bare entry;
    "b" a list, a string, another non-number or missing.  Entries then include any float, strings,
    null, bools, ints past float range and lists.  A "label" is a string or missing, or one draw in
    eight null or any of those non-numbers.  A failing example shrinks toward well-formed parts.
    """
    n = draw(st.integers(1, 3))
    number = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0))
    other = st.one_of(
        st.floats(), st.text(max_size=3), st.none(), st.booleans(), st.just(10**400), st.lists(number, max_size=2)
    )

    def usually(well_formed, otherwise):
        return draw(otherwise if draw(st.integers(0, 7)) == 7 else well_formed)

    dim = usually(
        st.just(n),
        st.one_of(
            st.integers(-1, 4), st.floats(), st.sampled_from(["2", " 3 ", "2.0", "1e400", "nan", "two"]),
            st.text(max_size=3), st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=2),
        ),
    )
    missing = object()  # a "b" key left out
    halfspaces = []
    for _ in range(draw(st.integers(0, 5))):
        a = usually(st.lists(number, min_size=n, max_size=n), st.one_of(st.lists(number | other, max_size=4), other))
        b = usually(number, st.one_of(st.just(missing), other, st.lists(number | other, max_size=2)))
        label = usually(st.one_of(st.just(missing), st.text(max_size=3)), st.one_of(number, other))
        halfspaces.append({key: value for key, value in (("a", a), ("b", b), ("label", label)) if value is not missing})
    return {"dim": dim, "halfspaces": halfspaces}


def ulps(x, direction, steps) -> np.ndarray:
    """x moved steps ulps per coordinate towards x + direction."""
    for _ in range(steps):
        x = np.nextafter(x, x + direction)
    return x


@st.composite
def near_facet(draw, polytope, centre=None, moves=("on", "ulps", "unit")):
    """A point on a facet of polytope, then moved off it to either side by one of moves.

    With centre, the point is centre + [-0.5, 0.5]^n projected onto any facet's
    hyperplane, up to rounding; without, a convex combination, weights in
    [0.01, 1], of the vertices on a facet with at least dim of them, exact on an
    axis-aligned facet.  The moves along the facet's row a: "on" none, "ulps"
    1-3 ulps per coordinate, "unit" 1e-10 a / |a|, "row" 1e-6 a or 1e-10 a.
    """
    if centre is None:
        i, face = draw(st.sampled_from(facets(polytope)))
        x = on_facet(face, draw(st.lists(st.floats(0.01, 1.0), min_size=len(face), max_size=len(face))))
    else:
        i = draw(st.integers(0, polytope.n_facets - 1))
        a, b = polytope.matrix[i], polytope.offsets[i]
        x = centre + np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=polytope.dim, max_size=polytope.dim)))
        x = x + (b - a @ x) / (a @ a) * a  # onto the hyperplane, up to rounding
    a = polytope.matrix[i]
    side = draw(st.sampled_from([-1.0, 1.0]))
    move = draw(st.sampled_from(moves))
    if move == "ulps":
        x = ulps(x, side * a, draw(st.integers(1, 3)))
    elif move == "unit":
        x = x + side * 1e-10 * a / np.linalg.norm(a)
    elif move == "row":
        x = x + side * draw(st.sampled_from([1e-6, 1e-10])) * a
    return x


@st.composite
def non_finite_points(draw, dim):
    """A point (dim,) with at least one coordinate inf, -inf or nan, the others in [-3, 3]."""
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    spoilt = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    x[spoilt] = draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=len(spoilt), max_size=len(spoilt)))
    return x


@st.composite
def near_facet_batches(draw):
    """(polytope, points): a ``polytopes()`` polytope and 1 to 6 ``near_facet`` points around its centre, as a (k, n) array."""
    polytope, centre = draw(polytopes())
    return polytope, np.array(draw(st.lists(near_facet(polytope, centre), min_size=1, max_size=6)))


def near_catalog_facet():
    """(entry name, point): ``near_facet`` on a catalog entry's default polytope, moves "on", "ulps" or "row"."""
    at = {name: near_facet(polytope, moves=("on", "ulps", "row")) for name, polytope in CATALOG.items()}
    return st.sampled_from(list(CATALOG)).flatmap(lambda name: at[name].map(lambda x: (name, x)))


@st.composite
def band_cases(draw):
    """(polytope, v): a ``polytopes()`` polytope, maybe translated to a point near a facet, and a point near a facet.

    The point may then move 1e-12 to 1e-6 along a facet normal and be rescaled along its ray,
    by 10^[-3, 3] or by 2^-[1020, 1080], where every exit ratio b / (a.v) may overflow.
    """
    polytope, centre = draw(polytopes())
    if draw(st.booleans()):
        t = draw(near_facet(polytope, centre))  # a working origin on or next to a facet line
        polytope, centre = polytope.translate(t), centre - t
    v = draw(near_facet(polytope, centre))
    if draw(st.booleans()):
        a = polytope.matrix[draw(st.integers(0, polytope.n_facets - 1))]
        v = v + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -6.0)) * a / np.linalg.norm(a)
    scale = draw(st.sampled_from(["none", "decades", "subnormal"]))
    if scale == "decades":
        v = v * 10.0 ** draw(st.floats(-3.0, 3.0))
    elif scale == "subnormal":
        v = np.ldexp(v, -draw(st.integers(1020, 1080)))
    return polytope, v


@st.composite
def origin_in_polytopes(draw):
    """A 2-D box around the origin, maybe cut, its rows scaled by 10^[-6, 6] and permuted; every b_i >= 0.

    The box is [-l, h] with l, h in [0.2, 2]^2, and the origin is interior, on
    the x >= 0 facet or at the vertex of both lower facets.  A cut keeps the
    box centre inside and may pass through the origin.
    """
    lo = np.array([-draw(st.floats(0.2, 2.0)), -draw(st.floats(0.2, 2.0))])
    hi = np.array([draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))])
    lo[: draw(st.integers(0, 2))] = 0.0  # on the x >= 0 facet, or at the vertex of both
    rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    offsets = [hi[0], hi[1], -lo[0], -lo[1]]
    if draw(st.booleans()):
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        c = np.array([math.cos(theta), math.sin(theta)])
        at_center = float(c @ (0.5 * (lo + hi)))
        top = max(float(c @ np.array([x, y])) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]))
        if at_center < -0.05 and draw(st.booleans()):
            d = 0.0  # through the origin
        else:
            base = max(0.0, at_center)
            d = base + draw(st.floats(0.05, 0.95)) * (top - base)
        rows.append(c.tolist())
        offsets.append(d)
    return rx.Polytope.from_inequalities(*_rescaled(draw, rows, offsets, (-6.0, 6.0), permute=True))


def _halfspaces_of(hull):
    """(A, b) with one row a.x <= b per edge of a counterclockwise polygon."""
    nxt = np.roll(hull, -1, axis=0)
    a = np.column_stack([nxt[:, 1] - hull[:, 1], hull[:, 0] - nxt[:, 0]])
    return a, np.einsum("ij,ij->i", a, hull)


def _convex_hull(points):
    """Counterclockwise hull vertices of 2-D points (monotone chain), collinear points dropped."""
    pts = sorted(set(points))

    def chain(ps):
        out = []
        for p in ps:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return np.array(chain(pts)[:-1] + chain(pts[::-1])[:-1])


PLACEMENTS = ("interior", "outside", "vertex", "facet", "facet line")


@st.composite
def placed_polygons(draw, conditioned=True):
    """(placement, polytope): a catalog polygon or a random convex one, its origin placed, rows scaled and permuted.

    The random polygon has 3-8 vertices on an ellipse with axes in [0.3, 3],
    centred in [-3, 3]^2, the arcs between neighbours at least 2 pi / (3k - 2).
    The origin goes to an interior point, a point outside, a vertex, a point
    of a facet, or a point outside on a facet's line.  ``translate`` rounds,
    so "on" means within rounding.  Rows are scaled by 10^[-2, 2] and
    permuted.  Unless ``conditioned``, the random polygon is the hull of 3-8
    arbitrary points of [-3, 3]^2, so its edges and turns can be as small as
    hypothesis likes.
    """
    if not conditioned:
        coord = st.floats(-3.0, 3.0, allow_subnormal=False)
        hull = _convex_hull(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8)))
        assume(len(hull) >= 3)
    elif draw(st.booleans()):
        hull = order_ccw(rx.vertices(CATALOG[draw(st.sampled_from(PLANAR))]))
    else:
        # k points on an ellipse, arcs between neighbours at least 2 pi / (3k - 2): edges and turns stay far from zero
        k = draw(st.integers(3, 8))
        arcs = np.cumsum(draw(st.lists(st.floats(1.0, 3.0), min_size=k, max_size=k)))
        theta = 2.0 * math.pi * arcs / arcs[-1] + draw(st.floats(0.0, 2.0 * math.pi))
        turn = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        axes = np.array([draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))])
        shift = np.array([draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))])
        hull = np.column_stack([np.cos(theta), np.sin(theta)]) * axes @ rot.T + shift
    a, b = _halfspaces_of(hull)
    j = draw(st.integers(0, len(hull) - 1))
    edge = hull[(j + 1) % len(hull)] - hull[j]
    center = hull.mean(axis=0)
    placement = draw(st.sampled_from(PLACEMENTS))
    if placement == "interior":
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(hull), max_size=len(hull))))
        t = weights @ hull / weights.sum()
    elif placement == "outside":
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        radius = np.abs(hull - center).max() * 2.0 * draw(st.floats(1.0, 4.0))
        t = center + radius * np.array([math.cos(theta), math.sin(theta)])
    elif placement == "vertex":
        t = hull[j]
    elif placement == "facet":
        t = hull[j] + draw(st.floats(0.05, 0.95)) * edge
    else:
        t = hull[j] + draw(st.one_of(st.floats(-3.0, -0.2), st.floats(1.2, 4.0))) * edge
    a, b = _rescaled(draw, a, b, (-2.0, 2.0), permute=True)
    return placement, rx.Polytope.from_inequalities(a, b).translate(t)


def _oracle_field(coeffs):
    c = coeffs
    return lambda p: c[0] * p[0] ** 2 + c[1] * p[0] * p[1] + c[2] * p[1] ** 2 + c[3] * abs(p[0] - c[4]) + c[5] * p[1]


@st.composite
def oracles(draw):
    """An oracle: a planar catalog entry (density 0-20), or on a 2-D ``cut_boxes`` polytope, unscaled and
    unpermuted, the field c0 x^2 + c1 xy + c2 y^2 + c3 |x - c4| + c5 y with c in [-2, 2]^6 (density 0-12)."""
    if draw(st.booleans()):
        entry = rx.CATALOG_BUILDERS[draw(st.sampled_from(PLANAR))]()
        return rx.oracle_build(entry.field, entry.default_polytope, grid_density=draw(st.integers(0, 20)))
    a, b, _ = draw(cut_boxes(dims=(2, 2), exponents=None, permute=False))
    field = rx.ScalarField(2, _oracle_field(draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))), name="any")
    return rx.oracle_build(field, rx.Polytope.from_inequalities(a, b), grid_density=draw(st.integers(0, 12)))


def _moved(draw, x) -> float:
    """x as it is, moved 1-8 ulps, or moved 10^[-15, -7] either way."""
    kind = draw(st.sampled_from(["on", "ulps", "off"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "ulps":
        return float(ulps(x, sign, draw(st.integers(1, 8))))
    return x + sign * 10.0 ** draw(st.floats(-15.0, -7.0)) if kind == "off" else x


@st.composite
def near_collinear_hull_lps(draw):
    """(c, A, b) of ``hull_lp`` on a box lattice whose rows are moved off their lines, queried near a sample.

    3-5 ticks per axis, 1/8, 1/2 or 1 apart, from x = 0 or 0.90625 and y = 0;
    each row of the lattice (one y) is moved by ``_moved``, so the points of a
    column stay collinear and triples across rows nearly are.  Values y^2,
    x^2 + y^2 or integers in [-2, 2]; the query is a sample point with its y
    moved again, so it may lie just outside the hull.
    """
    ticks = draw(st.integers(3, 5))
    step = draw(st.sampled_from([0.125, 0.5, 1.0]))
    xs = draw(st.sampled_from([0.0, 0.90625])) + step * np.arange(ticks)
    ys = [_moved(draw, step * i) for i in range(ticks)]
    points = np.array([(x, y) for x in xs for y in ys])
    kind = draw(st.sampled_from(["y^2", "x^2 + y^2", "integers"]))
    if kind == "integers":
        values = draw(st.lists(st.integers(-2, 2), min_size=len(points), max_size=len(points)))
    else:
        values = points[:, 1] ** 2 + (points[:, 0] ** 2 if kind == "x^2 + y^2" else 0.0)
    i, j = draw(st.integers(0, ticks - 1)), draw(st.integers(0, ticks - 1))
    return hull_lp(points, values, [xs[i], _moved(draw, ys[j])])


@st.composite
def query_runs(draw, oracle):
    """Queries in lattice order, random jumps, at sample points (degenerate optima) and outside the hull.

    Lattices of 2-4 points per axis over the sample box grown by 5% a side; 2-8
    jumps in that box grown by 20% a side; 2-8 sample points; or both
    interleaved.
    """
    lo, hi = oracle.points.min(axis=0), oracle.points.max(axis=0)
    span = hi - lo
    kind = draw(st.sampled_from(["lattice", "jumps", "samples", "mixed"]))
    if kind == "lattice":
        grid = lattice(np.stack([lo - 0.05 * span, hi + 0.05 * span], axis=1), draw(st.integers(2, 4)))
        return list(grid)
    count = draw(st.integers(2, 8))
    samples = [oracle.points[i] for i in draw(st.lists(st.integers(0, len(oracle.points) - 1), min_size=count, max_size=count))]
    unit = st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
    jumps = [lo + np.array(u) * span for u in draw(st.lists(unit, min_size=count, max_size=count))]
    if kind == "samples":
        return samples
    if kind == "jumps":
        return jumps
    return [p for pair in zip(samples, jumps) for p in pair]


@st.composite
def oracle_query_runs(draw):
    """An ``oracles()`` draw and a ``query_runs`` draw on it, as one (oracle, queries) pair."""
    oracle = draw(oracles())
    return oracle, draw(query_runs(oracle))


# -- cases of the equivalence table ------------------------------------------


def _wave(p):
    return float(np.sin(p).sum() + p[0] * p[-1])


def _wave_grad(p):
    g = np.cos(p)
    g[0] += p[-1]
    g[-1] += p[0]
    return g


WAVES = {  # defined on all of R^n: with and without an analytic gradient (finite differences)
    "wave": lambda n: rx.ScalarField(n, _wave, grad=_wave_grad, name="wave"),
    "wave-fd": lambda n: rx.ScalarField(n, _wave, name="wave-fd"),
}
# the evaluators read only this status, so the models drawn here need no certification run
HOMOGENEOUS = SimpleNamespace(positively_homogeneous=SimpleNamespace(status="pass"), all_passed=False)
POINT_KINDS = ("interior", "facet", "vertex", "anchor", "degenerate", "outside")


def _degenerate_direction(polytope, vertex, s):
    """d such that the line through vertex along d meets P only there, and o = vertex - s d.

    For two facets i, j active at the vertex, d = u_i - u_j (unit normals) has u_i.d > 0 and
    u_j.d < 0, so the line leaves P on both sides of the vertex.
    """
    active = np.flatnonzero(np.abs(polytope.matrix @ vertex - polytope.offsets) <= 1e-9)
    u = polytope.matrix[active[:2]] / np.linalg.norm(polytope.matrix[active[:2]], axis=1)[:, None]
    d = u[0] - u[1]
    return vertex - s * d


def _model_point(draw, model, kind):
    """A point of one of POINT_KINDS in the model's original coordinates: "interior" a vertex combination,
    weights in [0.01, 1]; "facet" a ``near_facet`` with move "on"; "outside" a vertex times [1.01, 3]."""
    verts = rx.vertices(model.polytope)
    if kind == "interior":
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(verts), max_size=len(verts))))
        v = w @ verts / w.sum()
    elif kind == "facet":
        v = draw(near_facet(model.polytope, moves=("on",)))
    elif kind in ("vertex", "degenerate"):  # each vertex ray of cobb-douglas's box but two is degenerate
        v = verts[draw(st.integers(0, len(verts) - 1))]
    elif kind == "anchor":
        v = np.zeros(model.polytope.dim)
    else:
        v = verts[draw(st.integers(0, len(verts) - 1))] * draw(st.floats(1.01, 3.0))
    return model.anchor + v


@st.composite
def catalog_model_points(draw):
    """(model, x): a certified catalog model, anchored (bilinear, fractional), concave (reliability),
    origin outside (cubic) or 3-D with degenerate vertex rays (cobb-douglas), and a ``_model_point``."""
    _, model = catalog_models(True)[draw(st.sampled_from(sorted(CATALOG)))]
    return model, _model_point(draw, model, draw(st.sampled_from(POINT_KINDS)))


@st.composite
def drawn_model_points(draw):
    """(model, x): a WAVES field on a ``polytopes()`` polytope, either sense, taken as homogeneous, and a point.

    The anchor is none or the polytope's centre, and x a ``_model_point``; for kind
    "degenerate" the polytope is first moved so that the origin lies on a line that touches
    P only at one vertex, and x is that vertex.
    """
    polytope, centre = draw(polytopes())
    kind = draw(st.sampled_from(POINT_KINDS))
    field = WAVES[draw(st.sampled_from(sorted(WAVES)))](polytope.dim)
    sense = draw(st.sampled_from(["convex", "concave"]))
    if kind == "degenerate":
        verts = rx.vertices(polytope)
        vertex = verts[draw(st.integers(0, len(verts) - 1))]
        origin = _degenerate_direction(polytope, vertex, draw(st.floats(0.5, 2.0)))
        polytope, anchor = polytope.translate(origin), "none"
    else:
        anchor = centre if draw(st.sampled_from(["none", "centre"])) == "centre" else "none"
    model = env.build(field, polytope, sense=sense, anchor=anchor, run_certification=False)
    model = replace(model, certification=HOMOGENEOUS)
    if kind == "degenerate":
        x = vertex - origin
        try:  # a second facet within 1e-9 of the vertex can leave a sliver
            assume(reference_evaluators.locate(model.polytope, x).degenerate)
        except PointOutsidePolytope:
            pass  # rounding lost the one point: the evaluators must still agree on the error
        return model, x
    return model, _model_point(draw, model, kind)


ANCHORS = ("none", "origin-shift", "vector", "-0.0")
SENSES = ("convex", "concave")


def _poisoned(draw):
    """-x*y on [-1, 1] x [-0.5, 2], except nan, inf or -inf within a drawn ball, as float, np.float64 or np.float32."""
    center = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 2.0)), label="center")
    radius = draw(st.floats(0.05, 1.0), label="radius")
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
    kind = draw(st.sampled_from((float, np.float64, np.float32)), label="returns")

    def ball(p):
        coords = p.tolist()
        return kind(bad if math.dist(coords, center) <= radius else -coords[0] * coords[1])

    return rx.ScalarField(2, ball, name="ball"), rx.Polytope.box([-1.0, -0.5], [1.0, 2.0])


def _working_model(draw, field, polytope):
    """field over polytope under a drawn anchor of ANCHORS and sense, uncertified.

    The origin anchors need the origin in P; a P without it is moved so that
    its vertex mean is the origin.  A "vector" anchor is a vertex combination
    with integer weights in [0, 4].
    """
    kind = draw(st.sampled_from(ANCHORS), label="anchor")
    corners = rx.vertices(polytope)
    if kind in ("origin-shift", "-0.0") and not polytope.contains(np.zeros(polytope.dim)):
        polytope = polytope.translate(corners.mean(axis=0))
        corners = rx.vertices(polytope)
    if kind == "vector":
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=len(corners), max_size=len(corners))))
        anchor = corners.mean(axis=0) if weights.sum() == 0 else weights @ corners / weights.sum()
    elif kind == "-0.0":
        anchor = np.array([-0.0] + [0.0] * (polytope.dim - 1))
    else:
        anchor = kind
    sense = draw(st.sampled_from(SENSES), label="sense")
    return env.build(field, polytope, sense=sense, anchor=anchor, run_certification=False)


def _special_rows(draw, dim, max_rows):
    """A (k, dim) array with k in [0, max_rows]: coordinates in [-3, 3], signed zeros, infinities and nan."""
    coordinate = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
    rows = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim), max_size=max_rows), label="points")
    return np.array(rows, dtype=float).reshape(-1, dim)


@st.composite
def working_field_rows(draw):
    """(field, points): the working field, under a ``_working_model`` anchor and sense, of a catalog
    entry on its default polytope or of a ``_poisoned`` field, and ``_special_rows`` of up to 12 points."""
    if draw(st.booleans(), label="catalog"):
        entry = draw(st.sampled_from(rx.catalog()), label="entry")
        field, polytope = entry.field, entry.default_polytope
    else:
        field, polytope = _poisoned(draw)
    model = _working_model(draw, field, polytope)
    return model.field, _special_rows(draw, polytope.dim, 12)


@st.composite
def working_field_samples(draw):
    """(field, points): a ``_poisoned`` working field and a (samples, per_sample, 2) array of
    ``_special_rows``, per_sample 1 to 3 and at most 4 samples."""
    model = _working_model(draw, *_poisoned(draw))
    per_sample = draw(st.integers(1, 3), label="per_sample")
    flat = _special_rows(draw, 2, 4 * per_sample)
    return model.field, flat[: len(flat) // per_sample * per_sample].reshape(-1, per_sample, 2)


WORKING_ENTRIES = (rx.bilinear_neg(-1.0, -1.0, 2.0, 2.0), rx.reliability())
WORKING_CASES = [  # (entry, anchor); each polytope contains its vector anchors, and all but fractional's the origin
    (entry, anchor) for entry in WORKING_ENTRIES for anchor in ("none", "origin-shift", (0.3, 0.2))
] + [
    (entry, zero) for entry in WORKING_ENTRIES for zero in ((0.0, 0.0), (-0.0, 0.0))  # no add, as "origin-shift"
] + [(rx.fractional(), (1.0, 0.0))]  # fractional's default anchor


def working_points(entry) -> np.ndarray:
    """60 points of the entry's bounding box grown by 0.5 a side (seed 3), then five with signed zeros."""
    box = rx.validate(entry.default_polytope).coordinate_bounds
    pts = np.random.default_rng(3).uniform(box[:, 0] - 0.5, box[:, 1] + 0.5, size=(60, 2))
    zeros = np.array([[0.0, 0.0], [-0.0, 0.5], [0.5, -0.0], [-0.0, -0.0], [-0.3, 0.7]])
    return np.vstack([pts, zeros])


# -- command lines ------------------------------------------------------------

_HUGE = str(10**20)
CAPPED_SIZES = (str(10**6 + 1), "1001", "316", _HUGE)  # past a cap in any dimension: rejected, never run
_FLAG_VALUES = {  # flag -> (valid values, bad ones: malformed, negative, non-finite or huge)
    "--budget": (["1", "60", "300"], ["0", "-3", str(10**6 + 1), _HUGE, "1e3", "nan", "x"]),
    "--resolution": (["2", "3", "6"], ["1", "0", "-4", "1001", _HUGE, "2.5", "x"]),
    "--density": (["0", "2", "4"], ["-1", "-100000000000", "316", _HUGE, "nan", "x"]),
    "--point": (["0.5,0.5", "1,1", "5,5", "1.3,1.5,1.7"], ["0.3,0.6,0.2", "a,b", "nan,0.5", "1e400,0", ""]),
    "--function": (sorted(rx.CATALOG_BUILDERS), ["nope"]),
    "--format": (["json", "csv"], ["xml"]),
    "--seed": (["0", "7", _HUGE], ["-1", "1.5", "x"]),
    "--sense": (["auto", "convex", "concave"], ["sideways"]),
    "--anchor": (["auto", "none", "origin", "origin-shift", "0.1,0.2"], ["1,x", "nan,0", "1,2,3", "1e400,0"]),
    "--param": (["ux=0.8", "lx=0.1", "a1=0.5"], ["lx", "lx=abc", "ux=nan", "ux=1e400", "foo=1", "=1"]),
    "--polytope": (["no-such-polytope.json"], ["no-such-polytope.json"]),
    **{f"--{flag}": (["0.1", "0.5", "1", "2"], ["0", "-1", "nan", "inf", "-inf", "1e400", "x"]) for flag in _SHORTHANDS},
}
_GIVEN = {  # command -> the flags it always gets (--function one draw in six left out)
    "catalog": (), "certify": ("--function", "--budget"), "eval": ("--function", "--budget", "--point"),
    "grid": ("--function", "--budget", "--resolution"), "regions": ("--function", "--budget"),
    "compare": ("--function", "--budget", "--resolution", "--density"),
}
_OPTIONAL = sorted(set(_FLAG_VALUES) - {"--budget", "--resolution", "--density", "--point", "--function"})


@st.composite
def cli_argv(draw):
    """An argv of ``rayvex``: a subcommand with its flags, each value valid or, one draw in six, bad.

    Every command that builds a model gets a --budget, grid and compare a --resolution, compare a
    --density and eval a --point, so no valid run is slow.  Up to three other flags follow (eval's
    often another --point), and one draw in ten a --density, which only compare takes.
    """

    def value(flag):
        valid, bad = _FLAG_VALUES[flag]
        return draw(st.sampled_from(bad if draw(st.integers(0, 5)) == 0 else valid))

    command = draw(st.sampled_from(sorted(_GIVEN)))
    flags = [flag for flag in _GIVEN[command] if flag != "--function" or draw(st.integers(0, 5))]
    others = ["--format"] if command == "catalog" else _OPTIONAL + ["--point"] * 3 * (command == "eval")
    flags += draw(st.lists(st.sampled_from(others), max_size=3)) + ["--density"] * (draw(st.integers(0, 9)) == 0)
    return [command] + [item for flag in flags for item in (flag, value(flag))]
