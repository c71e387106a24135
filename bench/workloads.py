"""Seeded inputs, operations and correctness checks for each workload.

Every workload is a closed loop with one caller: an operation starts when
the previous one has returned.  Inputs are drawn from the catalog's
documented parameter ranges by a generator seeded from the benchmark's
``--seed``; the program sees only the drawn values (flags, points), never
the seed.  Operations come in rounds that visit every catalog entry (and,
for ``evaluate``, every call and point kind) once, so a run made of whole
rounds has the same mix whatever the seed.

No input is ever re-drawn: an operation whose output fails its check is
counted as failed and listed with its input.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rayvex as rx
from rayvex import cli
from rayvex import envelope as env

ENVELOPE_TOL = 1e-9  # acceptance criteria 1-4: |eval - closed form|
HOMOGENEOUS_TOL = 1e-10  # eval_homogeneous agrees with eval (its docstring)
SANDWICH_TOL = 1e-8  # cli compare exits 2 above this

CERTIFY_BUDGET = 10_000
EVALUATE_BUDGET = 2_000  # the budget acceptance criteria 3 and 4 build their models with
GRID_BUDGET = 1_000  # keeps the command's own certification to ~20% of a grid command
GRID_RESOLUTION = 101
COMPARE_BUDGET = 1_000
COMPARE_DENSITY = 20  # 441 LP columns on a box; the simplex dominates the command
COMPARE_RESOLUTION = 9


@dataclass
class Op:
    """One timed call: ``call`` is timed, ``check`` and ``work`` are not."""

    index: int
    kind: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], str | None]
    work: Callable[[object], int]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


# -- parameter draws ------------------------------------------------------


def draw_params(name: str, rng: np.random.Generator) -> dict:
    """Catalog parameters from each builder's documented range."""
    if name == "bilinear":  # any box with lx < ux, ly < uy; kept at unit scale (ROADMAP item 4a)
        lx, ly = rng.uniform(-1.0, 1.0, size=2)
        wx, wy = rng.uniform(0.5, 3.0, size=2)
        return {"lx": float(lx), "ly": float(ly), "ux": float(lx + wx), "uy": float(ly + wy)}
    if name == "reliability":  # "intended for 0 < ux, uy <= 1"
        ux, uy = rng.uniform(0.3, 1.0, size=2)
        return {"ux": float(ux), "uy": float(uy)}
    if name == "cobb-douglas":  # positive scale and exponents summing to 1 (homogeneous), positive box
        weights = rng.uniform(0.2, 1.0, size=3)
        a1, a2 = (weights[:2] / weights.sum()).tolist()
        lower = float(rng.uniform(0.5, 2.0))
        return {
            "scale": float(rng.uniform(0.5, 3.0)),
            "a1": a1,
            "a2": a2,
            "a3": 1.0 - a1 - a2,
            "lower": lower,
            "upper": lower * float(rng.uniform(1.5, 3.0)),
        }
    return {}  # fractional and cubic have fixed domains


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def model_argv(command: str, name: str, params: dict, seed: int, budget: int) -> list[str]:
    argv = [command, "--function", name, "--seed", str(seed), "--budget", str(budget)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    return argv


# -- workloads --------------------------------------------------------------


class Workload:
    name = ""
    work_unit = ""
    op_unit = ""
    trace_rounds = 1  # whole rounds in a traced run, so its counts repeat exactly
    aliases: tuple = ()  # (per-workload name, benchmark metric, factor, unit) printed for readers

    def setup(self, rng: np.random.Generator) -> list[dict]:
        """Prepare state; return failed set-up steps (each with its input)."""
        return []

    def round(self, rng: np.random.Generator, start: int) -> list[Op]:
        raise NotImplementedError

    def fields(self) -> list:
        """Scalar fields this workload built during set-up and hands to the program."""
        return []

    def completeness(self, op: Op, output, counts: dict) -> str | None:
        """Compare traced call counts of one operation with what it reported."""
        return None

    def usable(self, output) -> dict:
        """Usable lattice points of a grid or compare command (cli.usable_query_ratio)."""
        return {}


class CertifyWorkload(Workload):
    """``rayvex certify`` at budget 10^4 on all five catalog entries."""

    name = "certify"
    work_unit = "certifications"
    op_unit = "certify command"
    aliases = (("certify_s_p50", "op_ms_p50", 1e-3, "s"),)
    entries = ("bilinear", "fractional", "reliability", "cubic", "cobb-douglas")

    def round(self, rng, start):
        ops = []
        for k, name in enumerate(self.entries):
            params = draw_params(name, rng)
            argv = model_argv("certify", name, params, draw_seed(rng), CERTIFY_BUDGET)
            ops.append(Op(start + k, f"certify:{name}", {"argv": argv}, lambda a=argv: run_cli(a), _check_certify, _one))
        return ops

    def completeness(self, op, output, counts):
        report = json.loads(output.out)
        samples = report["certification"]["sample_counts"]
        inside = report["working_domain"]["origin_location"] != "outside"
        field = "functions.field"
        expect = {
            ("verify.check_ray_concavity", field): 3 * samples["ray_concave"],
            ("verify.check_facet_convexity", field): 3 * samples["facet_convex"],
        }
        hom = samples["positively_homogeneous"]
        if inside:
            expect[("verify.check_positive_homogeneity", field)] = 1
            expect[("verify.check_positive_homogeneity", "envelope.secant_raw")] = 4 * (hom - 1) // 3
        else:
            expect[("verify.check_positive_homogeneity", field)] = 2 * hom
        return _compare_counts(counts, expect)


class GridWorkload(Workload):
    """``rayvex grid --format csv`` over a 101 x 101 lattice."""

    name = "grid"
    work_unit = "lattice points"
    op_unit = "grid command"
    aliases = (("grid_points_per_s", "work_per_s", 1.0, "1/s"),)
    entries = ("bilinear", "fractional", "reliability")  # fields finite on the whole closure

    def round(self, rng, start):
        ops = []
        for k, name in enumerate(self.entries):
            params = draw_params(name, rng)
            argv = model_argv("grid", name, params, draw_seed(rng), GRID_BUDGET)
            argv += ["--resolution", str(GRID_RESOLUTION), "--format", "csv"]
            expected = rx.CATALOG_BUILDERS[name](**params).expected_envelope
            ops.append(
                Op(
                    start + k,
                    f"grid:{name}",
                    {"argv": argv},
                    lambda a=argv: run_cli(a),
                    lambda result, e=expected: _check_grid(result, e),
                    lambda result: GRID_RESOLUTION**2,
                )
            )
        return ops

    def completeness(self, op, output, counts):
        return _compare_counts(counts, {("cli.cmd_grid", "envelope.eval"): GRID_RESOLUTION**2})

    def usable(self, output):
        return {"usable": len(output.out.splitlines()) - 2, "lattice": GRID_RESOLUTION**2}


class CompareWorkload(Workload):
    """``rayvex compare`` against the LP oracle at density 20 on the 2-D entries."""

    name = "compare"
    work_unit = "oracle queries"
    op_unit = "compare command"
    aliases = (("compare_s_p50", "op_ms_p50", 1e-3, "s"), ("oracle_queries_per_s", "work_per_s", 1.0, "1/s"))
    entries = ("bilinear", "fractional", "reliability", "cubic")

    def round(self, rng, start):
        ops = []
        for k, name in enumerate(self.entries):
            params = draw_params(name, rng)
            argv = model_argv("compare", name, params, draw_seed(rng), COMPARE_BUDGET)
            argv += ["--density", str(COMPARE_DENSITY), "--resolution", str(COMPARE_RESOLUTION)]
            ops.append(
                Op(start + k, f"compare:{name}", {"argv": argv}, lambda a=argv: run_cli(a), _check_compare, _queries)
            )
        return ops

    def completeness(self, op, output, counts):
        payload = json.loads(output.out)
        lp_queries = payload["queries"] + payload["skipped_infeasible"]
        field = "functions.field"
        kept = counts.get(("verify.oracle_build", field), 0) - counts.get(
            ("verify.oracle_build", "functions.field_nonfinite"), 0
        )
        if kept != payload["oracle_points"]:
            return f"finite oracle field evaluations {kept} != oracle_points {payload['oracle_points']}"
        return _compare_counts(
            counts,
            {
                ("cli.cmd_compare", "verify.oracle_eval"): lp_queries,
                ("verify.oracle_eval", "simplex.solve_lp"): lp_queries,
                ("cli.cmd_compare", "envelope.secant_raw"): lp_queries,
            },
        )

    def usable(self, output):
        return {"usable": json.loads(output.out)["queries"], "lattice": COMPARE_RESOLUTION**2}


@dataclass
class _EvalTarget:
    """A certified model with the points the generator may place on it (original coordinates)."""

    name: str
    field: object
    model: object
    expected: Callable[[np.ndarray], float]
    corners: np.ndarray  # all vertices
    vertices: np.ndarray  # the vertices where the field is finite
    away: np.ndarray  # those of them that are not the working origin
    facets: list[np.ndarray]  # vertex sets of facets where the field is finite inside
    rays: list[tuple[np.ndarray, float]]  # (vertex - anchor, scaling where that ray enters P)


class EvaluateWorkload(Workload):
    """Scalar ``value`` / ``gradient`` / ``eval_homogeneous`` calls on certified models."""

    name = "evaluate"
    work_unit = "queries"
    op_unit = "scalar call"
    aliases = (
        ("query_us_p50", "op_ms_p50", 1e3, "us"),
        ("query_us_p99", "op_ms_p99", 1e3, "us"),
        ("queries_per_s", "work_per_s", 1.0, "1/s"),
    )
    trace_rounds = 200
    entries = ("bilinear", "fractional", "reliability", "cubic", "cobb-douglas")
    calls = ("value", "gradient", "eval_homogeneous")
    points = ("interior", "facet", "vertex", "vertex_ray")

    def __init__(self):
        self.targets: list[_EvalTarget] = []

    def setup(self, rng):
        failures = []
        for name in self.entries:
            params = draw_params(name, rng)
            seed = draw_seed(rng)
            entry = rx.CATALOG_BUILDERS[name](**params)
            inputs = {"function": name, "params": params, "seed": seed, "budget": EVALUATE_BUDGET}
            failed = {"op": "set-up", "kind": f"build:{name}", "inputs": inputs}
            try:
                model = env.build(
                    entry.field, entry.default_polytope, sense=entry.build_sense,
                    anchor=entry.default_anchor, budget=EVALUATE_BUDGET, seed=seed,
                )
            except rx.errors.RayvexError as exc:
                failures.append({**failed, "reason": repr(exc)})
                continue
            if not model.certified:
                failures.append({**failed, "reason": f"status {model.status}"})
                continue
            self.targets.append(_make_target(name, entry, model))
        return failures

    def fields(self):
        return [t.field for t in self.targets]

    def round(self, rng, start):
        ops = []
        index = start
        for target, call, where in itertools.product(self.targets, self.calls, self.points):
            x = _draw_point(target, where, rng, allow_anchor=call == "value")
            ops.append(
                Op(
                    index,
                    f"{call}:{target.name}:{where}",
                    {"function": target.name, "call": call, "point_kind": where, "x": x.tolist()},
                    lambda c=call, m=target.model, p=x: getattr(env, c)(m, p),
                    lambda result, t=target, c=call, p=x: _check_scalar(t, c, p, result),
                    _one,
                )
            )
            index += 1
        return ops

    def completeness(self, op, output, counts):
        call = op.kind.split(":", 1)[0]
        return _compare_counts(counts, {("bench.op", f"envelope.{call}"): 1})


WORKLOADS = {w.name: w for w in (CertifyWorkload, EvaluateWorkload, GridWorkload, CompareWorkload)}


# -- point generation for evaluate -------------------------------------------


def _vertices(matrix: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Brute-force vertices, independent of rayvex.geometry."""
    n = matrix.shape[1]
    found = []
    for rows in itertools.combinations(range(len(offsets)), n):
        sub = matrix[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, offsets[list(rows)])
        if np.all(matrix @ x <= offsets + 1e-9) and not any(np.allclose(x, y, atol=1e-9) for y in found):
            found.append(x)
    return np.array(found)


def _make_target(name: str, entry, model) -> _EvalTarget:
    poly = entry.default_polytope
    matrix, offsets = poly.matrix, poly.offsets
    corners = _vertices(matrix, offsets)
    # The cubic entry is infinite on its x = 0 facet (ROADMAP item 4c): keep
    # facet, vertex and ray points where the field is finite.
    facets = []
    for i in range(len(offsets)):
        on = np.abs(corners @ matrix[i] - offsets[i]) <= 1e-9
        if on.sum() >= poly.dim and math.isfinite(entry.field(corners[on].mean(axis=0))):
            facets.append(corners[on])
    verts = corners[[math.isfinite(entry.field(v)) for v in corners]]
    anchor = model.anchor
    away = verts[[not np.allclose(v, anchor) for v in verts]]
    rays = []
    for w in away:
        slope = matrix @ (w - anchor)
        room = offsets - matrix @ anchor
        rays.append((w - anchor, max([0.0] + [r / s for r, s in zip(room, slope) if s < 0.0])))
    # cobb-douglas has no stored envelope: homogeneous and concave, it is its own (criterion 9)
    expected = entry.expected_envelope if entry.expected_envelope is not None else entry.field
    return _EvalTarget(name, entry.field, model, expected, corners, verts, away, facets, rays)


def _draw_point(target: _EvalTarget, where: str, rng: np.random.Generator, allow_anchor: bool) -> np.ndarray:
    if where == "interior":
        return rng.dirichlet(np.ones(len(target.corners))) @ target.corners
    if where == "facet":
        # w0 + sum_k lambda_k (w_k - w0) stays exactly on an axis-aligned
        # facet, where a plain convex combination can land an ulp outside it
        face = target.facets[int(rng.integers(len(target.facets)))]
        weights = rng.dirichlet(np.ones(len(face)))
        return face[0] + weights[1:] @ (face[1:] - face[0])
    if where == "vertex":
        verts = target.vertices if allow_anchor else target.away
        return verts[int(rng.integers(len(verts)))].copy()
    # a point on the ray from the working origin through a vertex, inside P
    d, t_in = target.rays[int(rng.integers(len(target.rays)))]
    return target.model.anchor + rng.uniform(max(t_in, 0.05), 1.0) * d


# -- checks ---------------------------------------------------------------


def _one(_result) -> int:
    return 1


def _queries(result: CliResult) -> int:
    return json.loads(result.out)["queries"]


def _check_certify(result: CliResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.err.strip()}"
    report = json.loads(result.out)
    if report["certification"]["all_passed"] is not True:
        return f"all_passed is false ({report['status']})"
    return None


def _check_grid(result: CliResult, expected) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.err.strip()}"
    lines = result.out.splitlines()
    header = lines[0].split(",")
    x1, x2, g = header.index("x1"), header.index("x2"), header.index("g")
    omitted = int(lines[-1].split("=", 1)[1])
    rows = lines[1:-1]
    if len(rows) + omitted != GRID_RESOLUTION**2:
        return f"{len(rows)} rows + {omitted} omitted != {GRID_RESOLUTION**2} lattice points"
    for line in rows:
        cells = line.split(",")
        point = np.array([float(cells[x1]), float(cells[x2])])
        problem = _envelope_gap(float(cells[g]), expected(point))
        if problem:
            return f"at {point.tolist()}: {problem}"
    return None


def _check_compare(result: CliResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.err.strip()}"
    payload = json.loads(result.out)
    if not payload["sandwich_violation"] <= SANDWICH_TOL:
        return f"sandwich_violation {payload['sandwich_violation']:.3e} > {SANDWICH_TOL:g}"
    if payload["queries"] < 1:
        return "no oracle queries"
    return None


def _check_scalar(target: _EvalTarget, call: str, x: np.ndarray, result) -> str | None:
    if call == "gradient":
        grad = np.asarray(result)
        if grad.shape != x.shape or not np.all(np.isfinite(grad)):
            return f"gradient {grad.tolist()} is not a finite {x.size}-vector"
        return None
    if call == "value":
        return _envelope_gap(result, target.expected(x))
    gap = abs(result - env.value(target.model, x))
    return None if gap <= HOMOGENEOUS_TOL else f"|eval_homogeneous - value| = {gap:.3e} > {HOMOGENEOUS_TOL:g}"


def _envelope_gap(got: float, want: float) -> str | None:
    """The acceptance tolerance, scaled up where the closed form exceeds 1 in size."""
    gap = abs(got - want)
    if gap <= ENVELOPE_TOL * max(1.0, abs(want)):
        return None
    return f"|g - closed form| = {gap:.3e} (closed form {want:.6g})"


def _compare_counts(counts: dict, expect: dict) -> str | None:
    for key, want in expect.items():
        got = counts.get(key, 0)
        if got != want:
            return f"traced {key[0]} > {key[1]} = {got}, output implies {want}"
    return None
