"""Command-line front end: certify, evaluate, export grids/regions, compare.

Machine-readable output goes to --out (or stdout); diagnostics go to stderr.
Exit codes: 0 success, 1 usage/IO error, 2 hypothesis or sandwich failure.
Size flags are checked before anything of that size is built, by the
library's own guards: --budget from 1 to MAX_BUDGET samples, --resolution
at least 2 and at most MAX_LATTICE_POINTS lattice points (resolution^dim),
--density at least 0 and at most MAX_ORACLE_POINTS oracle lattice points
((density + 1)^dim, the columns of each oracle LP).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import envelope as env
from .errors import DimensionMismatch, InvalidInput, RayvexError
from .functions import CATALOG_BUILDERS, CatalogEntry, catalog
from .geometry import MAX_LATTICE_POINTS, Polytope, enumerate_regions_2d, guard_lattice, lattice
from .verify import (
    DEFAULT_BUDGET, MAX_BUDGET, MAX_ORACLE_POINTS, guard_budget, guard_density, oracle_build, oracle_eval,
)

_SHORTHANDS = ("lx", "ly", "ux", "uy", "A", "a1", "a2", "a3", "l", "u")
_PARAM_ALIASES = {"A": "scale", "l": "lower", "u": "upper"}
SANDWICH_TOL = 1e-8  # compare exits 2 when the oracle is further than this below the envelope


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        # looked up by name at each call, so a wrapper installed on cmd_* later is what runs
        return globals()[f"cmd_{args.command}"](args)
    except (RayvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # built on the first main call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rayvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--function", required=True, choices=sorted(CATALOG_BUILDERS))
    model_flags.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    for flag in _SHORTHANDS:
        model_flags.add_argument(f"--{flag}", type=float, default=None)
    model_flags.add_argument("--polytope", default=None, metavar="FILE")
    model_flags.add_argument("--sense", choices=["auto", "convex", "concave"], default="auto")
    model_flags.add_argument("--anchor", default="auto", help="auto | none | origin | origin-shift | t1,t2,...")
    model_flags.add_argument("--seed", type=int, default=0)
    model_flags.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=f"certification samples, 1 to {MAX_BUDGET}")

    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--out", default=None, metavar="FILE")
    output_flags.add_argument("--format", choices=["json", "csv"], default="json")

    sub.add_parser("catalog", parents=[output_flags], help="list catalog entries")
    sub.add_parser("certify", parents=[model_flags, output_flags], help="run hypothesis certification")

    p = sub.add_parser("eval", parents=[model_flags, output_flags], help="evaluate the envelope at points")
    p.add_argument("--point", action="append", default=[], metavar="X1,X2,...")

    resolution_help = f"lattice points per axis, at least 2 and at most {MAX_LATTICE_POINTS} points in all"
    p = sub.add_parser("grid", parents=[model_flags, output_flags], help="evaluate over a lattice")
    p.add_argument("--resolution", type=int, default=11, help=resolution_help)

    sub.add_parser("regions", parents=[model_flags, output_flags], help="export the 2-D subdivision")

    p = sub.add_parser("compare", parents=[model_flags, output_flags], help="envelope vs sampled oracle")
    p.add_argument("--density", type=int, default=10, help=f"oracle lattice intervals per axis, at most {MAX_ORACLE_POINTS} points in all")
    p.add_argument("--resolution", type=int, default=11, help=resolution_help)
    return parser


def _entry_from_args(args) -> CatalogEntry:
    params = {}
    for flag in _SHORTHANDS:
        val = getattr(args, flag)
        if val is not None:
            params[_PARAM_ALIASES.get(flag, flag)] = val
    for item in args.param:
        if "=" not in item:
            raise InvalidInput(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = map(str.strip, item.split("=", 1))
        params[_PARAM_ALIASES.get(key, key)] = _number(f"--param {key}", raw)
    try:
        return CATALOG_BUILDERS[args.function](**params)
    except TypeError as exc:
        raise InvalidInput(f"bad parameters for {args.function}: {exc}") from exc


def _model_from_args(args):
    """The catalog entry and its model: the flags map one-to-one onto ``build``'s arguments.

    ``auto`` takes the entry's build sense or default anchor; ``--anchor`` also takes the
    policies as ``rayvex catalog`` prints them, and ``origin`` is short for "origin-shift".
    """
    entry = _entry_from_args(args)
    _check_sizes(args, entry.field.dim)
    polytope = Polytope.load(args.polytope) if args.polytope else entry.default_polytope
    sense = entry.build_sense if args.sense == "auto" else args.sense
    anchor = args.anchor
    if anchor == "auto":
        anchor = entry.default_anchor
    elif anchor == "origin":
        anchor = "origin-shift"
    elif anchor not in ("none", "origin-shift"):
        anchor = np.array([_number("--anchor", part) for part in anchor.split(",")])
    model = env.build(entry.field, polytope, sense=sense, anchor=anchor, budget=args.budget, seed=args.seed)
    return model, entry


def _check_sizes(args, dim: int) -> None:
    """Reject a size flag out of range by the guard of the library call it feeds, and a --resolution below 2."""
    guard_budget(args.budget)
    resolution, density = getattr(args, "resolution", None), getattr(args, "density", None)
    if resolution is not None:
        if resolution < 2:
            raise InvalidInput(f"{args.command} needs --resolution >= 2")
        guard_lattice(resolution, dim)
    if density is not None:
        guard_density(density, dim)


def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInput(f"{flag}: {text!r} is not a number") from None


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_catalog(args) -> int:
    entries = []
    for entry in catalog():
        anchor = entry.default_anchor
        entries.append(
            {
                "name": entry.name,
                "dim": entry.field.dim,
                "sense": entry.envelope_sense,
                "params": entry.params,
                "default_anchor": anchor if isinstance(anchor, str) else list(np.asarray(anchor, dtype=float)),
                "has_expected_envelope": entry.expected_envelope is not None,
            }
        )
    _write_json({"command": "catalog", "entries": entries}, args.out)
    return 0


def cmd_certify(args) -> int:
    model, entry = _model_from_args(args)
    payload = {
        "command": "certify",
        "function": entry.name,
        "params": entry.params,
        "sense": model.sense,
        "anchor": model.anchor.tolist(),
        "status": model.status,
        "working_domain": model.validation.to_dict(),
        "certification": model.certification.to_dict(),
    }
    _write_json(payload, args.out)
    if not model.certified:
        _info(f"{entry.name}: certification FAILED ({model.status})")
        return 2
    _info(f"{entry.name}: certification passed")
    return 0


def _point_rows(model, points) -> tuple[list[tuple], int]:
    """Per point that ``env.eval`` accepts the row (x1, ..., xn, f, g, tight, region_in, region_out), and how many it rejected."""
    rows = []
    omitted = 0
    for x in points:
        try:
            result = env.eval(model, x)
        except RayvexError:
            omitted += 1
            continue
        region = result.region
        ends = (None, None) if region is None else (region.in_facet, region.out_facet)
        rows.append((*x.tolist(), result.f, result.value, result.tight, *ends))
    return rows, omitted


def _emit_rows(payload: dict, dim: int, rows: list[tuple], omitted: int, args) -> None:
    """The rows as JSON objects keyed x1, ..., xn, f, g, ... or as CSV, floats in %.17g (exact double round-trips)."""
    keys = [f"x{i + 1}" for i in range(dim)] + ["f", "g", "tight", "region_in", "region_out"]
    if args.format == "json":
        _write_json({**payload, "rows": [dict(zip(keys, row)) for row in rows], "omitted": omitted}, args.out)
        return
    lines = []
    if rows:
        lines.append(",".join(keys))
        line = "%.17g," * (dim + 2) + "%d,%s,%s"  # a facet cell is empty where it is None
        for *head, region_in, region_out in rows:
            lines.append(line % (*head, "" if region_in is None else region_in, "" if region_out is None else region_out))
    lines.append(f"# omitted={omitted}")
    _write("\n".join(lines) + "\n", args.out)


def cmd_eval(args) -> int:
    if not args.point:
        raise InvalidInput("eval needs at least one --point")
    model, entry = _model_from_args(args)
    points = [np.array([_number("--point", c) for c in raw.split(",")]) for raw in args.point]
    for x in points:
        if x.size != model.polytope.dim:
            raise DimensionMismatch(f"point {x.tolist()} has wrong dimension")
    rows, omitted = _point_rows(model, points)
    _emit_rows({"command": "eval", "function": entry.name}, model.polytope.dim, rows, omitted, args)
    return 0


def cmd_grid(args) -> int:
    model, entry = _model_from_args(args)
    bounds = model.validation.coordinate_bounds + model.anchor[:, None]
    rows, omitted = _point_rows(model, lattice(bounds, args.resolution))
    _emit_rows(
        {"command": "grid", "function": entry.name, "resolution": args.resolution},
        model.polytope.dim,
        rows,
        omitted,
        args,
    )
    return 0


def cmd_regions(args) -> int:
    model, entry = _model_from_args(args)
    normals = model.polytope._normalized  # None for a facet through the anchor: its cells reach the anchor
    regions = []
    for region_id, polygon in enumerate_regions_2d(model.polytope):
        a_minus = None if region_id.in_facet is None else normals[region_id.in_facet]
        regions.append(
            {
                "in_facet": region_id.in_facet,
                "out_facet": region_id.out_facet,
                "polygon": (polygon + model.anchor).tolist(),
                "a_minus": None if a_minus is None else a_minus.tolist(),
                "a_plus": normals[region_id.out_facet].tolist(),
            }
        )
    payload = {
        "command": "regions",
        "function": entry.name,
        "anchor": model.anchor.tolist(),
        "note": "polygons in original coordinates; a vectors in working (anchored) coordinates",
        "regions": regions,
    }
    _write_json(payload, args.out)
    return 0


def cmd_compare(args) -> int:
    model, entry = _model_from_args(args)
    if not model.certified:
        _info(f"warning: {entry.name} is uncertified; comparing against the secant interpolant")

    oracle = oracle_build(model.field, model.polytope, grid_density=args.density)
    if oracle.skipped:
        _info(f"oracle skipped {oracle.skipped} non-finite closure points")

    gaps = []
    f_gaps = []
    infeasible = 0
    # working coordinates: the oracle and the secant see the anchored field
    queries = lattice(model.validation.coordinate_bounds, args.resolution)
    inside = model.polytope.contains(queries)
    for v in queries[inside]:
        g_raw = env.secant_raw(model, v)
        try:
            o_raw = oracle_eval(oracle, v)
        except RayvexError:
            infeasible += 1
            continue
        gaps.append(o_raw - g_raw)
        f_gaps.append(float(model.field.eval(v)) - g_raw)
    if not gaps:
        raise InvalidInput("no comparable query points")

    gaps_arr = np.array(gaps)
    payload = {
        "command": "compare",
        "function": entry.name,
        "sense": model.sense,
        "status": model.status,
        "density": args.density,
        "resolution": args.resolution,
        "oracle_points": len(oracle.values),
        "queries": len(gaps),
        "skipped_outside": int(np.count_nonzero(~inside)),
        "skipped_infeasible": infeasible,
        "max_oracle_minus_g": float(gaps_arr.max()),
        "mean_oracle_minus_g": float(gaps_arr.mean()),
        "min_oracle_minus_g": float(gaps_arr.min()),
        "min_f_minus_g": float(np.min(f_gaps)),
        "sandwich_violation": float(max(0.0, -gaps_arr.min())),
    }
    _write_json(payload, args.out)
    if payload["sandwich_violation"] > SANDWICH_TOL:
        _info(f"sandwich violation {payload['sandwich_violation']:.3e} exceeds {SANDWICH_TOL:g}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
