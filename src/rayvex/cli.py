"""Command-line front end: certify, evaluate, export grids/regions, compare.

Machine-readable output goes to --out (or stdout); diagnostics go to stderr.
Exit codes: 0 success, 1 usage/IO error, 2 hypothesis or sandwich failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import envelope as env
from .errors import DimensionNotSupported, RayvexError
from .functions import CATALOG_BUILDERS, CatalogEntry, catalog
from .geometry import Polytope, enumerate_regions_2d, normalize_facet
from .verify import oracle_build, oracle_eval

_PARAM_ALIASES = {"A": "scale", "l": "lower", "u": "upper"}
_FLOAT_FMT = "{:.17g}"  # exact double round-trips


class UsageError(RayvexError):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RayvexError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rayvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--function", required=True, choices=sorted(CATALOG_BUILDERS))
    model_flags.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    for flag in ("lx", "ly", "ux", "uy", "A", "a1", "a2", "a3", "l", "u"):
        model_flags.add_argument(f"--{flag}", type=float, default=None)
    model_flags.add_argument("--polytope", default=None, metavar="FILE")
    model_flags.add_argument("--sense", choices=["auto", "convex", "concave"], default="auto")
    model_flags.add_argument("--anchor", default="auto", help="auto | none | origin | t1,t2,...")
    model_flags.add_argument("--seed", type=int, default=0)
    model_flags.add_argument("--budget", type=int, default=10_000)

    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--out", default=None, metavar="FILE")
    output_flags.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("catalog", parents=[output_flags], help="list catalog entries")
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("certify", parents=[model_flags, output_flags], help="run hypothesis certification")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("eval", parents=[model_flags, output_flags], help="evaluate the envelope at points")
    p.add_argument("--point", action="append", default=[], metavar="X1,X2,...")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("grid", parents=[model_flags, output_flags], help="evaluate over a lattice")
    p.add_argument("--resolution", type=int, default=11)
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("regions", parents=[model_flags, output_flags], help="export the 2-D subdivision")
    p.set_defaults(handler=cmd_regions)

    p = sub.add_parser("compare", parents=[model_flags, output_flags], help="envelope vs sampled oracle")
    p.add_argument("--density", type=int, default=10)
    p.add_argument("--resolution", type=int, default=11)
    p.set_defaults(handler=cmd_compare)
    return parser


def _entry_from_args(args) -> CatalogEntry:
    params = {}
    for flag in ("lx", "ly", "ux", "uy", "A", "a1", "a2", "a3", "l", "u"):
        val = getattr(args, flag)
        if val is not None:
            params[_PARAM_ALIASES.get(flag, flag)] = val
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        params[_PARAM_ALIASES.get(key, key)] = float(raw)
    try:
        return CATALOG_BUILDERS[args.function](**params)
    except TypeError as exc:
        raise UsageError(f"bad parameters for {args.function}: {exc}") from exc


def _model_from_args(args):
    entry = _entry_from_args(args)
    polytope = Polytope.load(args.polytope) if args.polytope else entry.default_polytope
    sense = entry.build_sense if args.sense == "auto" else args.sense
    anchor = args.anchor
    if anchor == "auto":
        anchor = entry.default_anchor
    elif anchor == "origin":
        anchor = "origin-shift"
    elif anchor != "none":
        anchor = np.array([float(part) for part in anchor.split(",")])
    model = env.build(entry.field, polytope, sense=sense, anchor=anchor, budget=args.budget, seed=args.seed)
    return model, entry


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


def _point_rows(model, points) -> tuple[list[dict], int]:
    rows = []
    omitted = 0
    for x in points:
        try:
            result = env.eval(model, x)
        except RayvexError:
            omitted += 1
            continue
        region = result.region
        rows.append(
            {
                **{f"x{i + 1}": float(x[i]) for i in range(len(x))},
                "f": result.f,
                "g": result.value,
                "tight": result.tight,
                "region_in": None if region is None else region.in_facet,
                "region_out": None if region is None else region.out_facet,
            }
        )
    return rows, omitted


def _emit_rows(payload: dict, rows: list[dict], omitted: int, args) -> None:
    if args.format == "json":
        _write_json({**payload, "rows": rows, "omitted": omitted}, args.out)
        return
    lines = []
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            cells = []
            for key in header:
                val = row[key]
                if isinstance(val, bool) or val is None:
                    cells.append("" if val is None else str(int(val)))
                elif isinstance(val, float):
                    cells.append(_FLOAT_FMT.format(val))
                else:
                    cells.append(str(val))
            lines.append(",".join(cells))
    lines.append(f"# omitted={omitted}")
    _write("\n".join(lines) + "\n", args.out)


def cmd_eval(args) -> int:
    if not args.point:
        raise UsageError("eval needs at least one --point")
    model, entry = _model_from_args(args)
    points = [np.array([float(c) for c in raw.split(",")]) for raw in args.point]
    for x in points:
        if x.size != model.polytope.dim:
            raise UsageError(f"point {x.tolist()} has wrong dimension")
    rows, omitted = _point_rows(model, points)
    _emit_rows({"command": "eval", "function": entry.name}, rows, omitted, args)
    return 0


def _lattice(bounds: np.ndarray, resolution: int) -> list[np.ndarray]:
    """``resolution`` points per axis over the (dim, 2) box ``bounds``."""
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], resolution) for i in range(len(bounds))]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(bounds))
    return list(mesh)  # C-order: lexicographic by lattice index


def cmd_grid(args) -> int:
    if args.resolution < 2:
        raise UsageError("grid needs --resolution >= 2")
    model, entry = _model_from_args(args)
    bounds = model.validation.coordinate_bounds + model.anchor[:, None]
    rows, omitted = _point_rows(model, _lattice(bounds, args.resolution))
    _emit_rows(
        {"command": "grid", "function": entry.name, "resolution": args.resolution},
        rows,
        omitted,
        args,
    )
    return 0


def cmd_regions(args) -> int:
    model, entry = _model_from_args(args)
    if model.polytope.dim != 2:
        raise DimensionNotSupported("regions export is 2-D only")
    regions = []
    for region_id, polygon in enumerate_regions_2d(model.polytope):
        a_minus = None
        if region_id.in_facet is not None:
            a_minus = normalize_facet(model.polytope, region_id.in_facet).a.tolist()
        a_plus = normalize_facet(model.polytope, region_id.out_facet).a.tolist()
        regions.append(
            {
                "in_facet": region_id.in_facet,
                "out_facet": region_id.out_facet,
                "polygon": (polygon + model.anchor).tolist(),
                "a_minus": a_minus,
                "a_plus": a_plus,
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
    if args.resolution < 2:
        raise UsageError("compare needs --resolution >= 2")
    model, entry = _model_from_args(args)
    if not model.certified:
        _info(f"warning: {entry.name} is uncertified; comparing against the secant interpolant")

    oracle = oracle_build(model.field, model.polytope, grid_density=args.density)
    if oracle.skipped:
        _info(f"oracle skipped {oracle.skipped} non-finite closure points")

    gaps = []
    f_gaps = []
    infeasible = 0
    outside = 0
    # working coordinates: the oracle and the secant see the anchored field
    for v in _lattice(model.validation.coordinate_bounds, args.resolution):
        if not model.polytope.contains(v):
            outside += 1
            continue
        g_raw = env.secant_raw(model, v)
        try:
            o_raw = oracle_eval(oracle, v)
        except RayvexError:
            infeasible += 1
            continue
        gaps.append(o_raw - g_raw)
        f_gaps.append(float(model.field.eval(v)) - g_raw)
    if not gaps:
        raise UsageError("no comparable query points")

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
        "skipped_outside": outside,
        "skipped_infeasible": infeasible,
        "max_oracle_minus_g": float(gaps_arr.max()),
        "mean_oracle_minus_g": float(gaps_arr.mean()),
        "min_oracle_minus_g": float(gaps_arr.min()),
        "min_f_minus_g": float(np.min(f_gaps)),
        "sandwich_violation": float(max(0.0, -gaps_arr.min())),
    }
    _write_json(payload, args.out)
    if payload["sandwich_violation"] > 1e-8:
        _info(f"sandwich violation {payload['sandwich_violation']:.3e} exceeds 1e-8")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
