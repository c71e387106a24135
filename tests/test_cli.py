"""Command-line behaviors: exit codes, file outputs, determinism, round-trips."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from strategies import CAPPED_SIZES, cli_argv

import rayvex as rx
from rayvex import cli
from rayvex import envelope as env
from rayvex.cli import main

FAST = ["--budget", "400"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    """stdout read as JSON, once the command has exited 0."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_catalog_lists_five(capsys):
    data = run_json(capsys, "catalog")
    assert [e["name"] for e in data["entries"]] == [
        "bilinear", "fractional", "reliability", "cubic", "cobb-douglas",
    ]


def test_certify_bilinear_exit_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, err = run(
        capsys, "certify", "--function", "bilinear",
        "--lx", "0", "--ly", "0", "--ux", "1", "--uy", "1",
        "--out", str(report), *FAST,
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["status"] == "certified"
    assert data["certification"]["all_passed"] is True
    assert "passed" in err


def test_certify_oversized_reliability_exit_two(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "certify", "--function", "reliability", "--ux", "1.5", "--uy", "1",
        "--out", str(report), *FAST,
    )
    assert code == 2
    data = json.loads(report.read_text())  # report still written on failure
    assert data["certification"]["all_passed"] is False
    failing = data["certification"]["checks"]["facet_convex"]
    assert failing["status"] == "fail"
    assert failing["witness"] is not None


def test_missing_polytope_file_exit_one(capsys):
    code, _, err = run(capsys, "certify", "--function", "bilinear", "--polytope", "/nonexistent.json", *FAST)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "polytope JSON must be an object, got list"),
        ('{"dim": 2, "halfspaces": [1, 2]}', "polytope JSON 'halfspaces' must be a list of objects"),
        ('{"dim": 2, "halfspaces": {"a": [1, 0], "b": 1}}', "polytope JSON 'halfspaces' must be a list of objects"),
        ('{"halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON has no 'dim' key"),
        ('{"dim": 2}', "polytope JSON has no 'halfspaces' key"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1}, {"a": [0, 1]}]}', "halfspace 1 has no 'b' key"),
        ('{"dim": 2, "halfspaces": [{"b": 1}]}', "halfspace 0 has no 'a' key"),
        ('{"dim": null, "halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON 'dim' must be an integer, got None"),
        ('{"dim": "two", "halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON 'dim' must be an integer, got 'two'"),
        ('{"dim": 2, "halfspaces": [{"a": {"x": 1}, "b": 1}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": {"y": 1}}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [', "Expecting value: line 1 column 27 (char 26)"),
        ('{"dim": Infinity, "halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON 'dim' must be an integer, got inf"),
        ('{"dim": 1e400, "halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON 'dim' must be an integer, got inf"),
        ('{"dim": 2.7, "halfspaces": [{"a": [1, 0], "b": 1}]}', "polytope JSON 'dim' must be an integer, got 2.7"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1}, {"a": [1], "b": 1}]}', "halfspace 1 has 1 'a' entries, 'dim' is 2"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": [1, 2]}]}', "1 halfspace rows need 1 offsets, got shape (1, 2)"),
        ('{"dim": 2, "halfspaces": [{"a": [1, "x"], "b": 1}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [1, [0]], "b": 1}]}', "halfspace entries must be numbers"),
        (b'{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1, "label": "\xff"}]}',
         "'utf-8' codec can't decode byte 0xff in position 58: invalid start byte"),
        ('{"dim": 2, "halfspaces": [{"a": ["1", " 0 "], "b": "1"}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": "1"}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [true, false], "b": 0}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": false}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": "12", "b": 1}]}', "halfspace entries must be numbers"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1, "label": 5}]}', "halfspace 0 'label' must be a string, got 5"),
        ('{"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1}, {"a": [0, 1], "b": 1, "label": ["y"]}]}',
         "halfspace 1 'label' must be a string, got ['y']"),
    ],
)
def test_malformed_polytope_file_is_a_one_line_error(text, message, tmp_path, capsys):
    # a list, a null dim or an object entry gave a TypeError traceback, a non-object halfspace an
    # AttributeError one, a missing key "error: 'dim'"; an infinite dim an OverflowError traceback,
    # ragged rows numpy's wording, and a dim of 2.7 loaded as 2; numeric strings and bools loaded
    # as numbers, any value as a label, and a bare "a": "12" read as no halfspace at all
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "certify", "--function", "bilinear", "--polytope", str(path), *FAST)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_non_positive_budget_exit_one(budget, capsys):
    # a budget below 1 drew no homogeneity sample and still printed "certification passed"
    code, out, err = run(capsys, "certify", "--function", "cubic", "--budget", budget)
    assert (code, out) == (1, "")
    assert err == f"error: certification budget must be at least 1, got {budget}\n"


HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--function", "cubic", "--budget", HUGE], f"certification budget must be at most 1000000, got {HUGE}"),
        (["certify", "--function", "cubic", "--budget", "1000001"], "certification budget must be at most 1000000, got 1000001"),
        (["eval", "--function", "bilinear", "--point", "0.5,0.5", "--budget", HUGE], f"certification budget must be at most 1000000, got {HUGE}"),
        (["regions", "--function", "bilinear", "--budget", HUGE], f"certification budget must be at most 1000000, got {HUGE}"),
        (["grid", "--function", "bilinear", "--resolution", HUGE], f"{HUGE} lattice points per axis give more than 1000000 points in 2-D"),
        (["grid", "--function", "bilinear", "--resolution", "1001"], "1001 lattice points per axis give more than 1000000 points in 2-D"),
        (["grid", "--function", "cobb-douglas", "--resolution", "101"], "101 lattice points per axis give more than 1000000 points in 3-D"),
        (["compare", "--function", "cubic", "--resolution", HUGE], f"{HUGE} lattice points per axis give more than 1000000 points in 2-D"),
        (["compare", "--function", "cubic", "--density", HUGE], f"grid density {HUGE} gives more than 100000 oracle lattice points in 2-D"),
        (["compare", "--function", "cubic", "--density", "316"], "grid density 316 gives more than 100000 oracle lattice points in 2-D"),
        (["compare", "--function", "cobb-douglas", "--density", "46"], "grid density 46 gives more than 100000 oracle lattice points in 3-D"),
        (["certify", "--function", "cubic", "--budget", "0"], "certification budget must be at least 1, got 0"),
        (["grid", "--function", "bilinear", "--resolution", "1"], "grid needs --resolution >= 2"),
        (["compare", "--function", "cubic", "--resolution", "0"], "compare needs --resolution >= 2"),
    ],
)
def test_a_size_past_its_cap_is_a_one_line_error_before_anything_is_built(argv, message, monkeypatch, capsys):
    # --budget 1e20 ended in numpy's "Maximum allowed dimension exceeded" traceback
    def never(*args, **kwargs):
        raise AssertionError("built past a size cap")

    for owner, name in ((env, "build"), (cli, "lattice"), (cli, "oracle_build"), (rx.Polytope, "load")):
        monkeypatch.setattr(owner, name, never)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_a_negative_density_is_a_one_line_error(capsys):
    # it ran a vertices-only oracle and echoed "density": -100000000000
    argv = ["compare", "--function", "bilinear", "--density", "-100000000000", "--resolution", "3", *FAST]
    assert run(capsys, *argv) == (1, "", "error: grid density must be at least 0, got -100000000000\n")


def test_a_negative_density_is_rejected_before_the_model_is_certified(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("certified past the density check")

    monkeypatch.setattr(env, "certify", never)
    argv = ["compare", "--function", "bilinear", "--density", "-5", "--resolution", "3", *FAST]
    assert run(capsys, *argv) == (1, "", "error: grid density must be at least 0, got -5\n")


@pytest.mark.parametrize("dim, resolution, density", [(2, 1000, 315), (3, 100, 45)])
def test_a_size_at_its_cap_passes(dim, resolution, density):
    args = cli._build_parser().parse_args(["compare", "--function", "bilinear", "--budget", str(cli.MAX_BUDGET)])
    args.resolution, args.density = resolution, density
    cli._check_sizes(args, dim)


def test_unknown_flag_usage_error(capsys):
    assert main(["certify", "--function", "bilinear", "--frobnicate"]) == 1


def test_eval_points(capsys):
    rows = run_json(
        capsys, "eval", "--function", "bilinear", "--point", "0.5,0.25", "--point", "1,1", *FAST,
    )["rows"]
    assert rows[0]["g"] == pytest.approx(-0.25)
    assert rows[1]["g"] == pytest.approx(-1.0)
    assert rows[1]["tight"] is True


def test_eval_outside_point_is_omitted(capsys):
    data = run_json(
        capsys, "eval", "--function", "bilinear", "--point", "2,2", "--point", "0.5,0.5", *FAST,
    )
    assert data["omitted"] == 1
    assert len(data["rows"]) == 1


def test_grid_resolution_three(capsys):
    data = run_json(capsys, "grid", "--function", "bilinear", "--resolution", "3", *FAST)
    assert len(data["rows"]) == 9
    assert data["omitted"] == 0
    for row in data["rows"]:
        if (row["x1"], row["x2"]) in {(0, 0), (0, 1), (1, 0), (1, 1)}:
            assert row["tight"] is True
            assert row["g"] == pytest.approx(row["f"])


def test_grid_resolution_one_usage_error(capsys):
    code, _, err = run(capsys, "grid", "--function", "bilinear", "--resolution", "1", *FAST)
    assert code == 1
    assert "resolution" in err


def test_grid_omits_points_outside_polytope(tmp_path, capsys):
    out_file = tmp_path / "grid.json"
    code, _, _ = run(
        capsys, "grid", "--function", "fractional", "--resolution", "5", "--out", str(out_file), *FAST,
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["omitted"] > 0
    assert len(data["rows"]) + data["omitted"] == 25


def fractional_grid_csv(tmp_path, capsys, resolution):
    """(x, g) for each row of ``grid --function fractional --format csv``, after its "# omitted=" line is checked."""
    out_file = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "grid", "--function", "fractional", "--resolution", str(resolution),
        "--format", "csv", "--out", str(out_file), *FAST,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[-1].startswith("# omitted=")
    cells = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:-1]]
    return [(np.array([float(c["x1"]), float(c["x2"])]), float(c["g"])) for c in cells]


def test_grid_csv_round_trip(tmp_path, capsys):
    entry = rx.fractional()
    model = env.build(
        entry.field, entry.default_polytope, sense="convex",
        anchor=entry.default_anchor, budget=400,
    )
    for x, g in fractional_grid_csv(tmp_path, capsys, 7):
        assert env.value(model, x) == pytest.approx(g, abs=1e-12)


def test_regions_unit_box(capsys):
    data = run_json(capsys, "regions", "--function", "bilinear", *FAST)
    assert len(data["regions"]) == 2
    for region in data["regions"]:
        assert region["in_facet"] is None
        assert region["a_minus"] is None
        assert len(region["a_plus"]) == 2


def test_regions_fractional_split_along_y_eq_2x(capsys):
    data = run_json(capsys, "regions", "--function", "fractional", *FAST)
    assert len(data["regions"]) == 2
    # the shared boundary in working coordinates is the ray y = 2x, i.e. the
    # segment from the anchor (1, 0) towards (2, 2) in original coordinates
    shared = {tuple(np.round(v, 8)) for v in data["regions"][0]["polygon"]}
    shared &= {tuple(np.round(v, 8)) for v in data["regions"][1]["polygon"]}
    assert (1.0, 0.0) in shared and (2.0, 2.0) in shared


def test_regions_3d_not_supported(capsys):
    code, _, err = run(capsys, "regions", "--function", "cobb-douglas", *FAST)
    assert code == 1
    assert "2-D" in err


def test_compare_bilinear_vertices_only(capsys):
    data = run_json(
        capsys, "compare", "--function", "bilinear", "--density", "0", "--resolution", "21", *FAST,
    )
    assert data["oracle_points"] == 4
    assert abs(data["max_oracle_minus_g"]) <= 1e-8
    assert abs(data["min_oracle_minus_g"]) <= 1e-8
    assert data["sandwich_violation"] <= 1e-8


def test_grid_fractional_matches_closed_form_at_high_resolution(tmp_path, capsys):
    entry = rx.fractional()
    rows = fractional_grid_csv(tmp_path, capsys, 101)
    assert max(abs(g - entry.expected_envelope(x)) for x, g in rows) <= 1e-9


def test_certify_three_dimensional_model(tmp_path, capsys):
    report = tmp_path / "cobb.json"
    code, _, _ = run(capsys, "certify", "--function", "cobb-douglas", "--out", str(report), *FAST)
    assert code == 0
    data = json.loads(report.read_text())
    assert data["certification"]["all_passed"] is True
    assert data["sense"] == "concave"


def test_compare_gap_shrinks_with_density(tmp_path, capsys):
    gaps = {}
    for density in (10, 20):
        out_file = tmp_path / f"cmp{density}.json"
        code, _, _ = run(
            capsys, "compare", "--function", "reliability",
            "--density", str(density), "--resolution", "9", "--out", str(out_file), *FAST,
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["sandwich_violation"] <= 1e-8
        gaps[density] = data["max_oracle_minus_g"]
    assert gaps[20] <= gaps[10] + 1e-9


def test_compare_without_a_finite_oracle_point_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "box.json"
    rx.Polytope.box([-2.0, -2.0], [-1.0, -1.0]).save(path)  # reliability is inf on all of it
    code, out, err = run(
        capsys, "compare", "--function", "reliability", "--polytope", str(path), "--anchor", "none",
        "--budget", "200", "--density", "4", "--resolution", "5",
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-2:] == ["oracle skipped 25 non-finite closure points", "error: no comparable query points"]


def test_compare_warns_for_uncertified(capsys):
    # shrinking the domain of the oversized box does not matter; the point is
    # the warning path plus a successful secant comparison
    code, out, err = run(
        capsys, "compare", "--function", "reliability", "--ux", "1.5", "--uy", "1",
        "--density", "4", "--resolution", "9", *FAST,
    )
    data = json.loads(out)
    assert data["status"] == "secant interpolant"
    assert "uncertified" in err


def test_commands_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "--function", "reliability", "--ux", "0.8", "--uy", "0.6", "--seed", "7", *FAST]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_polytope_file_flow(tmp_path, capsys):
    poly_file = tmp_path / "box.json"
    rx.Polytope.box([0.0, 0.0], [2.0, 2.0]).save(poly_file)
    rows = run_json(
        capsys, "eval", "--function", "bilinear",
        "--ux", "2", "--uy", "2", "--polytope", str(poly_file),
        "--point", "1,1", *FAST,
    )["rows"]
    # secant between f(0,0) = 0 and f(2,2) = -4 on the [0,2]^2 diagonal
    assert rows[0]["g"] == pytest.approx(-2.0)

    # a file that is not the catalog's default domain (the unit box) replaces it
    rx.Polytope.box([0.0, 0.0], [2.0, 1.0]).save(poly_file)
    data = run_json(
        capsys, "eval", "--function", "bilinear", "--polytope", str(poly_file),
        "--point", "1,0.5", "--point", "2,1", *FAST,
    )
    assert data["omitted"] == 0
    # on the ray from f(0,0) = 0 to f(2,1) = -2; the unit box would give f(1,0.5) = -0.5 and omit (2,1)
    assert [row["g"] for row in data["rows"]] == pytest.approx([-1.0, -2.0])


def test_explicit_flags_reach_build_as_given(capsys):
    # --param and the shorthands, --sense, a vector --anchor, --seed and --budget, one-to-one
    data = run_json(
        capsys, "certify", "--function", "bilinear", "--param", "lx=0", "--param", "ly=0",
        "--ux", "1", "--uy", "1", "--sense", "convex", "--anchor", "0,0", "--seed", "3", "--budget", "500",
    )
    entry = rx.bilinear_neg(0.0, 0.0, 1.0, 1.0)
    model = env.build(entry.field, entry.default_polytope, sense="convex", anchor=np.zeros(2), budget=500, seed=3)
    assert data["params"] == entry.params
    assert (data["status"], data["sense"], data["anchor"]) == ("certified", "convex", [0.0, 0.0])
    assert data["certification"] == json.loads(json.dumps(model.certification.to_dict()))


@pytest.mark.parametrize(
    "name, spelled",
    [
        ("bilinear", ["--sense", "convex", "--anchor", "0,0"]),
        ("fractional", ["--sense", "convex", "--anchor", "1,0"]),
        ("reliability", ["--sense", "concave", "--anchor", "origin"]),
        ("cubic", ["--sense", "convex", "--anchor", "none"]),
        ("cobb-douglas", ["--sense", "concave", "--anchor", "none"]),
    ],
)
def test_auto_sense_and_anchor_are_the_catalog_defaults(name, spelled, capsys):
    # "auto" reads the entry's build sense and default anchor; "origin" is build's "origin-shift"
    entry = rx.CATALOG_BUILDERS[name]()
    default = run(capsys, "certify", "--function", name, *FAST)
    assert json.loads(default[1])["sense"] == entry.build_sense
    assert run(capsys, "certify", "--function", name, *spelled, *FAST) == default


def test_anchor_takes_the_policy_names_the_catalog_prints(capsys):
    # "origin-shift" was read as a vector: "could not convert string to float"
    printed = {entry["name"]: entry["default_anchor"] for entry in run_json(capsys, "catalog")["entries"]}
    assert printed["reliability"] == "origin-shift"
    shifted = run(capsys, "certify", "--function", "reliability", "--anchor", "origin-shift", *FAST)
    assert shifted[0] == 0
    assert shifted == run(capsys, "certify", "--function", "reliability", "--anchor", "origin", *FAST)


def test_repeated_main_calls_print_identical_bytes(capsys):
    argv = ["eval", "--function", "fractional", "--point", "1.5,0.5", "--point", "3,3", "--format", "csv", *FAST]
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, *argv) == first
    assert run(capsys, "eval", "--function", "fractional", *FAST) == (1, "", "error: eval needs at least one --point\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--point", "a,b"], "--point: 'a' is not a number"),
        (["eval", "--point", "0.5,0.5", "--anchor", "1,x"], "--anchor: 'x' is not a number"),
        (["certify", "--param", "lx=abc"], "--param lx: 'abc' is not a number"),
        (["certify", "--param", "lx"], "--param expects KEY=VALUE, got 'lx'"),
        (["eval", "--point", "0.5,0.5,0.5"], "point [0.5, 0.5, 0.5] has wrong dimension"),
        (["certify", "--seed", "-1"], "seed must be non-negative, got -1"),
    ],
)
def test_a_bad_number_is_a_one_line_error_that_names_its_flag(argv, message, capsys):
    # each was numpy's or float()'s wording: "could not convert string to float: 'a'"
    command, *flags = argv
    assert run(capsys, command, "--function", "bilinear", *flags, *FAST) == (1, "", f"error: {message}\n")


def test_a_programming_error_is_not_reported_as_an_input_error(monkeypatch, capsys):
    # main prints one "error:" line for a RayvexError or an OSError only; anything else is a traceback
    def broken(args):
        raise ValueError("a bug, not an input")

    monkeypatch.setattr(cli, "cmd_catalog", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["catalog"])


def test_commands_are_looked_up_at_each_call(monkeypatch, capsys):
    # the parser is kept after the first call; a cmd_* wrapped later (as a tracer does) must still run
    assert run(capsys, "catalog")[0] == 0
    monkeypatch.setattr(cli, "cmd_catalog", lambda args: print("patched", args.format) or 0)
    assert run(capsys, "catalog", "--format", "csv") == (0, "patched csv\n", "")


# -- any argv: an exit code, and on exit 1 one error line and no output ---------


@settings(max_examples=80, deadline=None)
@given(cli_argv())
@example(["compare", "--function", "bilinear", "--budget", "60", "--resolution", "3", "--density", "316", "--density", "0"])
def test_any_argv_exits_0_1_or_2_and_exit_1_prints_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert len([line for line in err.getvalue().splitlines() if "error:" in line]) == 1, (argv, err.getvalue())
    last = dict(zip(argv[1::2], argv[2::2]))  # argparse keeps a repeated flag's last value
    if any(last.get(flag) in CAPPED_SIZES for flag in ("--budget", "--resolution", "--density")):
        assert code == 1, argv  # rejected before anything of that size is built
