"""A checked-in corpus of ``rayvex`` command outputs, and the comparison that guards it.

The corpus holds the outputs of 46 fixed commands, each run in process:
``certify``, ``grid --resolution 21 --format csv`` and ``compare --density 20
--resolution 9`` on the four planar catalog entries at seeds 0, 7 and 11,
``compare --density 10 --resolution 5`` on cobb-douglas (the 3-D oracle),
``regions`` once per planar entry, and ``eval`` once per catalog entry, at an
interior, a facet, a vertex, the anchor and an outside point (cobb-douglas
also at a vertex whose ray is degenerate).  ``tests/corpus/<name>.out`` is a
command's stdout byte for byte, and ``tests/corpus/index.json`` its argv, exit
code and stderr.  A change that moves an output regenerates the corpus, so the
move is a diff of these files.

A new output matches the corpus when the exit codes, stderr, JSON keys,
integers and strings are equal and every other number is within
TOLERANCE * max(1, |value|) of the corpus'.  Exact bits are not required: numpy
and libm may round the last ulp differently on another machine or Python.

    python tools/corpus.py           # write the corpus from this tree
    python tools/corpus.py --check   # exit 1 unless every output matches the corpus
    python tools/corpus.py --diff    # list every value whose bits moved, and exit 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
TOLERANCE = 1e-12
ENTRIES = ("bilinear", "fractional", "reliability", "cubic")
SEEDS = (0, 7, 11)
EVAL_POINTS = {  # entry -> interior, facet, vertex, anchor, outside (the anchors of cubic and cobb-douglas lie outside P)
    "bilinear": ("0.3,0.6", "1,0.25", "1,1", "0,0", "2,2"),
    "fractional": ("1.5,0.5", "2,1", "2,2", "1,0", "0.5,0.5"),
    "reliability": ("0.4,0.7", "1,0.5", "1,1", "0,0", "1.5,0.5"),
    "cubic": ("0.7,0.8", "0,1.5", "1,0", "0,0", "3,3"),  # the facet is x = 0, where f and g are inf
    "cobb-douglas": ("1.3,1.5,1.7", "1,1.5,1.5", "2,2,2", "0,0,0", "0.5,1,1", "1,2,1"),
}
COMMANDS = {
    **{
        f"{command}-{entry}-seed{seed}": [command, "--function", entry, "--seed", str(seed), *flags]
        for command, flags in (
            ("certify", []),
            ("grid", ["--resolution", "21", "--format", "csv"]),
            ("compare", ["--density", "20", "--resolution", "9"]),
        )
        for entry in ENTRIES
        for seed in SEEDS
    },
    "compare-cobb-douglas": ["compare", "--function", "cobb-douglas", "--density", "10", "--resolution", "5"],
    **{f"regions-{entry}": ["regions", "--function", entry] for entry in ENTRIES},
    **{
        f"eval-{entry}": ["eval", "--function", entry, *(arg for point in points for arg in ("--point", point))]
        for entry, points in EVAL_POINTS.items()
    },
}


def run(argv: list[str]) -> dict:
    """Run ``rayvex argv`` in process: its exit code, stdout and stderr."""
    from rayvex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> dict[str, dict]:
    """The corpus: per command name its argv, exit code, stdout and stderr."""
    index = json.loads((CORPUS / "index.json").read_text())
    return {name: {**record, "stdout": (CORPUS / f"{name}.out").read_text()} for name, record in index.items()}


def write() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, argv in COMMANDS.items():
        result = run(argv)
        (CORPUS / f"{name}.out").write_text(result["stdout"])
        index[name] = {"argv": argv, "exit": result["exit"], "stderr": result["stderr"]}
    (CORPUS / "index.json").write_text(json.dumps(index, indent=2) + "\n")


def parse(stdout: str):
    """A JSON payload as its object, CSV as rows of cells (an int, a float or the text)."""
    try:
        return json.loads(stdout)
    except ValueError:
        return [[_cell(cell) for cell in line.split(",")] for line in stdout.splitlines()]


def _cell(text: str):
    """An int where the text is one exactly ("-0" is the float -0.0), else a float, else the text."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if kind is float or str(value) == text:
            return value
    return text


def differences(old: dict, new: dict):
    """(path, old, new, within) for every value of two results that is not the same bits.

    ``within`` is True for a float that moved within TOLERANCE * max(1, |old|),
    False for any other difference, which fails the comparison.
    """
    for key in ("exit", "stderr"):
        if old[key] != new[key]:
            yield key, old[key], new[key], False
    yield from _walk("stdout", parse(old["stdout"]), parse(new["stdout"]))


def _walk(path: str, old, new):
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            yield path, list(old), list(new), False
            return
        for key in old:
            yield from _walk(f"{path}.{key}", old[key], new[key])
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield path, f"{len(old)} items", f"{len(new)} items", False
            return
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _walk(f"{path}[{i}]", a, b)
    elif _number(old) and _number(new) and not (isinstance(old, int) and isinstance(new, int)):
        if repr(old) != repr(new):  # the shortest round-trip text: equal exactly when the bits are
            yield path, old, new, abs(new - old) <= TOLERANCE * max(1.0, abs(old))
    elif old != new or type(old) is not type(new):
        yield path, old, new, False


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="exit 1 unless every output matches the corpus")
    mode.add_argument("--diff", action="store_true", help="list every value whose bits moved, without gating")
    args = parser.parse_args(argv)
    if not (args.check or args.diff):
        write()
        return 0
    failed = 0
    for name, record in load().items():
        for path, old, new, within in differences(record, run(record["argv"])):
            failed += not within
            print(f"{name} {path}: {old!r} -> {new!r}{'' if within else '  (outside the tolerance)'}")
    return 1 if args.check and failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
