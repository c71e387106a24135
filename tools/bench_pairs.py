"""Alternating benchmark pairs: a parent commit against the working tree, seed by seed.

    python tools/bench_pairs.py --parent HEAD~1 --workload compare=21-30 --workload grid=21-23 --out pairs.json

For each workload and each of its seeds, ``bench/run.py --trace 0`` runs once
in a checkout of the parent commit and once in the working tree, back to
back: on an odd seed the parent runs first, on an even seed the working
tree.  The parent checkout is the commit's files exported by ``git archive``
into a temporary directory, removed at the end, so it holds only what the
commit holds, and the working tree's own git state is not touched.

With ``--parent HEAD`` on a clean working tree both sides hold the same
files, so the run is an A/A run: the spread of its medians and the pairs
either side wins are the floor under any A/B claim.  Run it on the same
workload and seeds in the same sitting as the A/B pairs it stands beside.

The output is one JSON object: the command and pairing rules, the machine
facts of the first run, and a ``workloads`` block as in the ``BENCH_*.json``
files.  Per workload it gives the seeds, the attempted and failed
operations of each side, whether every run was correct, and for each
end-to-end metric in ``BENCHMARK.json`` both sides' runs, medians and
quartiles (``statistics.quantiles(n=4)``), the change over the parent and
the pairs the change won.  Progress goes to stderr.  Standard library only;
this is a measuring tool, not a test.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'21-30' or '21,23,25' (or a mix) as a list of seeds, in order."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=SEEDS",
                        help="a workload and its seeds, e.g. compare=21-30; repeat for more workloads")
    parser.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args = parser.parse_args(argv)
    args.workload = [(name, parse_seeds(seeds)) for name, _, seeds in (w.partition("=") for w in args.workload)]
    return args


def export(commit: str, into: Path) -> None:
    """The files of commit, as ``git archive`` gives them, under into."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # the filter came in Python 3.11.4
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """bench/run.py's result line in tree, and the machine facts it printed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600 + 10 * seconds)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    machine = next((json.loads(line[len("machine: "):]) for line in lines if line.startswith("machine: ")), None)
    return json.loads(lines[-1]), machine


def summary(runs: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return median, q1, q3


def _sig(value: float) -> float:
    """value to 6 significant digits: evaluate's op_ms_p50 is a few hundredths of a ms."""
    return float(f"{value:.6g}")


def workload_block(seeds: list[int], results: dict[str, list[dict]], metrics: list[dict]) -> dict:
    block = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed_operations": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_operations": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        entry = {"better": metric["better"], "bound": metric["bound"]}
        for side in SIDES:
            median, q1, q3 = summary(runs[side])
            entry.update({f"{side}_median": _sig(median), f"{side}_q1": _sig(q1), f"{side}_q3": _sig(q3)})
        entry["change_over_parent"] = _sig(statistics.median(runs["change"]) / statistics.median(runs["parent"]))
        entry["change_wins"] = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        entry.update({f"{side}_runs": [_sig(v) for v in runs[side]] for side in SIDES})
        block["metrics"][name] = entry
    return block


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("bench_pairs: terminated"))  # so the finally below runs
    checkouts = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": checkouts / "parent", "change": ROOT}
    machine, workloads = None, {}
    try:
        export(commit, trees["parent"])
        for workload, seeds in args.workload:
            results = {side: [] for side in SIDES}
            for seed in seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    result, facts = run_once(trees[side], workload, seed, seconds)
                    results[side].append(result)
                    machine = machine or facts
                    op = result["metrics"]["op_ms_p50"]["value"]
                    print(f"{workload} seed {seed} {side}: op_ms_p50 {op:.4f}", file=sys.stderr, flush=True)
            workloads[workload] = workload_block(seeds, results, benchmark["end_to_end"])
    finally:
        shutil.rmtree(checkouts, ignore_errors=True)
    out = {
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
        "parent": commit,
        "pairing": "each pair runs the parent commit and the working tree back to back from separate checkouts; "
                   "odd seeds run the parent first, even seeds the working tree first",
        "quartiles": "statistics.quantiles(n=4) over the runs of one side",
        "machine": machine,
        "workloads": workloads,
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
