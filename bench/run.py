"""rayvex benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy.  With ``--trace 0`` the
workload runs untraced for ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` a fixed number of whole rounds runs first
untraced and then traced, and the per-layer metrics are reported.  A table
for people comes first on stdout; the last line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  A full record
(machine facts, input digest, sample counts, failures, traced counts and
spans) is written under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_EVERY_S = 0.25
# Median wall time of one speed probe over ~1300 probes on the sizing machine;
# reported operation times are scaled to a machine on which it takes this long.
REFERENCE_PROBE_S = 0.0041
WORKLOAD_NAMES = ("certify", "evaluate", "grid", "compare")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import rayvex from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "rayvex" / "__init__.py").is_file():
        sys.exit(f"bench: no rayvex sources under {src}; run from a rayvex checkout")
    for var in BLAS_THREAD_VARS:  # one BLAS thread, before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import rayvex

    if Path(rayvex.__file__).resolve().parent != (src / "rayvex").resolve():
        sys.exit(f"bench: imported rayvex from {rayvex.__file__}, not from {src}")
    import workloads

    return workloads


def pin_to_one_cpu() -> int | None:
    """Keep this process and its set-up children on one CPU, so the speed probe
    times the same CPU the measured code runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # the config API differs between numpy releases
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class SpeedProbe:
    """A fixed loop of interpreter and small-numpy work, timed next to the operations.

    The shared machine this benchmark was sized on runs the same code up to
    2x slower for stretches of seconds to minutes, so raw wall times of two
    runs a minute apart differ by more than any bound worth setting.  The
    probe slows down with it: between 5-second windows its median wall time
    moved by ~18% while operation time over probe time moved by 2-5%.  So
    each operation's wall time is scaled by REFERENCE_PROBE_S over the
    probe time measured around it.  Raw wall times are reported too.
    """

    def __init__(self):
        import numpy as np

        self._matrix = np.arange(12.0).reshape(4, 3)
        self._vector = np.ones(3)
        self._max = np.max
        self.samples: list[float] = []

    def _loop(self) -> float:
        acc = 0.0
        for i in range(600):
            for x in (self._matrix @ self._vector).tolist():
                acc += x * 0.5 if x > 1.0 else -x
            acc += float(self._max(self._vector * i))
        return acc

    def measure(self) -> float:
        """Best of three probe loops (an interrupt only ever adds time)."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        return best

    def scale(self, before: float, after: float) -> float:
        return REFERENCE_PROBE_S / (0.5 * (before + after))


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh interpreters that import rayvex, do the set-up and exit.

    Not scaled by the speed probe: interpreter start-up is import and page
    cache work, which the probe did not track (scaled, the spread between
    runs grew from ~10% to ~25%).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    wall = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall.append(time.perf_counter() - start)
        if probe.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{probe.stderr}")
    return wall


class Run:
    """Operations attempted, their durations and work, and failures."""

    def __init__(self, workload):
        self.workload = workload
        # compact per-operation records, so peak RSS hardly depends on how many ran
        self.durations = array("d")
        self.scaled = array("d")  # durations at the reference machine speed
        self.kinds: list[str] = []  # interned
        self.work = 0
        self.failures: list[dict] = []
        self.digest = hashlib.sha256()
        self.attempted = 0

    def execute(self, op, tracer=None):
        """Run one operation (traced when a tracer is given); return its output or None."""
        self.attempted += 1
        self.digest.update(json.dumps(op.inputs, sort_keys=True).encode())
        if tracer is not None:
            tracer.begin_op(op.index)
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # an uncaught error is a failed operation, not a crash
            self.fail(op, f"raised {exc!r}", traceback.format_exc())
            return None
        finally:
            elapsed = time.perf_counter() - start
            counts = tracer.end_op() if tracer is not None else None
        self.durations.append(elapsed)
        self.kinds.append(sys.intern(op.kind))
        return output, counts

    def check(self, op, output) -> bool:
        try:
            problem = op.check(output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
            problem = f"check raised {exc!r}"
        if problem:
            self.fail(op, problem)
            return False
        self.work += op.work(output)
        return True

    def fail(self, op, reason: str, trace: str | None = None) -> None:
        failure = {"op": op.index, "kind": op.kind, "inputs": op.inputs, "reason": reason}
        if trace:
            failure["traceback"] = trace
        self.failures.append(failure)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_untraced(workload, rng, seconds, speed: SpeedProbe) -> Run:
    """Whole rounds until ``seconds`` of loop time have passed, probing speed as it goes."""
    run = Run(workload)
    pending: list[float] = []  # raw durations since the last probe
    before = speed.measure()
    last_probe = start = time.perf_counter()
    index = 0
    while True:
        ops = workload.round(rng, index)
        index += len(ops)
        for op in ops:
            result = run.execute(op)
            if result is not None:
                pending.append(run.durations[-1])
                run.check(op, result[0])
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                after = speed.measure()
                run.scaled.extend(d * speed.scale(before, after) for d in pending)
                pending, before, last_probe = [], after, time.perf_counter()
        if time.perf_counter() - start >= seconds:
            after = speed.measure()
            run.scaled.extend(d * speed.scale(before, after) for d in pending)
            return run


def kind_p50(kinds: list[str], durations: list[float]) -> tuple[float, int]:
    """Median time of each operation kind, averaged over the kinds.

    A round holds every kind once, so each kind weighs the same; the median
    of the pooled sample would instead jump between kinds of similar cost.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(kinds, durations):
        by_kind.setdefault(kind, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in by_kind.values()), len(by_kind)


def end_to_end(run: Run, setup: list[float], speed: SpeedProbe) -> tuple[dict, list]:
    durations = run.scaled
    n = len(durations)
    busy = sum(durations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    p50, kinds = kind_p50(run.kinds, durations)
    metrics = {
        "op_ms_p50": (p50 * 1e3, "ms", f"n={n} {run.workload.op_unit}s, mean of {kinds} per-kind medians"),
        "work_per_s": (run.work / busy, "1/s", f"{run.work} {run.workload.work_unit} in {busy:.3f} s of calls"),
        "peak_rss_mb": (rss_mb, "MB", "getrusage of this process"),
        "setup_s": (statistics.median(setup), "s", f"n={len(setup)} fresh interpreters, unscaled"),
    }
    raw_busy = sum(run.durations)
    extra = [
        ("failed_ratio", len(run.failures) / run.attempted, "1", f"{len(run.failures)}/{run.attempted} operations"),
        ("ops_per_s", n / busy, "1/s", f"n={n}"),
        ("wall.op_ms_p50", kind_p50(run.kinds, run.durations)[0] * 1e3, "ms", f"n={n}, unscaled"),
        ("wall.work_per_s", run.work / raw_busy, "1/s", "unscaled"),
        ("speed_probe_ms_p50", statistics.median(speed.samples) * 1e3, "ms",
         f"n={len(speed.samples)}, reference {REFERENCE_PROBE_S * 1e3:g} ms"),
    ]
    # a tail percentile only where at least ten samples lie beyond it
    for q in (0.9, 0.99):
        if n * (1 - q) >= 10:
            extra.append((f"op_ms_p{round(q * 100)}", percentile(durations, q) * 1e3, "ms", f"n={n}"))
    values = {name: (v, note) for name, (v, _, note) in metrics.items()}
    values.update({name: (v, note) for name, v, _, note in extra})
    for alias, source, factor, unit in run.workload.aliases:
        if source in values:  # the tail only where ten samples lie beyond it
            extra.append((alias, values[source][0] * factor, unit, f"= {source}; {values[source][1]}"))
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(run.kinds, durations):
        by_kind.setdefault(":".join(kind.split(":")[:2]), []).append(dt)  # command or call, and entry
    for kind, samples in sorted(by_kind.items()):
        extra.append((f"op_ms_p50[{kind}]", statistics.median(samples) * 1e3, "ms", f"n={len(samples)}"))
    return metrics, extra


def traced_result(workload, rng, stem: str) -> tuple[dict, dict, Run, Run]:
    """The same whole rounds untraced, then traced: per-layer metrics and completeness.

    An operation whose traced counts disagree with its output is a failed one.
    """
    import tracer as tracing

    ops = []
    for _ in range(workload.trace_rounds):
        ops += workload.round(rng, len(ops))

    plain = Run(workload)
    for op in ops:
        result = plain.execute(op)
        if result is not None:
            plain.check(op, result[0])

    tracer = tracing.Tracer()
    traced = Run(workload)
    outputs = []
    tracer.install()
    try:
        for field in workload.fields():
            tracer.instrument_field(field)
        for op in ops:
            outputs.append(traced.execute(op, tracer))
    finally:
        tracer.uninstall()

    incomplete = []
    for op, result in zip(ops, outputs):
        if result is None:
            continue
        output, counts = result
        if traced.check(op, output):
            problem = workload.completeness(op, output, counts)
            if problem:
                incomplete.append({"op": op.index, "kind": op.kind, "reason": problem})
                traced.fail(op, f"incomplete trace: {problem}")
            for key, amount in workload.usable(output).items():
                tracer.add(key, amount)
    # both passes time the operations alone, not the checks between them
    untraced_s, traced_s = sum(plain.durations), sum(traced.durations)
    layers = tracing.per_layer_metrics(tracer, len(ops), traced_s - untraced_s)

    print(f"inputs: {plain.attempted} operations, sha256 {plain.digest.hexdigest()}")
    print_table(
        f"per-layer metrics ({traced.attempted} traced operations, traced {traced_s:.3f} s, untraced {untraced_s:.3f} s)",
        [(name, value, unit, note) for name, (value, unit, note) in layers.items()],
    )
    counts = tracer.counts_table()
    counts_digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    print(f"traced call counts: sha256 {counts_digest} (equal across traced runs with one seed)")
    print(f"completeness: {'every traced count matches the outputs' if not incomplete else incomplete}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
    record = {
        "inputs_sha256": plain.digest.hexdigest(), "operations": plain.attempted,
        "untraced_s": untraced_s, "traced_s": traced_s, "per_layer": layers,
        "counts_sha256": counts_digest, "counts": counts, "incomplete": incomplete,
    }
    return record, layers, plain, traced


def untraced_result(workload, rng, seconds: float, setup: list[float]) -> tuple[dict, dict, Run]:
    speed = SpeedProbe()
    run = run_untraced(workload, rng, seconds, speed)
    metrics, extra = end_to_end(run, setup, speed)
    print(f"inputs: {run.attempted} operations, sha256 {run.digest.hexdigest()}")
    print_table(
        "end-to-end metrics (operation times scaled to the reference speed)",
        [(k, v, u, note) for k, (v, u, note) in metrics.items()] + extra,
    )
    record = {
        "inputs_sha256": run.digest.hexdigest(), "operations": run.attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": note} for k, (v, u, note) in metrics.items()},
        "extra": [{"name": k, "value": v, "unit": u, "samples": note} for k, v, u, note in extra],
        "setup_probes_s": setup, "speed_probes_s": list(speed.samples),
    }
    return record, metrics, run


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path


def print_table(title: str, rows) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>16.6g} {unit:<11} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    import numpy as np

    workload = wl.WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    if args.setup_only:
        workload.setup(rng)
        workload.round(rng, 0)
        return 0

    facts = machine_facts()
    facts["pinned_cpu"] = pin_to_one_cpu()
    setup = None if args.trace else measure_setup(args)
    start = time.perf_counter()
    setup_failures = workload.setup(rng)
    inprocess_setup_s = time.perf_counter() - start
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"rayvex bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {json.dumps(facts)}")
    print(f"in-process set-up: {inprocess_setup_s:.3f} s wall")

    if args.trace:
        record, metrics, *runs = traced_result(workload, rng, stem)
    else:
        record, metrics, *runs = untraced_result(workload, rng, args.seconds, setup)
    failures = setup_failures + [f for run in runs for f in run.failures]
    attempted = len(setup_failures) + sum(run.attempted for run in runs)
    print(f"failed operations: {len(failures)} of {attempted}")
    for f in failures:
        print(f"  FAILED op {f['op']} {f['kind']}: {f['reason']}\n    input: {json.dumps(f['inputs'])}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "inprocess_setup_s": inprocess_setup_s, **record, "failures": failures,
    }
    print(f"record: {write_record(stem + '.json', record).relative_to(ROOT)}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
