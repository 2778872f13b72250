"""Benchmark of the seqmanip package: four closed-loop workloads.

From the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload all --seconds 25 --trace 1
    python3 perfbench/run.py --workload dp_scaling --seed 3 --seconds 25 --trace 0

A run prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the environment record.  End-to-end timings are scaled
to a reference host speed measured during the run (see hostspeed.py).  The
full record, with the tail percentile, sample count, failed fraction,
unscaled timings, host factor and counts, is written to ``perfbench/out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
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
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("dp_scaling", "crucial_sweep", "verify_random", "cli_solve")
SETUP_REPEATS = {False: 7, True: 2}
TRACE_BLOCKS = 10
# A tail is the highest of these percentiles with at least 20 samples
# beyond it.  Ten would do; twice that keeps the percentile from flipping
# between runs whose sample counts differ a little.  With fewer than 40
# samples it is the median.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_KEYS = (
    "dp.states",
    "policy.enumerate_dominated.count",
    "model.with_policy.calls",
    "engine.execute.calls",
)


def load_package():
    """Import ``seqmanip`` from this checkout's ``src/``, or exit with 1."""
    package = ROOT / "src" / "seqmanip"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import seqmanip

    if Path(seqmanip.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported seqmanip from {seqmanip.__file__}, not {package}")
    return seqmanip


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 20:
            return p
    return 50.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqmanip").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def load_golden(seed: int, smoke: bool) -> dict | None:
    """Golden outputs for this input set, or None when the seed has none."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if seed != golden["seed"]:
        return None
    return golden["smoke" if smoke else "full"]


def set_up(workloads, args) -> tuple[object, list[float]]:
    """Set the workload up ``SETUP_REPEATS`` times; keep the last one.

    One set-up is: a fresh interpreter importing the package, parsing the
    golden data, making the inputs from the seed and a warm-up.
    """
    times = []
    workload = None
    for _ in range(SETUP_REPEATS[args.smoke]):
        start = hostspeed.clock()
        _, proc = workloads.run_python(["-c", "import seqmanip"], workloads.package_env())
        if proc.returncode != 0:
            sys.exit(f"perfbench: importing seqmanip failed:\n{proc.stderr.decode()}")
        golden = load_golden(args.seed, args.smoke)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, golden)
        workload.setup()
        times.append(hostspeed.clock() - start)
    return workload, times


def attempt(unit) -> tuple[float | None, list[str]]:
    """Run one unit; an exception is a failure with no latency."""
    try:
        return unit()
    except Exception as exc:  # a failing unit must not stop the run
        return None, [f"{type(exc).__name__}: {exc}"]


def untraced(workload, seconds: float) -> dict:
    """The timed loop.  Timings are scaled to the reference host speed in
    ``run_one`` (see hostspeed.py)."""
    latencies, failures = [], []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    start = hostspeed.clock()
    while True:
        i = attempted % len(workload)
        latency, problems = attempt(lambda: workload.run(i))
        attempted += 1
        if latency is not None:
            latencies.append(latency)
        if problems:
            failed += 1
            failures.extend(problems)
        if time.perf_counter() >= deadline:
            break
    busy = hostspeed.clock() - start
    rss_kb = resource.getrusage(workload.rss_of).ru_maxrss
    tail = tail_percentile(len(latencies))
    metrics = {
        "throughput_per_s": attempted / busy,
        "latency_ms_p50": statistics.median(latencies) * 1000.0 if latencies else 0.0,
        "latency_ms_tail": percentile(latencies, tail) * 1000.0 if latencies else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "failed_frac": failed / attempted,
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "busy_s": busy,
        **workload.summary(),
    }
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "extra": extra}


def run_units(units, indices, tracer=None) -> tuple[float, int, list[str]]:
    failures = []
    failed = 0
    start = time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.instance = i
        _, problems = attempt(lambda: (None, units[i]()))
        if problems:
            failed += 1
            failures.extend(problems)
    return time.perf_counter() - start, failed, failures


def sweep_counts(workload) -> tuple[int, int]:
    summary = workload.summary()
    return summary.get("checked", 0), summary.get("crucial_count", 0)


def traced(workload, args) -> dict:
    """Fixed work, done once untraced and once traced, so counts repeat exactly.

    The work is split into blocks; each block runs both ways, in alternating
    order, so that drift during the run does not show as tracing overhead.
    """
    from tracing import Tracer, per_layer_units

    units = workload.traced_units()
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    counted = {False: [0, 0], True: [0, 0]}
    failed, failures = 0, []
    size = -(-len(units) // TRACE_BLOCKS)
    for block, first in enumerate(range(0, len(units), size)):
        indices = range(first, min(first + size, len(units)))
        for tracing in (False, True) if block % 2 == 0 else (True, False):
            before = sweep_counts(workload)
            if tracing:
                workload.untraced = tracer.paused
                tracer.install()
            try:
                seconds, block_failed, problems = run_units(
                    units, indices, tracer if tracing else None
                )
            finally:
                if tracing:
                    tracer.uninstall()
                    workload.untraced = contextlib.nullcontext
            wall[tracing] += seconds
            failed += block_failed
            failures.extend(problems)
            for k, (old, new) in enumerate(zip(before, sweep_counts(workload))):
                counted[tracing][k] += new - old
    labels = [workload.unit_label(i) for i in range(len(units))]
    metrics = tracer.metrics(len(units), wall[True], labels)
    metrics["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
    probes = workload.probes()
    metrics["cli.interpreter_ms"] = probes.get("cli.interpreter_ms", 0.0)
    metrics["cli.import_ms"] = probes.get("cli.import_ms", 0.0)
    missing = set(per_layer_units()) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metric set out of step: {sorted(missing)}")
    counts = {key: metrics[key] for key in COUNT_KEYS}
    counts["sweeps.checked"], counts["sweeps.crucial_count"] = counted[True]
    steady = counted[False] == counted[True]
    if not steady:
        print(f"perfbench: UNSTEADY sweep counts: untraced {counted[False]}, "
              f"traced {counted[True]}", file=sys.stderr)
    steady = check_counts(args, counts) and steady
    spans = OUT / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.csv.gz"
    tracer.write(spans)
    return {
        "attempted": 2 * len(units),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "extra": {
            "untraced_wall_s": wall[False],
            "traced_wall_s": wall[True],
            "spans": len(tracer.span_start),
            "spans_file": str(spans.relative_to(ROOT)),
            "counts": counts,
            "steady": steady,
        },
    }


def check_counts(args, counts: dict) -> bool:
    """Compare counts with an earlier traced run of the same source and seed."""
    path = OUT / "counts.json"
    key = f"{args.workload}|seed={args.seed}|smoke={args.smoke}|{source_digest()}"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != counts:
        print(f"perfbench: UNSTEADY counts: {counts} != earlier {known[key]}", file=sys.stderr)
        return False
    known.setdefault(key, counts)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def run_one(args) -> int:
    load_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import per_layer_units

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        workload, _ = set_up(workloads, args)
        outcome = traced(workload, args)
        units = per_layer_units()
    else:
        hostspeed.start()
        try:
            workload, setup_times = set_up(workloads, args)
            outcome = untraced(workload, args.seconds)
        finally:
            hostspeed.stop()
        outcome["metrics"]["setup_s"] = statistics.median(setup_times)
        outcome["extra"]["setup_s_each"] = setup_times
        outcome["extra"]["unscaled"] = dict(outcome["metrics"])
        outcome["extra"]["host_factor"] = factor = hostspeed.factor()
        for name in ("latency_ms_p50", "latency_ms_tail", "setup_s"):
            outcome["metrics"][name] *= factor
        outcome["metrics"]["throughput_per_s"] /= factor
        units = END_TO_END_UNITS
    for problem in outcome["failures"][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = environment(args.seed)
    record = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "env": env, **result,
        "extra": outcome["extra"], "failures": outcome["failures"][:100],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": env, "record": f"perfbench/out/{name}"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; prints a table of metrics."""
    rows, correct, attempted, failed, combined = [], True, 0, 0, {}
    for trace in (0, 1) if args.trace else (0,):
        for name in WORKLOAD_NAMES:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                sys.exit(f"perfbench: {name} did not finish (exit {proc.returncode})")
            result = json.loads(lines[-1])
            record = json.loads((ROOT / json.loads(lines[-2])["record"]).read_text())
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = dict(result["metrics"])
            if not trace:
                extra = record["extra"]
                metrics["failed_frac"] = {"value": extra["failed_frac"], "unit": "frac"}
                metrics["tail_percentile"] = {"value": extra["tail_percentile"], "unit": "pct"}
                metrics["latency_samples"] = {"value": extra["latency_samples"], "unit": "count"}
            for metric, value in metrics.items():
                combined[f"{name}.{metric}"] = value
                if trace and value["value"] == 0:
                    continue
                rows.append((name, metric, value["value"], value["unit"]))
    print(json.dumps({"env": environment(args.seed)}))
    for name, metric, value, unit in rows:
        print(f"{name:14} {metric:38} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
