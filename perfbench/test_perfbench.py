"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench

Each run is a fresh process, as the benchmark is meant to be run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "test"
WORKLOADS = ("dp_scaling", "crucial_sweep", "verify_random", "cli_solve")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        # Timings are the unscaled ones times the measured host factor.
        extra = json.loads((ROOT / json.loads(proc.stdout.splitlines()[-2])["record"])
                           .read_text())["extra"]
        factor, unscaled = extra["host_factor"], extra["unscaled"]
        assert factor > 0
        for name in ("latency_ms_p50", "latency_ms_tail", "setup_s"):
            assert result["metrics"][name]["value"] == pytest.approx(unscaled[name] * factor)
        assert result["metrics"]["throughput_per_s"]["value"] == pytest.approx(
            unscaled["throughput_per_s"] / factor)


def test_all_prints_six_end_to_end_metrics_per_workload():
    proc = bench("--workload", "all", "--seed", "0", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(proc)["metrics"]
    for workload in WORKLOADS:
        for name in (*declared("end_to_end"), "failed_frac"):
            assert f"{workload}.{name}" in metrics
        assert metrics[f"{workload}.failed_frac"]["value"] == 0


def _corrupt_dp(golden):
    golden["smoke"]["dp_scaling"]["n3m90"][0] += "1"


def _corrupt_sweep(workload):
    def corrupt(golden):
        values = golden["smoke"][workload].split()
        values[0] = str(int(values[0]) + 1)
        golden["smoke"][workload] = " ".join(values)

    return corrupt


def _corrupt_cli(golden):
    golden["smoke"]["cli_solve"]["example1"] = golden["smoke"]["cli_solve"]["example1"].replace(
        '"utility": "', '"utility": "1'
    )


def copy_benchmark(tree: Path, with_source: bool) -> None:
    """A checkout in ``tree`` holding a copy of perfbench, and src/ if asked."""
    shutil.rmtree(tree, ignore_errors=True)
    # The copy holds no test file, so that pytest does not collect it too.
    ignore = shutil.ignore_patterns("out", "__pycache__", "test_*.py")
    shutil.copytree(HERE, tree / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    if with_source:
        (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("dp_scaling", _corrupt_dp),
        ("crucial_sweep", _corrupt_sweep("crucial_sweep")),
        ("verify_random", _corrupt_sweep("verify_random")),
        ("cli_solve", _corrupt_cli),
    ],
)
def test_corrupted_golden_value_counts_as_failure(workload, corrupt):
    tree = SCRATCH / f"corrupt-{workload}"
    copy_benchmark(tree, with_source=True)
    golden_path = tree / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    corrupt(golden)
    golden_path.write_text(json.dumps(golden))
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
                 "--smoke", cwd=tree)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    record = json.loads((tree / json.loads(proc.stdout.splitlines()[-2])["record"]).read_text())
    assert record["extra"]["failed_frac"] > 0


def test_without_package_source_exits_without_result():
    bare = SCRATCH / "bare"
    copy_benchmark(bare, with_source=False)
    proc = bench("--workload", "dp_scaling", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
