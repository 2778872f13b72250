"""Write perfbench/golden.json: expected outputs for the default seed.

    python3 perfbench/make_golden.py

Golden data pins the outputs of the code it was made from.  Remake it only
when the benchmark's inputs change, never to make a failing check pass.
It takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()
import workloads  # noqa: E402
from seqmanip import dp, sweeps  # noqa: E402

SEED = 0


def section(smoke: bool) -> dict:
    out = {}
    dp_scaling = workloads.DPScaling(SEED, smoke, None)
    dp_scaling.setup()
    by_label: dict[str, dict[int, str]] = {}
    for label, index, inst in [*itertools.chain(*dp_scaling.cycles), *dp_scaling.traced]:
        if index not in by_label.setdefault(label, {}):
            by_label[label][index] = str(dp.best_response_with_table(inst)[0].utility)
    out["dp_scaling"] = {
        label: [values[i] for i in range(len(values))] for label, values in by_label.items()
    }
    flags = []
    for spec in workloads.CrucialSweep(SEED, smoke, None).specs():
        summary = sweeps.sweep([spec], check_crucial=True)
        if not summary.ok:
            raise SystemExit(f"crucial_sweep: {spec} fails its sweep: {summary}")
        flags.append(str(summary.crucial_count))
    out["crucial_sweep"] = " ".join(flags)
    utilities = []
    for spec in workloads.VerifyRandom(SEED, smoke, None).specs():
        if not sweeps.sweep([spec]).ok:
            raise SystemExit(f"verify_random: {spec} fails its sweep")
        inst = sweeps.build_instance(spec)
        utilities.append(str(dp.best_response_with_table(inst)[0].utility))
    out["verify_random"] = " ".join(utilities)
    cli_solve = workloads.CLISolve(SEED, smoke, None)
    cli_solve.setup()
    out["cli_solve"] = {}
    for key, path in cli_solve.files:
        _, proc = workloads.run_python(["-m", "seqmanip", "solve", str(path)], cli_solve.env)
        if proc.returncode != 0:
            raise SystemExit(f"solve {key} exited {proc.returncode}")
        out["cli_solve"][key] = proc.stdout.decode("utf-8")
    return out


def main() -> None:
    golden = {"seed": SEED, "smoke": section(True), "full": section(False)}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
