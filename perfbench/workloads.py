"""The four benchmark workloads: inputs made from a seed, one unit of work,
and the checks on its output.

Every workload is a closed loop with one client: the next unit starts when
the previous one has been checked.  A unit is one DP cycle (``dp_scaling``:
one n=2 m=200 and two n=3 m=90 instances), one sweep spec
(``crucial_sweep``, ``verify_random``) or one ``seqmanip solve``
subprocess (``cli_solve``).  Units are timed with ``hostspeed.clock``, which
leaves out the host-speed reference slices.  The benchmark calls the
package only through module attributes (``dp.best_response_with_table``,
``sweeps.sweep``, ``cli.main``), so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import hostspeed
from seqmanip import cli, dp, engine, greedy, model, responses, sweeps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXAMPLE1 = HERE / "data" / "example1.json"

# The ROADMAP DP grid.  The untraced run solves the two target points; the
# traced run adds the two smaller points so that per-point build times show
# how the table build scales with n.  Smoke mode keeps the labels but shrinks
# m, so its numbers are not measurements of the named points.
GRID = {"n2m200": (2, 200), "n3m90": (3, 90), "n4m40": (4, 40), "n5m24": (5, 24)}
SMOKE_GRID = {"n2m200": (2, 14), "n3m90": (3, 10), "n4m40": (4, 8), "n5m24": (5, 6)}
# One n=2 m=200 instance takes about as long as two n=3 m=90 ones, so this
# cycle gives both target points about the same share of the wall time.  A
# cycle is the untraced unit: its latency moves with either point.
DP_CYCLE = ("n2m200", "n3m90", "n3m90")
DP_TRACED_CYCLE = ("n2m200", "n3m90", "n4m40", "n5m24")

# Sizes of the input lists (the untraced loop cycles through its list if it
# gets to the end) and of the fixed work of the traced run.
SIZES = {
    False: {
        "dp_cycles": 12,
        "dp_traced_cycles": 3,
        "crucial_specs": 20000,
        "crucial_traced": 3000,
        "random_specs": 20000,
        "random_traced": 5000,
        "cli_items": (6, 12, 18, 24, 30),
        "cli_traced_rounds": 10,
        "cli_probes": 15,
    },
    True: {
        "dp_cycles": 2,
        "dp_traced_cycles": 1,
        "crucial_specs": 60,
        "crucial_traced": 20,
        "random_specs": 200,
        "random_traced": 40,
        "cli_items": (6, 8),
        "cli_traced_rounds": 1,
        "cli_probes": 2,
    },
}

EXHAUSTIVE_ITEMS = {False: 6, True: 4}
RANDOM_AGENTS = (3, 4)
RANDOM_ITEMS = {False: (5, 9), True: (3, 5)}


def package_env() -> dict:
    """Environment for a subprocess that must import this checkout's package."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run this interpreter in a subprocess from the checkout root; wall seconds."""
    with hostspeed.held():
        start = hostspeed.clock()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        return hostspeed.clock() - start, proc


def round_robin_instance(n: int, m: int, tag: str) -> model.Instance:
    """Uniform random rankings under the round-robin policy 1, 2, ..., n, 1, ...

    A fixed policy shape keeps the DP cost of one instance within about 15%
    of the mean across seeds; random policies make it vary threefold at
    n=3 m=90, which would make a 25-second run measure the draw, not the
    code.  The sweep workloads cover random policies.
    """
    rng = random.Random(tag)
    items = [f"g{i}" for i in range(1, m + 1)]
    rankings = {agent: rng.sample(items, m) for agent in range(1, n + 1)}
    policy = [1 + t % n for t in range(m)]
    utility = {item: Fraction(m - pos) for pos, item in enumerate(rankings[1])}
    return model.make_instance(items, n, policy, rankings, utility)


def dp_problems(inst: model.Instance, solution, expected: str | None) -> list[str]:
    """Checks on a DP solution that need no golden data, plus the golden one."""
    problems = []
    replayed = engine.manipulator_bundle(inst, engine.execute(inst, solution.strategy))
    if replayed.total_utility != solution.utility:
        problems.append(
            f"strategy replays to {replayed.total_utility}, DP says {solution.utility}"
        )
    truthful = responses.truthful_response(inst).utility
    greedy_utility = engine.manipulator_bundle(inst, greedy.greedy_alg(inst)[0]).total_utility
    if solution.utility < truthful or solution.utility < greedy_utility:
        problems.append(
            f"DP utility {solution.utility} below truthful {truthful} or greedy {greedy_utility}"
        )
    if expected is not None and str(solution.utility) != expected:
        problems.append(f"DP utility {solution.utility}, golden {expected}")
    return problems


class Workload:
    """Inputs from a seed, one timed unit of work, and its checks.

    ``setup`` builds everything the timed loop needs; ``run`` does unit ``i``
    of the untraced loop and returns (seconds, problems); ``traced_units``
    is the fixed work of the traced run, as callables returning problems.
    The traced run sets ``untraced`` to a context that pauses its spans, so
    that the benchmark's own checks are not counted as the program's work.
    """

    name = ""
    # Whose peak RSS is the workload's: this process, or its subprocesses.
    rss_of = resource.RUSAGE_SELF

    def __init__(self, seed: int, smoke: bool, golden: dict | None):
        self.seed = seed
        self.smoke = smoke
        self.sizes = SIZES[smoke]
        self.golden = golden
        self.untraced = contextlib.nullcontext

    def setup(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def run(self, i: int) -> tuple[float, list[str]]:
        raise NotImplementedError

    def traced_units(self) -> list:
        raise NotImplementedError

    def unit_label(self, i: int) -> str:
        return ""

    def summary(self) -> dict:
        return {}

    def probes(self) -> dict:
        return {}


class DPScaling(Workload):
    name = "dp_scaling"

    def setup(self) -> None:
        grid = SMOKE_GRID if self.smoke else GRID
        self.cycles = []
        for cycle in range(self.sizes["dp_cycles"]):
            entries = []
            for j, label in enumerate(DP_CYCLE):
                # Instances of one grid point are numbered 0, 1, 2, ...
                index = cycle * DP_CYCLE.count(label) + DP_CYCLE[:j].count(label)
                entries.append((label, index, self._instance(grid, label, index)))
            self.cycles.append(entries)
        self.traced = [
            (label, cycle, self._instance(grid, label, cycle))
            for cycle in range(self.sizes["dp_traced_cycles"])
            for label in DP_TRACED_CYCLE
        ]
        dp.best_response_with_table(round_robin_instance(3, 12, "warm-up"))

    def _instance(self, grid, label, index):
        n, m = grid[label]
        return round_robin_instance(n, m, f"{self.seed}:{label}:{index}")

    def _expected(self, label: str, index: int) -> str | None:
        if self.golden is None:
            return None
        return self.golden[self.name][label][index]

    def __len__(self) -> int:
        return len(self.cycles)

    def _solve(self, label, index, inst) -> tuple[float, list[str]]:
        start = hostspeed.clock()
        solution, _table = dp.best_response_with_table(inst)
        elapsed = hostspeed.clock() - start
        with self.untraced():
            return elapsed, dp_problems(inst, solution, self._expected(label, index))

    def run(self, i):
        """One whole cycle, so that both target points move every latency."""
        elapsed, problems = 0.0, []
        for entry in self.cycles[i]:
            seconds, found = self._solve(*entry)
            elapsed += seconds
            problems += found
        return elapsed, problems

    def traced_units(self):
        return [lambda entry=entry: self._solve(*entry)[1] for entry in self.traced]

    def unit_label(self, i):
        return self.traced[i][0]


class SweepWorkload(Workload):
    """One ``sweeps.sweep`` call per spec, so that each spec is timed."""

    check_crucial = False

    def specs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.spec_list = self.specs()
        self.expected = self.golden[self.name].split() if self.golden is not None else None
        self.checked = 0
        self.crucial_count = 0
        for spec in self.spec_list[:5]:
            sweeps.sweep([spec], check_crucial=self.check_crucial)

    def __len__(self):
        return len(self.spec_list)

    def run(self, i):
        spec = self.spec_list[i]
        start = hostspeed.clock()
        summary = sweeps.sweep([spec], check_crucial=self.check_crucial)
        elapsed = hostspeed.clock() - start
        problems = []
        if not summary.ok or summary.checked != 1:
            problems.append(f"sweep of {spec} not ok: checked={summary.checked} {summary}")
        self.checked += summary.checked
        self.crucial_count += summary.crucial_count
        expected = self.expected[i] if self.expected is not None else None
        with self.untraced():
            problems += self.problems(spec, summary, expected)
        return elapsed, problems

    def problems(self, spec, summary, expected: str | None) -> list[str]:
        """Checks of one spec's sweep beyond ``summary.ok``."""
        raise NotImplementedError

    def traced_units(self):
        count = min(len(self.spec_list), self.sizes[self.traced_key])
        return [lambda i=i: self.run(i)[1] for i in range(count)]

    def summary(self):
        return {"checked": self.checked, "crucial_count": self.crucial_count}


class CrucialSweep(SweepWorkload):
    """A uniform sample, without replacement, of the exhaustive n=2 pool."""

    name = "crucial_sweep"
    check_crucial = True
    traced_key = "crucial_traced"

    def specs(self):
        # Index k of the pool is the k-th spec of
        # sweeps.iter_exhaustive_specs(2, m, min_items=m), made without
        # building the whole pool.
        m = EXHAUSTIVE_ITEMS[self.smoke]
        policies = list(itertools.product((1, 2), repeat=m))
        perms = list(itertools.permutations(f"g{i}" for i in range(1, m + 1)))
        pool_size = len(policies) * len(perms)
        rng = random.Random(f"{self.seed}:{self.name}")
        picks = rng.sample(range(pool_size), min(pool_size, self.sizes["crucial_specs"]))
        return [
            ("exhaustive", 2, policies[k // len(perms)], (perms[k % len(perms)],))
            for k in picks
        ]

    def problems(self, spec, summary, expected):
        """Golden data: the crucial flag of each sampled spec, as "0" or "1"."""
        if expected is not None and str(summary.crucial_count) != expected:
            return [f"{spec}: crucial_count {summary.crucial_count}, golden {expected}"]
        return []


class VerifyRandom(SweepWorkload):
    name = "verify_random"
    traced_key = "random_traced"

    def specs(self):
        low, high = RANDOM_ITEMS[self.smoke]
        return list(
            sweeps.iter_random_specs(
                self.sizes["random_specs"], RANDOM_AGENTS, high, self.seed, min_items=low
            )
        )

    def problems(self, spec, summary, expected):
        """The sweep reports no utilities, so the DP is solved again here.

        Golden data is the DP utility of each spec.  It catches a defect in a
        layer the DP and both oracles share (``build_instance``, the random
        generator, ``engine``), which ``summary.ok`` cannot see.
        """
        inst = sweeps.build_instance(spec)
        solution, _table = dp.best_response_with_table(inst)
        return dp_problems(inst, solution, expected)


class CLISolve(Workload):
    """``python -m seqmanip solve FILE`` over example1 and generated files."""

    name = "cli_solve"
    rss_of = resource.RUSAGE_CHILDREN

    def setup(self) -> None:
        self.env = package_env()
        folder = OUT / f"cli-{self.seed}{'-smoke' if self.smoke else ''}"
        folder.mkdir(parents=True, exist_ok=True)
        documents = {"example1": EXAMPLE1.read_text(encoding="utf-8")}
        for m in self.sizes["cli_items"]:
            tag = random.Random(f"{self.seed}:{self.name}:{m}").randrange(2**32)
            inst = model.generate_random_instance(3, m, tag)
            documents[f"n3m{m:02d}"] = model.serialize_instance(inst) + "\n"
        self.files = []
        self.instances = {}
        for key, text in documents.items():
            path = folder / f"{key}.json"
            path.write_text(text, encoding="utf-8")
            self.files.append((key, path))
            self.instances[key] = model.parse_instance(text)
        # Golden stdout for the default seed; otherwise the first output of
        # each file that passes the golden-free checks becomes the reference.
        self.reference = dict(self.golden[self.name]) if self.golden is not None else {}
        run_python(["-m", "seqmanip", "solve", str(self.files[0][1])], self.env)

    def __len__(self):
        return len(self.files)

    def _problems(self, key: str, returncode: int, stdout: str) -> list[str]:
        if returncode != 0:
            return [f"solve {key} exited {returncode}"]
        expected = self.reference.get(key)
        if expected is not None:
            return [] if stdout == expected else [f"solve {key}: stdout differs from reference"]
        try:
            payload = json.loads(stdout)
            solution = types.SimpleNamespace(
                strategy=tuple(payload["strategy"]), utility=Fraction(payload["utility"])
            )
            with self.untraced():
                problems = dp_problems(self.instances[key], solution, None)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"solve {key}: unreadable output: {exc}"]
        if not problems:
            self.reference[key] = stdout
        return problems

    def run(self, i):
        key, path = self.files[i]
        elapsed, proc = run_python(["-m", "seqmanip", "solve", str(path)], self.env)
        return elapsed, self._problems(key, proc.returncode, proc.stdout.decode("utf-8"))

    def _main_in_process(self, key, path) -> list[str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["solve", str(path)])
        return self._problems(key, code, buffer.getvalue())

    def traced_units(self):
        return [
            lambda entry=entry: self._main_in_process(*entry)
            for _ in range(self.sizes["cli_traced_rounds"])
            for entry in self.files
        ]

    def probes(self) -> dict:
        """Medians of bare-interpreter and interpreter-plus-import wall times."""
        bare, imported = [], []
        for _ in range(self.sizes["cli_probes"]):
            bare.append(run_python(["-c", "pass"], self.env)[0])
            imported.append(run_python(["-c", "import seqmanip.cli"], self.env)[0])
        interpreter = statistics.median(bare)
        return {
            "cli.interpreter_ms": interpreter * 1000.0,
            "cli.import_ms": (statistics.median(imported) - interpreter) * 1000.0,
        }


WORKLOADS = {cls.name: cls for cls in (DPScaling, CrucialSweep, VerifyRandom, CLISolve)}
