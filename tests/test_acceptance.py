"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The heavy instance pools are computed once per session and shared
by the agreement, half-optimality and crucial-instance criteria.

Pool scope: the exhaustive pools cover every (policy, ranking-tuple)
combination, deduplicated by item relabeling, for two agents up to six items
and three agents up to four items.  Three-agent instances with five or six
items are covered by large seeded samples instead of full enumeration, whose
size (3^m ranking-pairs times policies, hundreds of millions of instances)
cannot be swept within the intended ten-minute envelope; the seeded samples
plus the mixed random pool keep every check exact while staying tractable.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import seqmanip as sm
from seqmanip import sweeps
from paper_lemmas import dominates
from _util import (
    check_dominance_construction,
    check_move_preservation,
    check_truthful_monotonicity,
    example1,
    example1_document,
    random_instances,
    random_strategy,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def pools() -> dict[str, sweeps.SweepSummary]:
    summaries: dict[str, sweeps.SweepSummary] = {}
    summaries["exhaustive n=2 m<=6"] = sweeps.sweep(
        sweeps.iter_exhaustive_specs(2, 6), check_crucial=True, workers=2
    )
    summaries["exhaustive n=3 m<=4"] = sweeps.sweep(
        sweeps.iter_exhaustive_specs(3, 4), check_crucial=True, workers=2
    )
    summaries["sampled n=3 m=5"] = sweeps.sweep(
        sweeps.iter_random_specs(12000, [3], max_items=5, seed=511, min_items=5), workers=2
    )
    summaries["sampled n=3 m=6"] = sweeps.sweep(
        sweeps.iter_random_specs(12000, [3], max_items=6, seed=611, min_items=6), workers=2
    )
    summaries["random n in {3,4} m<=9"] = sweeps.sweep(
        sweeps.iter_random_specs(1200, [3, 4], max_items=9, seed=911), workers=2
    )
    return summaries


def test_criterion_01_golden_walkthrough():
    inst = example1()
    start = time.perf_counter()
    truthful = sm.execute(inst, ("a", "b", "c", "d", "e"))
    optimal = sm.best_response_with_table(inst)[0]
    misreport = sm.execute(inst, ("b", "a", "c", "d", "e"))
    elapsed = time.perf_counter() - start
    for _ in range(4):  # timing: keep the best of five runs
        start = time.perf_counter()
        sm.execute(inst, ("a", "b", "c", "d", "e"))
        sm.best_response_with_table(inst)
        sm.execute(inst, ("b", "a", "c", "d", "e"))
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = (
        sm.bundle_items(truthful, 1) == {"a", "d"}
        and sm.bundle_items(truthful, 2) == {"c", "b"}
        and sm.bundle_items(truthful, 3) == {"e"}
        and optimal.bundle.items == {"a", "b"}
        and sm.bundle_items(misreport, 1) == {"b", "a"}
        and elapsed < 1e-3
    )
    _report(1, ok, f"truthful {{a,d}}/{{c,b}}/{{e}}, optimum {{a,b}}, misreport {{b,a}}; {elapsed * 1e3:.3f} ms")


def test_criterion_02_golden_delayed_policy():
    inst = example1()
    delayed = inst.with_policy((3, 2, 1, 2, 1))
    trace, _strategy = sm.greedy_alg(delayed)
    ok = (
        sm.bundle_items(trace, 1) == {"a", "b"}
        and sm.is_crucial(delayed)
        and dominates(inst.policy, delayed.policy)
    )
    _report(2, ok, "greedy on 32121 yields {a,b}; 32121 crucial; 13221 dominates 32121")


def test_criterion_03_tightness_family():
    ok = True
    details = []
    for k in (3, 10, 1000):
        report = sm.approximation_report(sm.generate_tightness_instance(k))
        eps = Fraction(1, k)
        ok &= report.truthful == 1 + eps
        ok &= report.optimal == 2 - eps
        ok &= report.ratio == (1 + eps) / (2 - eps)
        ok &= report.ratio > Fraction(1, 2)
        details.append(f"K={k}: {report.ratio}")
    _report(3, ok, "; ".join(details))


def test_criterion_04_oracle_equivalence(pools):
    ok = True
    details = []
    for name, summary in pools.items():
        ok &= summary.checked > 0 and not summary.mismatches
        details.append(f"{name}: {summary.checked}")
        if summary.mismatches:
            details.append(f"MISMATCHES {summary.mismatches[:3]}")
    random_pool = pools["random n in {3,4} m<=9"]
    ok &= random_pool.checked >= 1000
    _report(4, ok, "dp == choice-tree == dominated-greedy on " + ", ".join(details))


def test_criterion_05_half_optimality_and_preservation_properties(pools):
    ok = True
    details = []
    total = 0
    for name, summary in pools.items():
        ok &= not summary.half_violations
        total += summary.checked
    details.append(f"truthful >= optimal/2 on {total} pool instances")

    rng = random.Random(20260811)
    dominance_pairs = 0
    for inst, _seed in random_instances(500, seed=551, agents=(2, 3, 4), max_items=8):
        check_truthful_monotonicity(inst, limit=48)
        check_dominance_construction(inst, random_strategy(inst, rng), rng)
        dominance_pairs += 1
    details.append(f"dominance monotonicity+construction on {dominance_pairs} pairs")

    move_pairs = 0
    move_cases = 0
    for inst, _seed in random_instances(500, seed=757, agents=(2, 3, 4), max_items=8):
        move_cases += check_move_preservation(inst, random_strategy(inst, rng))
        move_pairs += 1
    ok &= dominance_pairs >= 500 and move_pairs >= 500 and move_cases > 500
    details.append(f"move preservation on {move_pairs} pairs ({move_cases} delays)")
    _report(5, ok, "; ".join(details))


def test_criterion_06_crucial_instances_greedy_optimal(pools):
    ok = True
    details = []
    # These counts came from a separate search per strictly dominated
    # policy; the crucial check, read off the dominated walk, must match them.
    for name, expected in (("exhaustive n=2 m<=6", 15126), ("exhaustive n=3 m<=4", 28388)):
        summary = pools[name]
        ok &= summary.crucial_count == expected and not summary.crucial_greedy_gaps
        details.append(f"{name}: {summary.crucial_count} crucial, 0 greedy gaps")
        if summary.crucial_greedy_gaps:
            details.append(f"GAPS {summary.crucial_greedy_gaps[:3]}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_polynomial_scaling(pools):
    sizes = (10, 15, 20, 25, 30)
    medians: dict[int, float] = {}
    bound_ok = True
    for m in sizes:
        rows = [sweeps.bench_one(3, m, seed=70_000 + 10 * m + j) for j in range(3)]
        for row in rows:
            bound = (1 + row.m) ** 2 * (row.m - row.k1 + 1) * (row.k1 + 1)
            bound_ok &= row.dp_states <= bound
        medians[m] = sorted(row.dp_millis for row in rows)[1]
    xs = [math.log(m) for m in sizes]
    ys = [math.log(max(medians[m], 1e-3)) for m in sizes]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    pool_bounds_ok = all(not summary.bound_violations for summary in pools.values())
    ok = slope <= 7.0 and medians[30] <= 10_000.0 and bound_ok and pool_bounds_ok
    _report(
        7,
        ok,
        f"log-log slope {slope:.2f} <= 7; median t(m=30) = {medians[30]:.1f} ms <= 10 s; "
        f"state counts within bound on every run",
    )


def test_criterion_08_byte_identical_solve(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(example1_document(), encoding="utf-8")
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "seqmanip", "solve", str(path), "--dump-table"],
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["bundle"] == ["a", "b"]
    _report(8, ok, "two solve runs produced byte-identical output")
