"""Verification sweeps and benchmarking.

Streams of instance specs (compact, picklable descriptions) are checked for
agreement between the dynamic program and both oracles, for the truthful
half-optimality guarantee, and for the table-size bound.  Specs rather than
instances travel to worker processes and appear in failure reports, so any
failing case is replayable from its description alone.

:func:`check_spec` runs the three solvers' cores on item indices
(``dp._optimum``, ``oracle._tree``, ``oracle._dominated``), which claim the
manipulator's picks and their integer weight.  Each claim is compared with
the execution of its strategy (``engine._certify``); solvers that claim
equal picks share one execution.  Utilities become ``Fraction`` only in the
record.  The exhaustive specs of one size share their items, utilities and
manipulator's ranking: the first spec per agent count builds its instance
in full, and each later one derives its instance from that one
(``Instance._derive``), checking only its policy and the rankings of agents
2..n.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator

from . import dp, engine, oracle
from .dp import best_response_with_table
from .engine import DEFAULT_STATE_BUDGET, BudgetExceeded, _resolve_budget, _utility
from .model import Agent, Instance, Item, generate_random_instance
from .oracle import DEFAULT_POLICY_BUDGET
from .responses import truthful_response

# Instance specs: ("exhaustive", n, policy, rankings-of-others) or ("random", n, m, seed).
Spec = tuple


def iter_exhaustive_specs(n_agents: int, max_items: int, min_items: int = 0) -> Iterator[Spec]:
    """Every instance with the manipulator's ranking fixed to canonical order.

    Fixing that ranking (and utilities along it) is exactly deduplication by
    item relabeling: any instance maps onto one of these by renaming items.
    All policies and all ranking tuples of the other agents are produced.
    """
    for m in range(min_items, max_items + 1):
        items = tuple(f"g{i}" for i in range(1, m + 1))
        perms = list(itertools.permutations(items))
        for policy in itertools.product(range(1, n_agents + 1), repeat=m):
            for others in itertools.product(perms, repeat=n_agents - 1):
                yield ("exhaustive", n_agents, policy, others)


def iter_random_specs(
    count: int, agent_choices: Iterable[int], max_items: int, seed: int, min_items: int = 1
) -> Iterator[Spec]:
    """Deterministic stream of random-instance specs."""
    rng = random.Random(seed)
    agent_choices = list(agent_choices)
    for _ in range(count):
        n = rng.choice(agent_choices)
        m = rng.randint(min_items, max_items)
        yield ("random", n, m, rng.randrange(2**32))


@cache
def _exhaustive_fields(
    m: int,
) -> tuple[tuple[Item, ...], tuple[Item, ...], dict[Item, Fraction], dict[Agent, Instance]]:
    """The items, manipulator's ranking and utilities that the exhaustive
    specs with ``m`` items share, as ``make_instance`` would store them, and
    per agent count the first instance built from them, fully validated,
    which the later specs of that size derive from."""
    ranking = tuple(f"g{i}" for i in range(1, m + 1))
    utility = {item: Fraction(m - pos) for pos, item in enumerate(ranking)}
    return tuple(sorted(ranking)), ranking, utility, {}


def build_instance(spec: Spec) -> Instance:
    kind = spec[0]
    if kind == "exhaustive":
        _, n, policy, others = spec
        items, ranking, utility, bases = _exhaustive_fields(len(policy))
        # A bool would find agent 1's base: it goes to the full check, which rejects it.
        base = bases.get(n) if type(n) is int else None
        if base is not None:
            return base._derive(tuple(policy), others)
        rankings = {1: ranking}
        for agent, other in enumerate(others, start=2):
            rankings[agent] = tuple(other)
        inst = bases[n] = Instance(items, n, tuple(policy), rankings, utility)
        return inst
    if kind == "random":
        _, n, m, seed = spec
        return generate_random_instance(n, m, seed)
    raise ValueError(f"unknown spec kind {kind!r}")


@dataclass(frozen=True)
class CheckRecord:
    spec: Spec
    n: int
    m: int
    k1: int
    utility_dp: Fraction
    utility_tree: Fraction
    utility_dominated: Fraction
    utility_truthful: Fraction
    utility_greedy: Fraction
    dp_states: int
    state_bound: int
    crucial: bool | None

    @property
    def agree(self) -> bool:
        return self.utility_dp == self.utility_tree == self.utility_dominated

    @property
    def half_ok(self) -> bool:
        return 2 * self.utility_truthful >= self.utility_dp

    @property
    def bound_ok(self) -> bool:
        return self.dp_states <= self.state_bound


def check_spec(
    spec: Spec,
    budget: int | None = None,
    check_crucial: bool = False,
) -> CheckRecord:
    """Solve one instance with all methods and collect the comparison.

    ``budget`` caps each search (DP states, choice-tree states, dominated
    policies); ``None`` keeps each search's default.  A ``BudgetExceeded``
    or an internal error is raised again, as the same class, with the spec
    in its message.
    """
    try:
        inst = build_instance(spec)
        state_budget = _resolve_budget(budget, DEFAULT_STATE_BUDGET)
        policy_budget = _resolve_budget(budget, DEFAULT_POLICY_BUDGET)
        dp_picks, dp_weight, table, _turns, _order = dp._optimum(inst, state_budget)
        tree_picks, tree_weight = oracle._tree(inst, state_budget)
        dominated_picks, dominated_weight, _policy, crucial = oracle._dominated(inst, policy_budget)
        # Each solver's claim is checked against the execution of its
        # strategy.  Equal picks make an equal strategy, so a claim equal
        # to one already certified, in picks and weight, would pass the
        # same check on the same execution.
        certified = set()
        for picks, weight, what in (
            (dp_picks, dp_weight, dp._BAD_CHAIN),
            (tree_picks, tree_weight, oracle._BAD_REBUILD),
            (dominated_picks, dominated_weight, oracle._BAD_DOMINATED),
        ):
            claim = (tuple(picks), weight)
            if claim not in certified:
                engine._certify(inst, picks, weight, what)
                certified.add(claim)
    except RuntimeError as exc:
        if type(exc) is not BudgetExceeded and not str(exc).startswith("internal error"):
            raise
        raise type(exc)(f"{exc} (spec {spec!r})") from exc
    # The weights of truthful_response's and greedy_alg's bundles.
    policy, view = inst.policy, inst.view
    truthful = engine._weight(view, engine._picks(policy, engine._allocate(inst, view.prefs, policy)))
    greedy = engine._weight(view, engine._picks(policy, engine._greedy(inst, policy)))
    scale = view.scale
    return CheckRecord(
        spec=spec,
        n=inst.n_agents,
        m=inst.m,
        k1=inst.k1,
        utility_dp=_utility(dp_weight, scale),
        utility_tree=_utility(tree_weight, scale),
        utility_dominated=_utility(dominated_weight, scale),
        utility_truthful=_utility(truthful, scale),
        utility_greedy=_utility(greedy, scale),
        dp_states=len(table),
        state_bound=(1 + inst.m) ** (inst.n_agents - 1) * (inst.m_prime + 1) * (inst.k1 + 1),
        crucial=crucial if check_crucial else None,
    )


@dataclass
class SweepSummary:
    checked: int = 0
    mismatches: list[Spec] = field(default_factory=list)
    half_violations: list[Spec] = field(default_factory=list)
    bound_violations: list[Spec] = field(default_factory=list)
    crucial_count: int = 0
    crucial_greedy_gaps: list[Spec] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.mismatches
            or self.half_violations
            or self.bound_violations
            or self.crucial_greedy_gaps
        )

    def absorb(self, record: CheckRecord) -> None:
        self.checked += 1
        if not record.agree:
            self.mismatches.append(record.spec)
        if not record.half_ok:
            self.half_violations.append(record.spec)
        if not record.bound_ok:
            self.bound_violations.append(record.spec)
        if record.crucial:
            self.crucial_count += 1
            if record.utility_greedy != record.utility_tree:
                self.crucial_greedy_gaps.append(record.spec)


def _starmap(fn: Callable, arg_tuples: Iterable[tuple], workers: int, chunk_size: int) -> Iterator:
    """``itertools.starmap`` in input order, over a process pool in chunks of
    ``chunk_size`` when ``workers > 1``.  The serial path starts no pool,
    does not import one, and pulls its arguments lazily.  The pool path
    keeps at most ``2 * workers + 1`` chunks submitted and not yet yielded,
    so it pulls its arguments only that far ahead."""
    if workers <= 1:
        yield from itertools.starmap(fn, arg_tuples)
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    args = iter(arg_tuples)
    window = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while chunk := list(itertools.islice(args, chunk_size)):
            # Executor.map submits the chunk now; it takes one iterable per parameter.
            window.append(pool.map(fn, *zip(*chunk), chunksize=chunk_size))
            if len(window) > 2 * workers:
                yield from window.popleft()
        while window:
            yield from window.popleft()


def sweep(
    specs: Iterable[Spec],
    workers: int = 1,
    chunk_size: int = 512,
    budget: int | None = None,
    check_crucial: bool = False,
) -> SweepSummary:
    """Check a stream of specs; aggregates results in input order."""
    check = partial(check_spec, budget=budget, check_crucial=check_crucial)
    summary = SweepSummary()
    for record in _starmap(check, ((spec,) for spec in specs), workers, chunk_size):
        summary.absorb(record)
    return summary


@dataclass(frozen=True)
class BenchRow:
    seed: int
    n: int
    m: int
    k1: int
    utility_opt: Fraction
    utility_truthful: Fraction
    ratio: Fraction | None
    dp_states: int
    dp_millis: float


BENCH_FIELDS = tuple(f.name for f in fields(BenchRow))


def bench_one(n: int, m: int, seed: int) -> BenchRow:
    """Time the dynamic program on one generated instance."""
    inst = generate_random_instance(n, m, seed)
    start = time.perf_counter()
    solution, table = best_response_with_table(inst)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    truthful = truthful_response(inst)
    ratio = truthful.utility / solution.utility if solution.utility else None
    return BenchRow(
        seed=seed,
        n=n,
        m=m,
        k1=inst.k1,
        utility_opt=solution.utility,
        utility_truthful=truthful.utility,
        ratio=ratio,
        dp_states=len(table),
        dp_millis=elapsed_ms,
    )


def bench_many(
    params: Iterable[tuple[int, int, int]], workers: int = 1
) -> list[BenchRow]:
    """Bench a list of (n, m, seed) cases, preserving input order."""
    return list(_starmap(bench_one, params, workers, chunk_size=4))
