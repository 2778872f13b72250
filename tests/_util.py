"""Shared builders and property checkers for the test suite."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import seqmanip as sm
from seqmanip.engine import DEFAULT_STATE_BUDGET, _resolve_budget
from seqmanip.oracle import _reachable
from paper_lemmas import considered_before, move_manipulator_turn

EXAMPLE1_UTILITIES = {"a": 5, "b": 4, "c": 3, "d": 2, "e": 1}


def example1() -> sm.Instance:
    """Five items, three agents, policy 13221; the walkthrough instance."""
    return sm.make_instance(
        items=["a", "b", "c", "d", "e"],
        n_agents=3,
        policy=[1, 3, 2, 2, 1],
        rankings={
            1: ["a", "b", "c", "d", "e"],
            2: ["c", "b", "e", "d", "a"],
            3: ["e", "b", "d", "c", "a"],
        },
        utility=EXAMPLE1_UTILITIES,
    )


def example1_document() -> str:
    return json.dumps(
        {
            "items": ["a", "b", "c", "d", "e"],
            "agents": 3,
            "policy": [1, 3, 2, 2, 1],
            "rankings": {
                "1": ["a", "b", "c", "d", "e"],
                "2": ["c", "b", "e", "d", "a"],
                "3": ["e", "b", "d", "c", "a"],
            },
            "utilities": {k: str(v) for k, v in EXAMPLE1_UTILITIES.items()},
        }
    )


def random_instances(count: int, seed: int, agents=(2, 3, 4), max_items: int = 7, min_items: int = 1):
    """Deterministic stream of random instances (with their seeds)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(list(agents))
        m = rng.randint(min_items, max_items)
        inst_seed = rng.randrange(2**32)
        yield sm.generate_random_instance(n, m, inst_seed), inst_seed


DENOMINATORS = (3, 7, 10, 12)


def mixed_denominator_instance(n: int, m: int, seed: int) -> sm.Instance:
    """Random rankings and policy; distinct utilities with denominators
    drawn from ``DENOMINATORS``, decreasing along the manipulator's ranking."""
    rng = random.Random(seed)
    items = [f"g{i}" for i in range(1, m + 1)]
    rankings = {agent: rng.sample(items, m) for agent in range(1, n + 1)}
    policy = [rng.randrange(1, n + 1) for _ in range(m)]
    values: set[Fraction] = set()
    while len(values) < m:
        values.add(Fraction(rng.randrange(1, 60), rng.choice(DENOMINATORS)))
    utility = dict(zip(rankings[1], sorted(values, reverse=True)))
    return sm.make_instance(items, n, policy, rankings, utility)


def round_robin_instance(n: int, m: int, seed: int = 0) -> sm.Instance:
    """``generate_random_instance(n, m, seed)`` under the policy 1, 2, ..., n, 1, ..."""
    return sm.generate_random_instance(n, m, seed).with_policy([1 + t % n for t in range(m)])


def achievable_bundles_exact(inst: sm.Instance, target: frozenset) -> bool:
    """Can the manipulator end up with exactly ``target``?

    Independent decision procedure used to cross-check the reduction in
    :mod:`seqmanip.responses`: the forward pass of
    :func:`seqmanip.oracle._reachable` with manipulator picks restricted to
    the target set (a pick outside it can never produce the exact bundle)
    and non-manipulator turns forced.  The bundle is achievable when some
    allocated set survives the last turn.  Raises
    :class:`seqmanip.BudgetExceeded` past the default state budget.
    """
    if len(target) != inst.k1:
        return False
    picks = [inst.view.index[item] for item in target]
    return bool(_reachable(inst, picks, _resolve_budget(None, DEFAULT_STATE_BUDGET))[-1])


def crucial_by_choice_tree(inst: sm.Instance) -> bool:
    """The definition of a crucial instance, with one choice tree per
    strictly dominated policy."""
    own = sm.choice_tree_best(inst).utility
    return all(
        sm.choice_tree_best(inst.with_policy(pol)).utility < own
        for pol in sm.enumerate_dominated(inst.policy)
        if pol != inst.policy
    )


def random_strategy(inst: sm.Instance, rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.sample(list(inst.items), inst.m))


def manipulator_utility(inst: sm.Instance, seq) -> object:
    return sm.manipulator_bundle(inst, seq).total_utility


def pick_order_strategy(inst: sm.Instance, dominated_trace) -> tuple[str, ...]:
    """Items the manipulator received, in pick order, then the rest truthfully."""
    picked = [item for item, agent in dominated_trace if agent == sm.MANIPULATOR]
    rest = [item for item in inst.manipulator_ranking if item not in set(picked)]
    return tuple(picked + rest)


def check_truthful_monotonicity(inst: sm.Instance, limit: int = 64) -> int:
    """Truthful play never improves under a dominated (later-turn) policy."""
    baseline = manipulator_utility(inst, sm.execute(inst, inst.manipulator_ranking))
    checked = 0
    for pol in itertools.islice(sm.enumerate_dominated(inst.policy), limit):
        if pol == inst.policy:
            continue
        other = inst.with_policy(pol)
        assert manipulator_utility(other, sm.execute(other, other.manipulator_ranking)) <= baseline
        checked += 1
    return checked


def check_dominance_construction(inst: sm.Instance, strategy, rng: random.Random) -> bool:
    """Replaying a dominated instance's bundle on the dominating one.

    Whatever bundle an arbitrary strategy earns under a dominated policy, the
    strategy listing those items in pick order recovers the identical bundle
    under the original policy.
    """
    dominated = list(sm.enumerate_dominated(inst.policy))
    pol = rng.choice(dominated)
    other = inst.with_policy(pol)
    trace_other = sm.execute(other, strategy)
    replay = sm.execute(inst, pick_order_strategy(inst, trace_other))
    assert sm.bundle_items(replay, sm.MANIPULATOR) == sm.bundle_items(trace_other, sm.MANIPULATOR)
    return pol != inst.policy


def check_move_preservation(inst: sm.Instance, strategy) -> int:
    """Delaying a manipulator turn past turns that never considered its pick.

    For every manipulator position i and later target position p such that no
    non-manipulator considered the picked item within the first p allocations:

    * splicing the pick to position p yields a feasible trace for the moved
      policy with the identical manipulator bundle, and
    * when the skipped-over window contains no other manipulator turn,
      re-executing the same strategy on the moved policy also preserves the
      bundle.
    """
    trace = sm.execute(inst, strategy)
    m = inst.m
    base_bundle = sm.bundle_items(trace, sm.MANIPULATOR)
    cases = 0
    for i, (item, agent) in enumerate(trace, start=1):
        if agent != sm.MANIPULATOR:
            continue
        for p in range(i + 1, m + 1):
            if any(
                considered_before(inst, trace, item, watcher, p)
                for watcher in range(2, inst.n_agents + 1)
            ):
                continue
            moved_policy = move_manipulator_turn(inst.policy, i, p)
            moved_inst = inst.with_policy(moved_policy)
            spliced = trace[: i - 1] + trace[i:p] + (trace[i - 1],) + trace[p:]
            assert tuple(a for _, a in spliced) == moved_policy
            assert sm.trace_feasible(moved_inst, spliced)
            assert sm.bundle_items(spliced, sm.MANIPULATOR) == base_bundle
            if all(inst.policy[t - 1] != sm.MANIPULATOR for t in range(i + 1, p + 1)):
                rerun = sm.execute(moved_inst, strategy)
                assert sm.bundle_items(rerun, sm.MANIPULATOR) == base_bundle
            cases += 1
    return cases
