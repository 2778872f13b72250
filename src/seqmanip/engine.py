"""Execution engine for sequential allocation.

Runs picking strategies against a policy, checks feasibility and greediness
of allocation traces, and implements the considered-by test, the invariance
relation and prefix splicing.

An allocation sequence is a tuple of ``(item, agent)`` steps.  A sequence
carries its own turn order, so partial traces produced under policies other
than the instance's own can still be checked for feasibility, greediness and
invariance; the instance only supplies rankings and utilities.

The budget of a search (the DP's stored states, the oracles' expanded states
or policies) is resolved here, so that every solver shares one rule and one
:class:`BudgetExceeded`.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import MANIPULATOR, Agent, Instance, Item

Step = tuple[Item, Agent]
AllocationSequence = tuple[Step, ...]
PickingStrategy = tuple[Item, ...]

DEFAULT_STATE_BUDGET = 10**7

BUDGET_ENV_VAR = "SEQMANIP_BUDGET"


class BudgetExceeded(RuntimeError):
    """A search outgrew its configured budget."""


def _resolve_budget(value: int | None, default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return default


@dataclass(frozen=True)
class Bundle:
    """A set of items with its exact total utility to the manipulator."""

    items: frozenset[Item]
    total_utility: Fraction


@dataclass(frozen=True)
class Solution:
    """A picking strategy, its trace on the instance, and the manipulator's bundle."""

    strategy: PickingStrategy
    sequence: AllocationSequence
    bundle: Bundle

    @property
    def utility(self) -> Fraction:
        return self.bundle.total_utility


def bundle_items(seq: Sequence[Step], agent: Agent) -> frozenset[Item]:
    """Items allocated to ``agent`` in a trace."""
    return frozenset(item for item, a in seq if a == agent)


def manipulator_bundle(inst: Instance, seq: Sequence[Step]) -> Bundle:
    items = bundle_items(seq, MANIPULATOR)
    view = inst.view
    weight, index = view.weight, view.index
    return Bundle(items, Fraction(sum(weight[index[i]] for i in items), view.scale))


def execute(inst: Instance, strategy: Sequence[Item]) -> AllocationSequence:
    """Run the allocation mechanism under the manipulator's ``strategy``.

    Non-manipulator turns take the agent's most preferred remaining item per
    its truthful ranking; manipulator turns take the earliest remaining item
    of ``strategy``.  Pure function of its arguments.
    """
    if len(strategy) != inst.m or set(strategy) != set(inst.items):
        raise ValueError("picking strategy must be a permutation of the item set")
    view = inst.view
    # The manipulator picks along its strategy as the others do along their rankings.
    prefs = {**view.prefs, MANIPULATOR: [view.index[item] for item in strategy]}
    return _allocate(inst, prefs, inst.policy, inst.policy)


def _solution_from_strategy(inst: Instance, strategy: PickingStrategy) -> Solution:
    seq = execute(inst, strategy)
    return Solution(strategy, seq, manipulator_bundle(inst, seq))


def _allocate(
    inst: Instance, prefs: dict[Agent, Sequence[int]], turns: Sequence[Agent], choosers: Sequence[Agent]
) -> AllocationSequence:
    """The trace in which turn ``t``, taken by ``turns[t]``, takes the first
    free item of ``prefs[choosers[t]]``.  One monotone cursor per ranking
    keeps it linear in the number of items."""
    first_free = inst.view.first_free
    cursors = dict.fromkeys(prefs, 0)
    taken = bytearray(inst.m)
    steps: list[Step] = []
    for agent, who in zip(turns, choosers):
        pref = prefs[who]
        cursors[who] = cur = first_free(pref, taken, cursors[who])
        taken[pref[cur]] = 1
        steps.append((inst.items[pref[cur]], agent))
    return tuple(steps)


def trace_feasible(inst: Instance, seq: Sequence[Step]) -> bool:
    """Feasibility of a (partial) trace against its own recorded turn order:
    known items, no duplicates, and every non-manipulator step takes that
    agent's most preferred remaining item."""
    view = inst.view
    taken = bytearray(inst.m)
    for item, agent in seq:
        i = view.index.get(item)
        if i is None or taken[i]:
            return False
        if agent != MANIPULATOR and view.top(agent, taken) != i:
            return False
        taken[i] = 1
    return True


def strategy_from_sequence(inst: Instance, seq: Sequence[Step]) -> PickingStrategy:
    """One picking strategy associated with a complete feasible trace: the
    manipulator's items in allocation order, all other items appended in the
    manipulator's truthful order."""
    picked = [item for item, agent in seq if agent == MANIPULATOR]
    picked_set = set(picked)
    rest = [item for item in inst.manipulator_ranking if item not in picked_set]
    return tuple(picked + rest)


def check_feasible(
    inst: Instance, seq: Sequence[Step]
) -> tuple[bool, PickingStrategy | None]:
    """Decide whether some picking strategy reproduces ``seq``.

    ``seq`` must be a prefix-aligned trace of the instance's policy (length
    and per-step agents are validated).  Returns ``(feasible, strategy)``;
    the witness strategy is only produced for complete feasible traces.
    """
    if len(seq) > inst.m:
        raise ValueError(f"trace length {len(seq)} exceeds item count {inst.m}")
    for pos, (item, agent) in enumerate(seq):
        if agent != inst.policy[pos]:
            raise ValueError(
                f"step {pos}: agent {agent} does not match policy turn {inst.policy[pos]}"
            )
    if not trace_feasible(inst, seq):
        return False, None
    if len(seq) == inst.m:
        return True, strategy_from_sequence(inst, seq)
    return True, None


def considered_before(
    inst: Instance, seq: Sequence[Step], item: Item, agent: Agent, x: int
) -> bool:
    """Has ``agent`` considered ``item`` within the first ``x`` allocations?

    True iff the last item allocated to the agent among the first ``x`` steps
    ranks strictly below ``item`` in the agent's ranking.  An agent that has
    received nothing has considered nothing, and an item never ranks strictly
    below itself.
    """
    if agent == MANIPULATOR:
        raise ValueError("considered-by is defined for non-manipulators only")
    if x > len(seq):
        raise ValueError(f"x = {x} exceeds trace length {len(seq)}")
    last: Item | None = None
    for it, a in seq[:x]:
        if a == agent:
            last = it
    if last is None:
        return False
    rank, index = inst.view.rank[agent], inst.view.index
    return rank[index[last]] > rank[index[item]]


def _greedy_choosers(turns: Sequence[Agent]) -> list[Agent]:
    """Whose ranking each turn takes from under greedy play: the first
    non-manipulator at or after the turn, or the manipulator once none is
    left."""
    choosers = list(turns)
    following = MANIPULATOR
    for t in range(len(turns) - 1, -1, -1):
        if turns[t] != MANIPULATOR:
            following = turns[t]
        choosers[t] = following
    return choosers


def is_greedy(inst: Instance, seq: Sequence[Step]) -> bool:
    """Is this (partial) trace greedy?

    At every manipulator step the pick must be the most preferred remaining
    item of the next non-manipulator in the trace's own remaining turns, or
    the manipulator's own best remaining item when no non-manipulator turn
    follows.  Raises ``ValueError`` on an infeasible trace.
    """
    if not trace_feasible(inst, seq):
        raise ValueError("greediness is only defined for feasible traces")
    turns = [agent for _, agent in seq]
    return tuple(map(tuple, seq)) == _allocate(inst, inst.view.prefs, turns, _greedy_choosers(turns))


def invariance_related(s1: Sequence[Step], s2: Sequence[Step]) -> bool:
    """Are two (partial) traces in the invariance relation?

    Requires equal per-agent allocation counts (manipulator included), equal
    allocated item sets, and the same last item per non-manipulator.  Traces
    in the relation leave behind the same remaining subproblem.
    """
    if Counter(a for _, a in s1) != Counter(a for _, a in s2):
        return False
    if {item for item, _ in s1} != {item for item, _ in s2}:
        return False
    return _last_items(s1) == _last_items(s2)


def _last_items(seq: Sequence[Step]) -> dict[Agent, Item]:
    last: dict[Agent, Item] = {}
    for item, agent in seq:
        if agent != MANIPULATOR:
            last[agent] = item
    return last


def splice(
    inst: Instance,
    seq: Sequence[Step],
    i: int,
    replacement: Sequence[Step],
) -> AllocationSequence:
    """Replace the first ``i`` steps of a complete feasible trace with an
    invariance-related prefix.

    The exchange always preserves feasibility; this is asserted at runtime
    and a failure signals an internal bug rather than bad input.
    """
    if len(replacement) != i:
        raise ValueError(f"replacement length {len(replacement)} != prefix length {i}")
    if len(seq) != inst.m or not trace_feasible(inst, seq):
        raise ValueError("base trace must be complete and feasible")
    if not invariance_related(tuple(seq[:i]), tuple(replacement)):
        raise ValueError("replacement prefix is not invariance-related to the original")
    result = tuple(replacement) + tuple(seq[i:])
    if not trace_feasible(inst, result):
        raise RuntimeError("internal error: exchange splice produced an infeasible trace")
    return result
