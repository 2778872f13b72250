"""Execution engine for sequential allocation.

Runs picking strategies against a policy, computes the greedy trace of a
turn order, and checks feasibility and greediness of allocation traces.

An allocation sequence is a tuple of ``(item, agent)`` steps.  A sequence
carries its own turn order, so partial traces produced under policies other
than the instance's own can still be checked for feasibility and
greediness; the instance only supplies rankings and utilities.
:func:`_allocate` is the one walk over rankings outside the solvers' inner
loops: executions, greedy traces (:func:`_greedy_trace`) and feasibility
checks run it.  :func:`_certify` is the solvers' one self-check.

The budget of a search (the DP's stored states, the oracles' expanded states
or policies) is resolved here, so that every solver shares one rule and one
:class:`BudgetExceeded`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import MANIPULATOR, Agent, Instance, Item, _clip, _IntegerView

Step = tuple[Item, Agent]
AllocationSequence = tuple[Step, ...]
PickingStrategy = tuple[Item, ...]

DEFAULT_STATE_BUDGET = 10**7

BUDGET_ENV_VAR = "SEQMANIP_BUDGET"


class BudgetExceeded(RuntimeError):
    """A search outgrew its configured budget."""


def _positive_int(text: str) -> int | None:
    """``text`` as an int if it is a positive integer in plain ASCII digits
    that ``int`` converts (at most 4300 of them by default)."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text) or None
    except ValueError:
        return None


def _resolve_budget(value: int | None, default: int) -> int:
    """``value``, else ``SEQMANIP_BUDGET``, else ``default``.  A given
    ``value`` must be a non-negative int; 0 lets no search store anything."""
    if value is not None:
        if type(value) is not int or value < 0:
            raise ValueError(f"budget must be a non-negative integer, got {value!r}")
        return value
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return default
    budget = _positive_int(env)
    if budget is None:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer")
    return budget


class Bundle(NamedTuple):
    """A set of items with its exact total utility to the manipulator."""

    items: frozenset[Item]
    total_utility: Fraction


class Solution(NamedTuple):
    """A picking strategy, a trace, and the manipulator's bundle in both:
    the strategy's trace on the instance, or from the DP the greedy trace of
    a dominated turn order, which can differ but gives the same bundle."""

    strategy: PickingStrategy
    sequence: AllocationSequence
    bundle: Bundle

    @property
    def utility(self) -> Fraction:
        return self.bundle.total_utility


def bundle_items(seq: Sequence[Step], agent: Agent) -> frozenset[Item]:
    """Items allocated to ``agent`` in a trace."""
    picked = []
    for item, a in seq:
        if a == agent:
            picked.append(item)
    return frozenset(picked)


def _weight(view: _IntegerView, items: frozenset[Item]) -> int:
    """The manipulator's total integer weight for ``items``."""
    weight, index = view.weight, view.index
    total = 0
    for item in items:
        total += weight[index[item]]
    return total


def _utility(weight: int, scale: int) -> Fraction:
    """``Fraction(weight, scale)``, without its gcd when ``scale`` is 1."""
    return Fraction(weight) if scale == 1 else Fraction(weight, scale)


def manipulator_bundle(inst: Instance, seq: Sequence[Step]) -> Bundle:
    items = bundle_items(seq, MANIPULATOR)
    view = inst.view
    return Bundle(items, _utility(_weight(view, items), view.scale))


def execute(inst: Instance, strategy: Sequence[Item]) -> AllocationSequence:
    """Run the allocation mechanism under the manipulator's ``strategy``.

    Non-manipulator turns take the agent's most preferred remaining item per
    its truthful ranking; manipulator turns take the earliest remaining item
    of ``strategy``.  Pure function of its arguments.
    """
    view = inst.view
    if len(strategy) != inst.m or set(strategy) != view.index.keys():
        raise ValueError("picking strategy must be a permutation of the item set")
    # The manipulator picks along its strategy as the others do along their rankings.
    prefs = {**view.prefs, MANIPULATOR: [view.index[item] for item in strategy]}
    return _allocate(inst, prefs, inst.policy, inst.policy)


def _certify(inst: Instance, seq: Sequence[Step], weight: int, what: str) -> Solution:
    """The solution of ``seq``'s strategy on the instance, once executing
    that strategy gives ``seq``'s manipulator items, worth the integer
    ``weight``; else the solver that made ``seq`` has a bug:
    ``RuntimeError("internal error: <what>")``.  The utility becomes a
    ``Fraction`` only once the check has passed."""
    strategy, picked = _strategy(inst, seq)
    executed = execute(inst, strategy)
    items = bundle_items(executed, MANIPULATOR)
    view = inst.view
    if items != picked or _weight(view, items) != weight:
        raise RuntimeError(f"internal error: {what}")
    return Solution(strategy, executed, Bundle(items, _utility(weight, view.scale)))


def _allocate(
    inst: Instance, prefs: dict[Agent, Sequence[int]], turns: Sequence[Agent], choosers: Sequence[Agent]
) -> AllocationSequence:
    """The trace in which turn ``t``, taken by ``turns[t]``, takes the first
    item of ``prefs[choosers[t]]`` not yet in the byte mask ``taken``.  One
    monotone cursor per ranking keeps it linear in the number of items."""
    items = inst.items
    cursors = dict.fromkeys(prefs, 0)
    taken = bytearray(inst.m)
    steps: list[Step] = []
    for agent, who in zip(turns, choosers):
        pref = prefs[who]
        cur = cursors[who]
        while taken[pref[cur]]:
            cur += 1
        cursors[who] = cur + 1
        i = pref[cur]
        taken[i] = 1
        steps.append((items[i], agent))
    return tuple(steps)


def trace_feasible(inst: Instance, seq: Sequence[Step]) -> bool:
    """Feasibility of a (partial) trace against its own recorded turn order:
    known items, no duplicates, agents in 1..n, and every non-manipulator
    step takes that agent's most preferred remaining item.  Re-run on its
    turns with the manipulator playing its strategy, it must not change."""
    view = inst.view
    steps = tuple((item, agent) for item, agent in seq)
    picked = {item for item, _ in steps}
    if len(picked) != len(steps) or not picked.issubset(view.index):
        return False
    try:
        strategy = strategy_from_sequence(inst, steps)
    except ValueError:  # an agent that is not an int in 1..n
        return False
    turns = [agent for _, agent in steps]
    prefs = {**view.prefs, MANIPULATOR: [view.index[item] for item in strategy]}
    return _allocate(inst, prefs, turns, turns) == steps


def strategy_from_sequence(inst: Instance, seq: Sequence[Step]) -> PickingStrategy:
    """One picking strategy associated with a feasible trace: the
    manipulator's items in allocation order, all other items appended in the
    manipulator's truthful order.  Raises ``ValueError`` on a step whose
    agent is not an int in 1..n, or a manipulator item that is unknown or
    repeated."""
    return _strategy(inst, seq)[0]


def _strategy(inst: Instance, seq: Sequence[Step]) -> tuple[PickingStrategy, set[Item]]:
    """:func:`strategy_from_sequence`, with the set of the manipulator's items."""
    n = inst.n_agents
    index = inst.view.index
    picked: list[Item] = []
    picked_set: set[Item] = set()
    for item, agent in seq:
        if type(agent) is not int or not 1 <= agent <= n:
            raise ValueError(f"agent index {_clip(repr(agent))} out of range 1..{n}")
        if agent == MANIPULATOR:
            if item in picked_set or item not in index:
                problem = "repeated" if item in picked_set else "unknown"
                raise ValueError(f"{problem} item {_clip(repr(item))} in the manipulator's picks")
            picked.append(item)
            picked_set.add(item)
    rest = [item for item in inst.manipulator_ranking if item not in picked_set]
    return tuple(picked + rest), picked_set


def _greedy_trace(inst: Instance, turns: Sequence[Agent]) -> AllocationSequence:
    """The greedy trace of the turn order ``turns``: a non-manipulator turn
    takes its agent's top remaining item, and a manipulator turn takes the
    top remaining item of the first non-manipulator at or after it, or its
    own once none is left."""
    choosers = list(turns)
    following = MANIPULATOR
    for t in range(len(turns) - 1, -1, -1):
        if turns[t] != MANIPULATOR:
            following = turns[t]
        choosers[t] = following
    return _allocate(inst, inst.view.prefs, turns, choosers)


def is_greedy(inst: Instance, seq: Sequence[Step]) -> bool:
    """Is this (partial) trace greedy?

    At every manipulator step the pick must be the most preferred remaining
    item of the next non-manipulator in the trace's own remaining turns, or
    the manipulator's own best remaining item when no non-manipulator turn
    follows.  Raises ``ValueError`` on an infeasible trace.
    """
    if not trace_feasible(inst, seq):
        raise ValueError("greediness is only defined for feasible traces")
    return tuple(map(tuple, seq)) == _greedy_trace(inst, [agent for _, agent in seq])
