"""Execution engine for sequential allocation.

Runs picking strategies against a policy and computes the greedy trace of
a turn order.  An allocation sequence is a tuple of ``(item, agent)``
steps.

Inside the package a trace is item indices: :func:`_allocate`, the one walk
over rankings outside the solvers' inner loops, gives the item index each
turn takes.  Executions (:func:`_execute`) and greedy traces
(:func:`_greedy`) run it, and :func:`_steps` names a trace's items where it
leaves the package.  :func:`_certify` is the solvers' one self-check.  A
solver claims the manipulator's picks, as item indices in order, and their
integer weight.  The certificate plays the strategy of those picks
(:func:`_strategy`: the picks, then the other items in the manipulator's
order) on the instance's own policy, and compares the picks executed and
their weight with the claim.
:func:`_solution` turns a certified claim into the public
:class:`Solution`, with names and one ``Fraction``.

The budget of a search (the DP's stored states, the oracles' expanded states
or policies) is resolved here, so that every solver shares one rule and one
:class:`BudgetExceeded`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import MANIPULATOR, Agent, Instance, Item, _IntegerView

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


def _weight(view: _IntegerView, picks: Iterable[int]) -> int:
    """The manipulator's total integer weight for the item indices ``picks``."""
    weight = view.weight
    return sum([weight[i] for i in picks])


def _utility(weight: int, scale: int) -> Fraction:
    """``Fraction(weight, scale)``, without its gcd when ``scale`` is 1."""
    return Fraction(weight) if scale == 1 else Fraction(weight, scale)


def manipulator_bundle(inst: Instance, seq: Sequence[Step]) -> Bundle:
    items = bundle_items(seq, MANIPULATOR)
    view = inst.view
    index = view.index
    return Bundle(items, _utility(_weight(view, [index[item] for item in items]), view.scale))


def execute(inst: Instance, strategy: Sequence[Item]) -> AllocationSequence:
    """Run the allocation mechanism under the manipulator's ``strategy``.

    Non-manipulator turns take the agent's most preferred remaining item per
    its truthful ranking; manipulator turns take the earliest remaining item
    of ``strategy``.  Pure function of its arguments.
    """
    view = inst.view
    if len(strategy) != inst.m or set(strategy) != view.index.keys():
        raise ValueError("picking strategy must be a permutation of the item set")
    index = view.index
    return _steps(inst, inst.policy, _execute(inst, [index[item] for item in strategy]))


def _execute(inst: Instance, strategy: Sequence[int]) -> list[int]:
    """The item index each turn of the instance's policy takes when the
    manipulator picks along ``strategy``, a permutation of the item
    indices, as the others do along their rankings."""
    return _allocate(inst, {**inst.view.prefs, MANIPULATOR: strategy}, inst.policy)


def _strategy(inst: Instance, picks: list[int]) -> list[int]:
    """The strategy of the manipulator's picks, item indices in order: the
    picks, then the other items in the manipulator's order."""
    chosen = set(picks)
    return picks + [i for i in inst.view.prefs[MANIPULATOR] if i not in chosen]


def _certify(inst: Instance, picks: list[int], weight: int, what: str) -> tuple[list[int], list[int]]:
    """The strategy of a solver's claim and its execution, once the claim
    holds: the manipulator picks the item indices ``picks``, in order,
    worth the integer ``weight``.

    The strategy is :func:`_strategy`'s.  Executed on the instance's own
    policy, the manipulator must pick exactly ``picks``, and their weight
    must be ``weight``; else the solver that made the claim has a bug:
    ``RuntimeError("internal error: <what>")``."""
    strategy = _strategy(inst, picks)
    order = _execute(inst, strategy)
    executed = _picks(inst.policy, order)
    if executed != picks or _weight(inst.view, executed) != weight:
        raise RuntimeError(f"internal error: {what}")
    return strategy, order


def _solution(
    inst: Instance, picks: list[int], weight: int, what: str, trace: tuple[Sequence[Agent], list[int]] | None = None
) -> Solution:
    """A solver's claim as its public :class:`Solution`, built only once
    :func:`_certify` has passed: the strategy and the manipulator's items
    named, and the one ``Fraction``.  The trace is the execution, unless
    the solver gives its own ``trace``: a turn order and the item index
    each of its turns takes."""
    strategy, order = _certify(inst, picks, weight, what)
    turns: Sequence[Agent] = inst.policy
    if trace is not None:
        turns, order = trace
    items = inst.items
    return Solution(
        tuple([items[i] for i in strategy]),
        _steps(inst, turns, order),
        Bundle(frozenset([items[i] for i in picks]), _utility(weight, inst.view.scale)),
    )


def _allocate(inst: Instance, prefs: dict[Agent, Sequence[int]], choosers: Sequence[Agent]) -> list[int]:
    """The item index each turn takes, when turn ``t`` takes the first item
    of ``prefs[choosers[t]]`` not yet in the byte mask ``taken``.  One
    monotone cursor per ranking keeps it linear in the number of items."""
    cursors = dict.fromkeys(prefs, 0)
    taken = bytearray(inst.m)
    order: list[int] = []
    for who in choosers:
        pref = prefs[who]
        cur = cursors[who]
        while taken[pref[cur]]:
            cur += 1
        cursors[who] = cur + 1
        i = pref[cur]
        taken[i] = 1
        order.append(i)
    return order


def _steps(inst: Instance, turns: Sequence[Agent], order: Sequence[int]) -> AllocationSequence:
    """The trace in which turn ``t``, taken by ``turns[t]``, takes item
    ``order[t]``: the item indices named."""
    items = inst.items
    return tuple([(items[i], agent) for i, agent in zip(order, turns)])


def _picks(turns: Sequence[Agent], order: Sequence[int]) -> list[int]:
    """The item indices that the manipulator's turns take, in order."""
    return [i for i, agent in zip(order, turns) if agent == MANIPULATOR]


def _greedy(inst: Instance, turns: Sequence[Agent]) -> list[int]:
    """The item index each turn takes in the greedy trace of the turn order
    ``turns``: a non-manipulator turn takes its agent's top remaining item,
    and a manipulator turn takes the top remaining item of the first
    non-manipulator at or after it, or its own once none is left."""
    choosers = list(turns)
    following = MANIPULATOR
    for t in range(len(turns) - 1, -1, -1):
        if turns[t] != MANIPULATOR:
            following = turns[t]
        choosers[t] = following
    return _allocate(inst, inst.view.prefs, choosers)
