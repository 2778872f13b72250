"""The paper's trace definitions and lemma operations, for the tests.

No solver and no command needs these; the tests use them to check the
paper's definitions and lemmas on small instances: feasibility step by
step and with a witness strategy, the considered-by test, the invariance
relation between partial traces, prefix splicing, and moving a
manipulator turn later.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from seqmanip.engine import AllocationSequence, PickingStrategy, Step, strategy_from_sequence, trace_feasible
from seqmanip.model import MANIPULATOR, Agent, Instance, Item
from seqmanip.policy import Policy


def trace_feasible_stepwise(inst: Instance, seq: Sequence[Step]) -> bool:
    """Reference for :func:`seqmanip.engine.trace_feasible`: the definition
    checked one step at a time.  Each item must be known and not yet taken,
    each agent in 1..n, and each non-manipulator step must take the agent's
    top remaining item, found by scanning its ranking from the top.  So
    the walk is quadratic in the trace's length."""
    view = inst.view
    taken = bytearray(inst.m)
    for item, agent in seq:
        i = view.index.get(item)
        if i is None or taken[i] or agent not in view.prefs:
            return False
        if agent != MANIPULATOR:
            pref = view.prefs[agent]
            j = 0
            while taken[pref[j]]:
                j += 1
            if pref[j] != i:
                return False
        taken[i] = 1
    return True


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


def move_manipulator_turn(policy: Sequence[Agent], src: int, dst: int) -> Policy:
    """Move the manipulator turn at 1-based position ``src`` so it lands at
    1-based position ``dst`` of the resulting policy."""
    if policy[src - 1] != MANIPULATOR:
        raise ValueError(f"position {src} holds agent {policy[src - 1]}, not the manipulator")
    if not 1 <= dst <= len(policy):
        raise ValueError(f"target position {dst} out of range 1..{len(policy)}")
    out = list(policy)
    del out[src - 1]
    out.insert(dst - 1, MANIPULATOR)
    return tuple(out)
