"""The paper's trace definitions and lemma operations, for the tests.

No solver and no command needs these; the tests use them to check the
paper's definitions and lemmas on small instances.  Feasibility, greediness
and domination are each written once, step by step from the definition and
independent of the package's code: :func:`trace_feasible_stepwise`,
:func:`is_greedy_stepwise` and :func:`dominates`.  The rest are lemma
operations: feasibility with its witness strategy, the replay of a stored DP
state, the considered-by test, the invariance relation between partial
traces, prefix splicing, and moving a manipulator turn later.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

from seqmanip import engine
from seqmanip.dp import DPState
from seqmanip.engine import AllocationSequence, PickingStrategy, Step
from seqmanip.model import MANIPULATOR, Agent, Instance, Item
from seqmanip.policy import Policy


def _top(pref: Sequence[int], taken: bytearray) -> int:
    """The first item index of ``pref`` not yet taken, scanned from the top."""
    j = 0
    while taken[pref[j]]:
        j += 1
    return pref[j]


def trace_feasible_stepwise(inst: Instance, seq: Sequence[Step]) -> bool:
    """Is the (partial) trace feasible against its own turn order?  The
    definition checked one step at a time: each item must be known and not
    yet taken, each agent an int in 1..n, and each non-manipulator step must
    take the agent's top remaining item.  Quadratic in the trace's length."""
    view = inst.view
    taken = bytearray(inst.m)
    for item, agent in seq:
        i = view.index.get(item)
        if i is None or taken[i] or type(agent) is not int or agent not in view.prefs:
            return False
        if agent != MANIPULATOR and _top(view.prefs[agent], taken) != i:
            return False
        taken[i] = 1
    return True


def is_greedy_stepwise(inst: Instance, seq: Sequence[Step]) -> bool:
    """Is the feasible (partial) trace greedy?  At each manipulator step the
    pick must be the top remaining item of the next non-manipulator in the
    trace's own remaining turns, or the manipulator's own top remaining item
    once no non-manipulator follows.  Raises ``ValueError`` on an infeasible
    trace."""
    if not trace_feasible_stepwise(inst, seq):
        raise ValueError("greediness is only defined for feasible traces")
    view = inst.view
    taken = bytearray(inst.m)
    for t, (item, agent) in enumerate(seq):
        i = view.index[item]
        if agent == MANIPULATOR:
            chooser = next((a for _, a in seq[t:] if a != MANIPULATOR), MANIPULATOR)
            if _top(view.prefs[chooser], taken) != i:
                return False
        taken[i] = 1
    return True


def dominates(p1: Sequence[Agent], p2: Sequence[Agent]) -> bool:
    """Does policy ``p1`` dominate ``p2``?  Both have the same length and the
    same core (the non-manipulator turns in order), and the i-th
    manipulator turn of ``p1`` comes no later than the i-th of ``p2``.
    Policies with different cores are unrelated, never an error."""
    if len(p1) != len(p2):
        return False
    if [a for a in p1 if a != MANIPULATOR] != [a for a in p2 if a != MANIPULATOR]:
        return False
    z1 = [pos for pos, a in enumerate(p1) if a == MANIPULATOR]
    z2 = [pos for pos, a in enumerate(p2) if a == MANIPULATOR]
    return all(a <= b for a, b in zip(z1, z2))


def replay_state(inst: Instance, entries: Mapping[DPState, Any], state: DPState) -> AllocationSequence:
    """The stored partial trace realising ``state``: the greedy trace of its
    chain's turns, per entry q manipulator turns and then the stage agent's,
    found by following the predecessors of ``entries`` (a decoded table,
    ``_util.decode_table``); ``KeyError`` when ``state`` is not stored."""
    turns: list[Agent] = []
    core = inst.decomposition.core
    entry = entries[state]
    for x in range(state.x, 0, -1):
        turns.append(core[x - 1])
        turns.extend([MANIPULATOR] * entry.q)
        entry = entries[entry.pred]
    turns.reverse()
    return engine._steps(inst, turns, engine._greedy(inst, turns))


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
    if not trace_feasible_stepwise(inst, seq):
        return False, None
    if len(seq) == inst.m:
        return True, witness_strategy(inst, seq)
    return True, None


def witness_strategy(inst: Instance, seq: Sequence[Step]) -> PickingStrategy:
    """The picking strategy associated with a trace: the manipulator's
    items in pick order, then the rest in its own order."""
    picked = [item for item, agent in seq if agent == MANIPULATOR]
    return tuple(picked + [item for item in inst.manipulator_ranking if item not in picked])


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
    if len(seq) != inst.m or not trace_feasible_stepwise(inst, seq):
        raise ValueError("base trace must be complete and feasible")
    if not invariance_related(tuple(seq[:i]), tuple(replacement)):
        raise ValueError("replacement prefix is not invariance-related to the original")
    result = tuple(replacement) + tuple(seq[i:])
    if not trace_feasible_stepwise(inst, result):
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
