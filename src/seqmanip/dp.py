"""Polynomial-time best response via dynamic programming over segments.

States are tuples (x, y, i2..in): segments completed, items taken by the
manipulator so far, and the rank of each non-manipulator's last item in its
own ranking (0 while it has received nothing).  Stage x appends one segment:
q manipulator picks of the stage agent's favourite remaining items followed
by that agent's own pick.  Every stored state therefore replays to a greedy
partial trace whose turn order is dominated by the instance's policy, and
the best completion over the final stage is the exact optimum.

The table is sparse: only reachable states are materialised.  An entry
stores the best utility reaching its state, the predecessor state and the
segment's q; of two candidates with equal utility the smaller (q, pred)
wins.  Utilities are the instance view's integer weights (each utility
times ``view.scale``), so every sum and comparison is on Python ints.
Within a stage a state is one int key and an entry is a tuple of ints; the
returned :class:`DPTable` decodes a :class:`DPState`, its :class:`DPEntry`
and the ``Fraction`` utility only when one is read.

A state's allocated items are exactly the items that the agents 2..n rank
above their last picks: each agent took its top remaining item, and each
manipulator pick was the stage agent's top remaining item before that
agent's pick.  So the build carries no allocated set.  It ORs precomputed
prefix bit sets of the other agents' rankings, and the stage agent's scan
starts at its last rank and only moves forward.

A stage's step groups its predecessors, then walks each group once, with
O(1) amortized work per stored state.  The predecessors that agree on
every field but y and the stage agent's form a group.  They share the
other agents' allocated set T, so the stage agent scans one chain: its
ranking without T's items.  A state of stage x holds x + y allocated
items, so within a group y fixes how far along the chain a predecessor's
scan starts and which chain item a candidate's stage agent receives.  A
candidate's key thus depends on its group and its y alone, and every
predecessor of stage x reaches up to the same y, ``min(k_x, m - x)``.
With S(y) the weight of the chain items before the one at y, the
candidate at y takes the best ``w_pred + S(y) - S(y_pred)`` over the
group's predecessors with ``y_pred <= y``: a running maximum along the
chain.  The walk is one loop over y from the group's lowest y.  Before it
writes the candidate at y, the predecessors at y take over the running
maximum in key order; two can share a y, with different stage-agent
ranks.  On a tie the larger y_pred (the smaller q) wins, then the smaller
key, so the second of two at one y never displaces the first.

The last stage's walk also completes each final state in O(1) amortized
work.  The manipulator takes the items left after the last segment: the
chain items past the stage agent's pick.  So a group's free weight, its
chain's from the first predecessor's scan on, is summed once, and each
chain item's weight comes off as the stage agent receives it.

The walks store a stage's keys group by group, in the order the groups'
first predecessors were stored, and by ascending y within a group.  The
plain recurrence (``tests/_reference_dp.py``) stores a key at the first
predecessor, in stored order, whose loop over q reaches it: by induction,
in the lexicographic order of the states' smallest q sequences.  Two
facts, each by induction over the stages, make the orders equal:

- A stage's states are closed under the componentwise minimum of their
  last ranks.  Let u and v come from p_u and p_v, u's stage-agent rank
  the lower.  The minimum p of p_u and p_v is stored, its T lies within
  u's, so u's stage-agent item is outside it and past p's rank: p
  reaches the minimum of u and v, whose items lie within u's.
- If u's last ranks are at most v's, u's smallest q sequence is at most
  v's: the minimum of p_u and p_v (v's predecessor on its smallest
  sequence) is stored, reaches u and by induction precedes p_v, or is
  p_v, and then u's q is at most v's.

A group's predecessors differ only in the stage agent's rank, so they
are stored by ascending rank, hence ascending y.  The first reaches every
candidate of the group, in ascending y, and the plain loop stores the
group's keys in one block at its turn.  So the walk's sort of a group
meets sorted input.

A stored state's trace is rebuilt as the greedy trace of its chain's turns
(:func:`engine._greedy_trace`): per entry, q manipulator turns and then the
stage agent's turn.  :func:`best_response_with_table` is the one solver: it
returns the optimum together with the table, and stops with
:class:`BudgetExceeded` once the table would hold more states than its
budget.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from fractions import Fraction
from typing import NamedTuple

from . import engine
from .engine import (
    DEFAULT_STATE_BUDGET,
    AllocationSequence,
    BudgetExceeded,
    Solution,
    _resolve_budget,
)
from .model import MANIPULATOR, Agent, Instance


class DPState(NamedTuple):
    x: int
    y: int
    last_rank: tuple[int, ...]


class DPEntry(NamedTuple):
    utility: Fraction
    pred: DPState | None
    q: int


class DPTable(Mapping[DPState, DPEntry]):
    """The stored states of one solve, read-only, in the order the build
    stored them.

    ``stages[x]`` maps the key of each state of stage x to its integer
    weight, its predecessor's key in stage x - 1 and its q.  A state
    ``(x, y, i2..in)`` is keyed by one int: ``y`` in the top bits, then
    each last rank in a field ``m.bit_length()`` bits wide, at
    ``shifts[agent]``.  Every field is at most m, so keys order as their
    states do.  ``core`` is the policy's stage agents, for replays."""

    def __init__(self, inst: Instance, core: tuple[Agent, ...]):
        n = inst.n_agents
        bits = inst.m.bit_length()
        self.core = core
        self.stages: list[dict[int, tuple[int, int, int]]] = [{0: (0, 0, 0)}]
        self.low = (1 << bits) - 1
        self.y_shift = (n - 1) * bits
        self.shifts = {agent: (n - agent) * bits for agent in range(2, n + 1)}
        self._m = inst.m
        self._scale = inst.view.scale

    def _state(self, x: int, key: int) -> DPState:
        return DPState(x, key >> self.y_shift, tuple([(key >> s) & self.low for s in self.shifts.values()]))

    def locate(self, state: object) -> tuple[int, int]:
        """The stage and key of a stored ``state``; ``KeyError`` otherwise."""
        try:
            x, y, last_rank = state  # type: ignore[misc]
            if len(last_rank) == len(self.shifts) and all(0 <= r <= self._m for r in (y, *last_rank)):
                key = y << self.y_shift
                for shift, r in zip(self.shifts.values(), last_rank):
                    key |= r << shift
                if 0 <= x < len(self.stages) and key in self.stages[x]:
                    return x, key
        except (TypeError, ValueError):
            pass
        raise KeyError(state)

    def __getitem__(self, state: DPState) -> DPEntry:
        x, key = self.locate(state)
        weight, pred, q = self.stages[x][key]
        return DPEntry(Fraction(weight, self._scale), self._state(x - 1, pred) if x else None, q)

    def __iter__(self) -> Iterator[DPState]:
        for x, stage in enumerate(self.stages):
            for key in stage:
                yield self._state(x, key)

    def __len__(self) -> int:
        return sum(map(len, self.stages))

    def _pairs(self) -> Iterator[tuple[DPState, DPEntry]]:
        """Every (state, entry) in one walk over the stages, each state
        decoded once: an entry's predecessor is taken from the states of
        the stage before."""
        decoded: dict[int, DPState] = {}
        for x, stage in enumerate(self.stages):
            previous, decoded = decoded, {}
            for key, (weight, pred, q) in stage.items():
                decoded[key] = state = self._state(x, key)
                yield state, DPEntry(Fraction(weight, self._scale), previous[pred] if x else None, q)

    def items(self) -> ItemsView[DPState, DPEntry]:
        return _Items(self)

    def values(self) -> ValuesView[DPEntry]:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self) -> Iterator[tuple[DPState, DPEntry]]:
        return self._mapping._pairs()


class _Values(ValuesView):
    def __iter__(self) -> Iterator[DPEntry]:
        return (entry for _, entry in self._mapping._pairs())


def _build(inst: Instance, budget: int) -> tuple[DPTable, dict[int, int]]:
    """Fill the table; returns it plus, for the key of each state of the
    final stage, its complete total as an integer weight: the manipulator
    takes every item left after the last segment.  Raises
    :class:`BudgetExceeded` when the table would store more than
    ``budget`` states.

    A stage takes two steps.  First one pass over the predecessor keys
    puts each key into its group.  Then each group, in the order the
    groups first appear, is walked once: T from its first member, the
    members sorted by (y, key), and one loop over y.  The budget is
    checked before each group's block of new keys."""
    dec = inst.decomposition
    table = DPTable(inst, dec.core)
    m = inst.m
    view = inst.view
    weight, bit = view.weight, view.bits
    low, y_shift, shifts = table.low, table.y_shift, table.shifts
    y_unit = 1 << y_shift
    # placed[a][i]: agent a's key field holding item i as its last pick;
    # above[a][r]: agent a's top r items, as a bit set.
    placed, above = {}, {}
    for agent, shift in shifts.items():
        placed[agent] = [(r + 1) << shift for r in view.rank[agent]]
        above[agent] = sets = [0]
        for i in view.prefs[agent]:
            sets.append(sets[-1] | bit[i])
    # Per stage agent: its ranking, its placed fields, its field's shift, the
    # mask that keeps only the others' fields, and the others' fields with
    # their prefix sets.
    steps = {}
    for agent, shift in shifts.items():
        others = [(shifts[other], above[other]) for other in shifts if other != agent]
        steps[agent] = (view.prefs[agent], placed[agent], shift, ~(low << shift) & (y_unit - 1), others)
    stage = table.stages[0]
    stored = 1
    # each final state's total; with no stage the base state takes every item
    final = {} if dec.core else {0: sum(weight)}
    for x in range(1, len(dec.core) + 1):
        pref, agent_placed, shift, group_mask, others = steps[dec.core[x - 1]]
        y_top = min(dec.k_prefix[x], m - x)
        last = x == len(dec.core)
        new_stage: dict[int, tuple[int, int, int]] = {}
        groups: dict[int, list[int]] = {}
        for pred_key in stage:
            members = groups.get(pred_key & group_mask)
            if members is None:
                groups[pred_key & group_mask] = [pred_key]
            else:
                members.append(pred_key)
        # a key past the top y, which no loop over y reaches
        end = (y_top + 1) << y_shift
        for group_key, members in groups.items():
            taken = 0
            for other_shift, other_above in others:
                taken |= other_above[(members[0] >> other_shift) & low]
            # y is a key's top field, so keys sort by (y, key)
            members.sort()
            lowest_y = members[0] >> y_shift
            if stored + len(new_stage) + y_top + 1 - lowest_y > budget:
                raise BudgetExceeded(
                    f"dynamic program would store more than {budget} states; raise the budget to continue"
                )
            pos = (members[0] >> shift) & low
            if last:
                # the items the first member leaves free: its chain from its scan on
                free = sum([weight[i] for i in pref[pos:] if not taken & bit[i]])
            members.append(end)
            ahead = iter(members)
            member_key = next(ahead)
            key = group_key + (lowest_y << y_shift)
            cand_weight, start = -1, lowest_y
            for y in range(lowest_y, y_top + 1):
                # ties: the larger start (smaller q), then the smaller key
                while member_key >> y_shift == y:
                    member_weight = stage[member_key][0]
                    if member_weight > cand_weight or (member_weight == cand_weight and start != y):
                        cand_weight, pred, start = member_weight, member_key, y
                    member_key = next(ahead)
                received = pref[pos]
                while taken & bit[received]:
                    pos += 1
                    received = pref[pos]
                pos += 1
                received_weight = weight[received]
                new_stage[key + agent_placed[received]] = (cand_weight, pred, y - start)
                if last:
                    free -= received_weight
                    final[key + agent_placed[received]] = cand_weight + free
                cand_weight += received_weight
                key += y_unit
        table.stages.append(new_stage)
        stored += len(new_stage)
        stage = new_stage
    return table, final


def _chain_turns(table: DPTable, x: int, key: int) -> list[Agent]:
    """The turn order of the stored chain ending at stage ``x``'s ``key``:
    per entry, q manipulator turns and then the stage agent's turn."""
    turns: list[Agent] = []
    while x:
        _, key, q = table.stages[x][key]
        turns.append(table.core[x - 1])
        turns.extend([MANIPULATOR] * q)
        x -= 1
    turns.reverse()
    return turns


def replay_state(inst: Instance, table: DPTable, state: DPState) -> AllocationSequence:
    """Reconstruct the stored partial trace realising ``state``."""
    return engine._greedy_trace(inst, _chain_turns(table, *table.locate(state)))


def best_response_with_table(inst: Instance, budget: int | None = None) -> tuple[Solution, DPTable]:
    """The manipulator's exact optimum (strategy, trace, bundle, utility) and
    the table of every reachable state.

    The solution's ``sequence`` is the greedy trace of the optimal chain's
    turn order, a policy dominated by the instance's.  It can differ from
    ``engine.execute(inst, strategy)`` but gives the same bundle.

    Raises :class:`BudgetExceeded` when the table would store more than
    ``budget`` states (default 10**7, overridable via the
    ``SEQMANIP_BUDGET`` environment variable).
    """
    table, final = _build(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))
    # the best total; among equal totals the smallest state (keys order as states do)
    best = max(final.values())
    best_key = min(key for key, total in final.items() if total == best)
    turns = _chain_turns(table, len(table.stages) - 1, best_key)
    seq = engine._greedy_trace(inst, turns + [MANIPULATOR] * (inst.m - len(turns)))
    solution = engine._certify(inst, seq, best, "the optimal chain's strategy does not recover its bundle")
    return Solution(solution.strategy, seq, solution.bundle), table
