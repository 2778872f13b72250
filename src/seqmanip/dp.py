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
While a stage is built, its states are two parallel lists, int keys and
weights, and a predecessor is an index into the previous stage's lists.
A finished stage keeps one ``array('Q')`` of ``pred_index << bits | q``
per state (``bits = m.bit_length()``; q is at most m), about 9 bytes per
stored state, and the previous stage's lists are dropped.  The last
stage keeps only its best total and that state's index: the highest
total, then the smallest key.  A solve replays its chain from these
arrays alone.  The returned :class:`DPTable` decodes a :class:`DPState`,
its :class:`DPEntry` and the ``Fraction`` utility only when the mapping is
first read: it runs the build again, keeping each stage's keys and
weights, and checks that the rebuild packs the same arrays.

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
group's keys in one block at its turn.  So a group's members, in stored
order, are already in (y, key) order, and the walk sorts nothing.

A stored state's trace is rebuilt as the greedy trace of its chain's turns
(:func:`engine._greedy`): per entry, q manipulator turns and then the
stage agent's turn.  :func:`_optimum` is the solver on item indices: the
optimal chain's picks and their integer weight, uncertified.
:func:`best_response_with_table` wraps it: it certifies the picks
(:func:`engine._certify`), then returns the public solution together with
the table.  Both stop with :class:`BudgetExceeded` once the table would
hold more states than its budget.
"""

from __future__ import annotations

from array import array
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

    ``packed[x]`` holds, for the i-th state of stage x, its predecessor's
    index in stage x - 1 shifted left by ``bits``, plus its q.  A state
    ``(x, y, i2..in)`` is keyed by one int: ``y`` in the top bits, then
    each last rank in a field ``bits = m.bit_length()`` wide, at
    ``shifts[agent]``.  Every field is at most m, so keys order as their
    states do, and ``low`` masks one field or a q.  ``core`` is the
    policy's stage agents, for replays.  The first mapping read rebuilds
    the stages' keys and weights (see the module docstring)."""

    def __init__(self, inst: Instance, budget: int):
        n = inst.n_agents
        self.bits = bits = inst.m.bit_length()
        self.core = inst.decomposition.core
        self.packed: list[array] = [array("Q", [0])]
        self.low = (1 << bits) - 1
        self.y_shift = (n - 1) * bits
        self.shifts = {agent: (n - agent) * bits for agent in range(2, n + 1)}
        self._inst = inst
        self._budget = budget
        self._entries: dict[DPState, DPEntry] | None = None

    def _view(self) -> dict[DPState, DPEntry]:
        """Every stored state's entry, in stored order; on the first call,
        from a second build that keeps each stage's keys and weights."""
        if self._entries is None:
            rebuilt, _best, _best_index, (stage_keys, stage_weights, _totals) = _build(self._inst, self._budget, True)
            if rebuilt.packed != self.packed:
                raise RuntimeError("internal error: the dynamic program's rebuild stored a different table")
            scale, bits, low = self._inst.view.scale, self.bits, self.low
            entries: dict[DPState, DPEntry] = {}
            states: list[DPState] = []
            for x, (keys, weights, packed) in enumerate(zip(stage_keys, stage_weights, self.packed)):
                previous = states
                states = [
                    DPState(x, key >> self.y_shift, tuple([(key >> s) & low for s in self.shifts.values()]))
                    for key in keys
                ]
                for state, weight, code in zip(states, weights, packed):
                    entries[state] = DPEntry(Fraction(weight, scale), previous[code >> bits] if x else None, code & low)
            self._entries = entries
        return self._entries

    def __getitem__(self, state: DPState) -> DPEntry:
        return self._view()[state]

    def __iter__(self) -> Iterator[DPState]:
        return iter(self._view())

    def __len__(self) -> int:
        return sum(map(len, self.packed))

    def items(self) -> ItemsView[DPState, DPEntry]:
        return self._view().items()

    def values(self) -> ValuesView[DPEntry]:
        return self._view().values()


def _build(
    inst: Instance, budget: int, keep: bool = False
) -> tuple[DPTable, int, int, tuple[list[list[int]], list[list[int]], list[int]] | None]:
    """Fill the table; returns it, the best complete total of a final state
    as an integer weight (the manipulator takes every item left after the
    last segment) and that state's index in the last stage.  Raises
    :class:`BudgetExceeded` when the table would store more than
    ``budget`` states.  With ``keep`` it also returns every stage's keys
    and weights and every final state's total, in stored order.

    A stage takes two steps.  First one pass over the predecessor keys
    puts each key's index into its group.  Then each group, in the order
    the groups first appear, is walked once: T from its first member, the
    members in stored order, and one loop over y.  The budget is checked
    before each group's block of new keys."""
    dec = inst.decomposition
    table = DPTable(inst, budget)
    m = inst.m
    view = inst.view
    weight, bit = view.weight, view.bits
    low, y_shift, shifts, bits = table.low, table.y_shift, table.shifts, table.bits
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
    keys, weights = [0], [0]
    stored = 1
    # with no stage the base state takes every item
    best, best_key, best_index = (-1, 0, 0) if dec.core else (sum(weight), 0, 0)
    stage_keys, stage_weights, totals = [keys], [weights], [] if dec.core else [best]
    for x in range(1, len(dec.core) + 1):
        pref, agent_placed, shift, group_mask, others = steps[dec.core[x - 1]]
        y_top = min(dec.k_prefix[x], m - x)
        last = x == len(dec.core)
        # the last stage's keys and weights are needed only for a kept table
        store = keep or not last
        packed = array("Q")
        new_keys: list[int] = []
        new_weights: list[int] = []
        groups: dict[int, list[int]] = {}
        for index, pred_key in enumerate(keys):
            members = groups.get(pred_key & group_mask)
            if members is None:
                groups[pred_key & group_mask] = [index]
            else:
                members.append(index)
        # a member past the top y, which no loop over y reaches
        end = len(keys)
        keys.append((y_top + 1) << y_shift)
        for group_key, members in groups.items():
            first = keys[members[0]]
            taken = 0
            for other_shift, other_above in others:
                taken |= other_above[(first >> other_shift) & low]
            lowest_y = first >> y_shift
            if stored + len(packed) + y_top + 1 - lowest_y > budget:
                raise BudgetExceeded(
                    f"dynamic program would store more than {budget} states; raise the budget to continue"
                )
            pos = (first >> shift) & low
            if last:
                # the items the first member leaves free: its chain from its scan on
                free = sum([weight[i] for i in pref[pos:] if not taken & bit[i]])
            members.append(end)
            ahead = iter(members)
            member = next(ahead)
            member_y = lowest_y
            key = group_key + (lowest_y << y_shift)
            cand_weight, start = -1, lowest_y
            for y in range(lowest_y, y_top + 1):
                # ties: the larger start (smaller q), then the smaller key
                while member_y == y:
                    member_weight = weights[member]
                    if member_weight > cand_weight or (member_weight == cand_weight and start != y):
                        # pred_code + y packs the predecessor's index and q = y - start
                        cand_weight, pred_code, start = member_weight, (member << bits) - y, y
                    member = next(ahead)
                    member_y = keys[member] >> y_shift
                received = pref[pos]
                while taken & bit[received]:
                    pos += 1
                    received = pref[pos]
                pos += 1
                received_weight = weight[received]
                packed.append(pred_code + y)
                if last:
                    free -= received_weight
                    total = cand_weight + free
                    if total >= best and (total > best or key + agent_placed[received] < best_key):
                        best, best_key, best_index = total, key + agent_placed[received], len(packed) - 1
                    if keep:
                        totals.append(total)
                if store:
                    new_keys.append(key + agent_placed[received])
                    new_weights.append(cand_weight)
                cand_weight += received_weight
                key += y_unit
        keys.pop()
        table.packed.append(packed)
        stored += len(packed)
        keys, weights = new_keys, new_weights
        if keep:
            stage_keys.append(keys)
            stage_weights.append(weights)
    return table, best, best_index, (stage_keys, stage_weights, totals) if keep else None


def _chain_turns(table: DPTable, x: int, index: int) -> list[Agent]:
    """The turn order of the stored chain ending at stage ``x``'s
    ``index``-th state: per entry, q manipulator turns and then the stage
    agent's turn."""
    turns: list[Agent] = []
    bits, low = table.bits, table.low
    while x:
        code = table.packed[x][index]
        turns.append(table.core[x - 1])
        turns.extend([MANIPULATOR] * (code & low))
        index = code >> bits
        x -= 1
    turns.reverse()
    return turns


def replay_state(inst: Instance, table: DPTable, state: DPState) -> AllocationSequence:
    """Reconstruct the stored partial trace realising ``state``, following
    the entries' predecessors; ``KeyError`` when ``state`` is not stored."""
    turns: list[Agent] = []
    entry = table[state]
    for x in range(state[0], 0, -1):
        turns.append(table.core[x - 1])
        turns.extend([MANIPULATOR] * entry.q)
        entry = table[entry.pred]
    turns.reverse()
    return engine._steps(inst, turns, engine._greedy(inst, turns))


# What a chain whose picks fail the certificate says.
_BAD_CHAIN = "the optimal chain's strategy does not recover its bundle"


def _optimum(inst: Instance, budget: int) -> tuple[list[int], int, DPTable, list[Agent], list[int]]:
    """The manipulator's optimal picks (item indices, in order) and their
    integer weight, the table, and the optimal chain's turn order with the
    item index each of its turns takes in the chain's greedy trace.  The
    manipulator takes every turn past the chain.  ``budget`` is resolved,
    and nothing is certified."""
    table, best, best_index, _stages = _build(inst, budget)
    turns = _chain_turns(table, len(table.packed) - 1, best_index)
    turns += [MANIPULATOR] * (inst.m - len(turns))
    order = engine._greedy(inst, turns)
    return engine._picks(turns, order), best, table, turns, order


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
    picks, best, table, turns, order = _optimum(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))
    return engine._solution(inst, picks, best, _BAD_CHAIN, (turns, order)), table
