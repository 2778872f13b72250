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
starts at its last rank and only moves forward.  A stored state's trace is
rebuilt as the greedy trace of its chain's turns
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


def _build(inst: Instance, budget: int) -> tuple[DPTable, dict[int, tuple[int, int]]]:
    """Fill the table; returns it plus, for the key of each state of the
    final stage, its utility as an integer weight and its allocated-item set
    as an int with one bit per item index (needed to complete solutions).
    Raises :class:`BudgetExceeded` when the table would store more than
    ``budget`` states.

    A candidate's key is its predecessor's with ``y`` raised by q and the
    stage agent's field replaced.  The stage agent's scan starts at its
    last rank, skips the items the other agents rank above their last
    picks, and needs no marking: every pick of the segment lies further on
    in its ranking."""
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
    stage = table.stages[0]
    stored = 1
    for x in range(1, len(dec.core) + 1):
        stage_agent = dec.core[x - 1]
        k_x = dec.k_prefix[x]
        pref = view.prefs[stage_agent]
        agent_placed = placed[stage_agent]
        shift = shifts[stage_agent]
        clear = ~(low << shift)
        others = [(shifts[agent], above[agent]) for agent in shifts if agent != stage_agent]
        new_stage: dict[int, tuple[int, int, int]] = {}
        for pred_key, (pred_weight, _, _) in stage.items():
            taken = 0
            for other_shift, other_above in others:
                taken |= other_above[(pred_key >> other_shift) & low]
            y0 = pred_key >> y_shift
            pos = (pred_key >> shift) & low
            key = pred_key & clear
            cand_weight = pred_weight
            for q in range(min(k_x - y0, m - x - y0) + 1):
                while taken & bit[pref[pos]]:
                    pos += 1
                received = pref[pos]
                cand = key + agent_placed[received]
                incumbent = new_stage.get(cand)
                if incumbent is None and stored + len(new_stage) >= budget:
                    raise BudgetExceeded(
                        f"dynamic program would store more than {budget} states; raise the budget to continue"
                    )
                if (
                    incumbent is None
                    or cand_weight > incumbent[0]
                    or (cand_weight == incumbent[0] and (q, pred_key) < (incumbent[2], incumbent[1]))
                ):
                    new_stage[cand] = (cand_weight, pred_key, q)
                cand_weight += weight[received]
                key += y_unit
                pos += 1
        table.stages.append(new_stage)
        stored += len(new_stage)
        stage = new_stage
    final: dict[int, tuple[int, int]] = {}
    for key, (w, _, _) in stage.items():
        taken = 0
        for agent, shift in shifts.items():
            taken |= above[agent][(key >> shift) & low]
        final[key] = (w, taken)
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
    weight = inst.view.weight
    every = (1 << inst.m) - 1
    # The manipulator takes every item left after the last segment.
    totals = {}
    for key, (total, taken) in final.items():
        free = every & ~taken
        while free:
            total += weight[(free & -free).bit_length() - 1]
            free &= free - 1
        totals[key] = total
    # the best total; among equal totals the smallest state (keys order as states do)
    best = max(totals.values())
    best_key = min(key for key, total in totals.items() if total == best)
    turns = _chain_turns(table, len(table.stages) - 1, best_key)
    seq = engine._greedy_trace(inst, turns + [MANIPULATOR] * (inst.m - len(turns)))
    solution = engine._certify(inst, seq, best, "the optimal chain's strategy does not recover its bundle")
    return Solution(solution.strategy, seq, solution.bundle), table
