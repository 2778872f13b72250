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
wins.  During the build, utilities are the instance view's integer weights
(each utility times ``view.scale``), so every sum and comparison is on
Python ints.  Within a stage a state is one int key, and an entry's
:class:`DPState` and ``Fraction`` are made once per stored state.  The
stage agent's scan starts at its last rank: it picks greedily, so every
item it ranks higher was taken by then.  Allocated item sets (byte masks
over the instance's integer view) are carried stage-to-stage during
construction.  A stored state's trace is rebuilt as the greedy trace of its
chain's turns (:func:`engine._greedy_trace`): per entry, q manipulator turns
and then the stage agent's turn.
:func:`best_response_with_table` is the one solver: it returns the optimum
together with the table, and stops with :class:`BudgetExceeded` once the
table would hold more states than its budget.
"""

from __future__ import annotations

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
from .policy import decompose


class DPState(NamedTuple):
    x: int
    y: int
    last_rank: tuple[int, ...]


class DPEntry(NamedTuple):
    utility: Fraction
    pred: DPState | None
    q: int


def _build(
    inst: Instance, budget: int
) -> tuple[dict[DPState, DPEntry], dict[DPState, tuple[int, bytes]]]:
    """Fill the table; returns it plus, for each state of the final stage,
    its utility as an integer weight and its allocated-item set (needed to
    complete solutions).  Raises :class:`BudgetExceeded` when the table
    would store more than ``budget`` states.

    Within a stage a state ``(y, i2..in)`` is one int key: ``y`` in the top
    bits, then each last rank in a field ``m.bit_length()`` bits wide.  Every
    field is at most m, so keys order as their states do, and a candidate's
    key is its predecessor's with ``y`` raised by q and the stage agent's
    field replaced.  A stage's survivors become :class:`DPState` entries
    when the stage ends.  The stage agent's scan starts at its last rank:
    it picked greedily, so every item it ranks above its last pick was
    taken then."""
    dec = decompose(inst.policy)
    n = inst.n_agents
    m = inst.m
    view = inst.view
    weight = view.weight
    scale = view.scale
    bits = m.bit_length()
    low = (1 << bits) - 1
    y_shift = (n - 1) * bits
    y_unit = 1 << y_shift
    # Where each of i2..in sits in a key, and placed[a][i]: agent a's field
    # holding item i as its last pick.
    shifts = {agent: (n - agent) * bits for agent in range(2, n + 1)}
    placed = {agent: [(r + 1) << shifts[agent] for r in view.rank[agent]] for agent in set(dec.core)}
    base = DPState(0, 0, (0,) * (n - 1))
    table: dict[DPState, DPEntry] = {base: DPEntry(Fraction(0), None, 0)}
    # The previous stage: key -> (weight, pred key, q, allocated set).
    stage: dict[int, tuple[int, int, int, bytes]] = {0: (0, 0, 0, bytes(m))}
    states: dict[int, DPState] = {0: base}
    for x in range(1, dec.m_prime + 1):
        stage_agent = dec.core[x - 1]
        k_x = dec.k_prefix[x]
        pref = view.prefs[stage_agent]
        agent_placed = placed[stage_agent]
        shift = shifts[stage_agent]
        clear = ~(low << shift)
        new_stage: dict[int, tuple[int, int, int, bytes]] = {}
        for pred_key, (pred_weight, _, _, pred_taken) in stage.items():
            y0 = pred_key >> y_shift
            pos = (pred_key >> shift) & low
            key = pred_key & clear
            taken = bytearray(pred_taken)
            cand_weight = pred_weight
            for q in range(min(k_x - y0, m - x - y0) + 1):
                while taken[pref[pos]]:
                    pos += 1
                received = pref[pos]
                taken[received] = 1
                cand = key + agent_placed[received]
                incumbent = new_stage.get(cand)
                if incumbent is None and len(table) + len(new_stage) >= budget:
                    raise BudgetExceeded(
                        f"dynamic program would store more than {budget} states; raise the budget to continue"
                    )
                if (
                    incumbent is None
                    or cand_weight > incumbent[0]
                    or (cand_weight == incumbent[0] and (q, pred_key) < (incumbent[2], incumbent[1]))
                ):
                    new_stage[cand] = (cand_weight, pred_key, q, bytes(taken))
                cand_weight += weight[received]
                key += y_unit
                pos += 1
        new_states: dict[int, DPState] = {}
        for key, (w, pred_key, q, _) in new_stage.items():
            state = DPState(x, key >> y_shift, tuple([(key >> s) & low for s in shifts.values()]))
            new_states[key] = state
            table[state] = DPEntry(Fraction(w, scale), states[pred_key], q)
        stage, states = new_stage, new_states
    final = {states[key]: (w, taken) for key, (w, _, _, taken) in stage.items()}
    return table, final


def _chain_turns(inst: Instance, table: dict[DPState, DPEntry], state: DPState) -> list[Agent]:
    """The turn order of the stored chain ending at ``state``: per entry, q
    manipulator turns and then the stage agent's turn."""
    core = decompose(inst.policy).core
    turns: list[Agent] = []
    while (entry := table[state]).pred is not None:
        turns.append(core[state.x - 1])
        turns.extend([MANIPULATOR] * entry.q)
        state = entry.pred
    turns.reverse()
    return turns


def replay_state(
    inst: Instance, table: dict[DPState, DPEntry], state: DPState
) -> AllocationSequence:
    """Reconstruct the stored partial trace realising ``state``."""
    return engine._greedy_trace(inst, _chain_turns(inst, table, state))


def best_response_with_table(
    inst: Instance, budget: int | None = None
) -> tuple[Solution, dict[DPState, DPEntry]]:
    """The manipulator's exact optimum (strategy, trace, bundle, utility) and
    the table of every reachable state.

    Raises :class:`BudgetExceeded` when the table would store more than
    ``budget`` states (default 10**7, overridable via the
    ``SEQMANIP_BUDGET`` environment variable).
    """
    table, final = _build(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))
    weight = inst.view.weight
    # The manipulator takes every item left after the last segment.
    totals = {
        state: utility + sum(w for w, t in zip(weight, taken) if not t)
        for state, (utility, taken) in final.items()
    }
    # the best total; among equal totals the smallest state
    best_state = min(totals, key=lambda state: (-totals[state], state))
    best_total = Fraction(totals[best_state], inst.view.scale)
    turns = _chain_turns(inst, table, best_state)
    seq = engine._greedy_trace(inst, turns + [MANIPULATOR] * (inst.m - len(turns)))
    strategy = engine.strategy_from_sequence(inst, seq)
    bundle = engine.manipulator_bundle(inst, seq)
    if bundle.total_utility != best_total:
        raise RuntimeError("internal error: replayed trace utility disagrees with table")
    replayed = engine.manipulator_bundle(inst, engine.execute(inst, strategy))
    if replayed.items != bundle.items:
        raise RuntimeError(
            "internal error: associated strategy does not recover the optimal "
            "bundle on the original policy"
        )
    return Solution(strategy, seq, bundle), table
