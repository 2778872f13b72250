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
Python ints; the table is returned with each utility as a ``Fraction``,
made once per stored state.  Allocated item sets (byte masks over the
instance's integer view) are carried stage-to-stage during construction and
rebuilt later by replaying backpointers through the same stage step.
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
    Step,
    _resolve_budget,
)
from .model import MANIPULATOR, Instance
from .policy import decompose


class DPState(NamedTuple):
    x: int
    y: int
    last_rank: tuple[int, ...]


class DPEntry(NamedTuple):
    utility: Fraction
    pred: DPState | None
    q: int


def _stage_tops(inst: Instance, agent: int, taken: bytes | bytearray, count: int) -> list[int]:
    """The stage step: the first ``count`` items of ``agent``'s ranking not
    ``taken``, as item indices.  A segment with ``q`` manipulator
    turns gives the manipulator the first ``q`` of them and the stage agent
    the next one."""
    first_free = inst.view.first_free
    pref = inst.view.prefs[agent]
    tops: list[int] = []
    pos = -1
    for _ in range(count):
        pos = first_free(pref, taken, pos + 1)
        tops.append(pref[pos])
    return tops


def _build(
    inst: Instance, budget: int
) -> tuple[dict[DPState, DPEntry], dict[DPState, tuple[int, bytes]]]:
    """Fill the table; returns it plus, for each state of the final stage,
    its utility as an integer weight and its allocated-item set (needed to
    complete solutions).  Raises :class:`BudgetExceeded` when the table
    would store more than ``budget`` states."""
    dec = decompose(inst.policy)
    core = dec.core
    n = inst.n_agents
    m = inst.m
    view = inst.view
    weight = view.weight
    base = DPState(0, 0, (0,) * (n - 1))
    # Entries hold integer weights until the table is returned.
    table: dict[DPState, DPEntry] = {base: DPEntry(0, None, 0)}
    masks: dict[DPState, bytes] = {base: bytes(m)}
    for x in range(1, dec.m_prime + 1):
        stage_agent = core[x - 1]
        coord = stage_agent - 2
        k_x = dec.k_prefix[x]
        rank = view.rank[stage_agent]
        new_masks: dict[DPState, bytes] = {}
        for pred_state, pred_taken in masks.items():
            pred_utility = table[pred_state].utility
            y0 = pred_state.y
            remaining = m - (x - 1) - y0
            q_max = min(k_x - y0, remaining - 1)
            if q_max < 0:
                continue
            tops = _stage_tops(inst, stage_agent, pred_taken, q_max + 1)
            last = pred_state.last_rank
            taken = bytearray(pred_taken)
            taken_util = 0
            for q, received in enumerate(tops):
                taken[received] = 1
                state = DPState(
                    x, y0 + q, last[:coord] + (rank[received] + 1,) + last[coord + 1 :]
                )
                cand_utility = pred_utility + taken_util
                incumbent = table.get(state)
                if incumbent is None and len(table) >= budget:
                    raise BudgetExceeded(
                        f"dynamic program would store more than {budget} states; raise the budget to continue"
                    )
                if (
                    incumbent is None
                    or cand_utility > incumbent.utility
                    or (
                        cand_utility == incumbent.utility
                        and (q, pred_state) < (incumbent.q, incumbent.pred)
                    )
                ):
                    table[state] = DPEntry(cand_utility, pred_state, q)
                    new_masks[state] = bytes(taken)
                taken_util += weight[received]
        masks = new_masks
    final = {state: (table[state].utility, taken) for state, taken in masks.items()}
    scale = view.scale
    # In place, so that the weights' entries are freed as they are replaced.
    for state, e in table.items():
        table[state] = DPEntry(Fraction(e.utility, scale), e.pred, e.q)
    return table, final


def replay_state(
    inst: Instance, table: dict[DPState, DPEntry], state: DPState
) -> AllocationSequence:
    """Reconstruct the stored partial trace realising ``state``."""
    chain: list[DPState] = []
    while table[state].pred is not None:
        chain.append(state)
        state = table[state].pred
    chain.reverse()
    core = decompose(inst.policy).core
    taken = bytearray(inst.m)
    steps: list[Step] = []
    for node in chain:
        stage_agent = core[node.x - 1]
        tops = _stage_tops(inst, stage_agent, taken, table[node].q + 1)
        # The manipulator takes every item of the segment but the last, which
        # goes to the stage agent.
        steps.extend((inst.items[i], MANIPULATOR) for i in tops[:-1])
        steps.append((inst.items[tops[-1]], stage_agent))
        for i in tops:
            taken[i] = 1
    return tuple(steps)


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
    pref1 = inst.view.prefs[MANIPULATOR]
    weight = inst.view.weight

    def completion(taken: bytes) -> list[int]:
        """The manipulator's picks after the last segment: every item left."""
        return [i for i in pref1 if not taken[i]]

    totals = {
        state: utility + sum(weight[i] for i in completion(taken))
        for state, (utility, taken) in final.items()
    }
    # the best total; among equal totals the smallest state
    best_state = min(totals, key=lambda state: (-totals[state], state))
    best_total = Fraction(totals[best_state], inst.view.scale)
    seq = replay_state(inst, table, best_state) + tuple(
        (inst.items[i], MANIPULATOR) for i in completion(final[best_state][1])
    )
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
