"""The DP's stage step as a plain loop over q, for the tests.

:func:`reference_build` runs the recurrence directly: every predecessor
tries every q from 0 to its q_max and keeps a candidate when it beats the
stored one, with one dict lookup per try.  Its work per predecessor grows
with the chain length, but its stage dicts, each mapping a key to its
weight, its predecessor's key and its q, are the specification of the
chain pass in :func:`seqmanip.dp._build`: the same keys, the same entries
and the same insertion order.  Its completion pops every free item of
each final state, one at a time; ``_build``'s totals must equal it.
"""

from __future__ import annotations

from seqmanip.dp import DPTable
from seqmanip.engine import BudgetExceeded
from seqmanip.model import Instance


def reference_build(inst: Instance, budget: int) -> tuple[list[dict[int, tuple[int, int, int]]], dict[int, int]]:
    dec = inst.decomposition
    layout = DPTable(inst, budget)  # the key fields only
    m = inst.m
    view = inst.view
    weight, bit = view.weight, view.bits
    low, y_shift, shifts = layout.low, layout.y_shift, layout.shifts
    y_unit = 1 << y_shift
    # placed[a][i]: agent a's key field holding item i as its last pick;
    # above[a][r]: agent a's top r items, as a bit set.
    placed, above = {}, {}
    for agent, shift in shifts.items():
        placed[agent] = [(r + 1) << shift for r in view.rank[agent]]
        above[agent] = sets = [0]
        for i in view.prefs[agent]:
            sets.append(sets[-1] | bit[i])
    stages: list[dict[int, tuple[int, int, int]]] = [{0: (0, 0, 0)}]
    stage = stages[0]
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
        stages.append(new_stage)
        stored += len(new_stage)
        stage = new_stage
    every = (1 << m) - 1
    final: dict[int, int] = {}
    for key, (total, _, _) in stage.items():
        taken = 0
        for agent, shift in shifts.items():
            taken |= above[agent][(key >> shift) & low]
        # The manipulator takes every item left after the last segment.
        free = every & ~taken
        while free:
            total += weight[(free & -free).bit_length() - 1]
            free &= free - 1
        final[key] = total
    return stages, final
