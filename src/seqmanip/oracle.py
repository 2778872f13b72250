"""Ground-truth solvers for desk-scale instances.

Two independent exact methods pin down the manipulator's optimal utility,
and their agreement with each other and with the dynamic program is the
core cross-validation of this package.  One is the paper's structural
result: under any policy P, the optimum is the best greedy outcome over the
policies P dominates.  Domination is transitive, so the best optimum over
P's strict dominatees is the best greedy outcome over them, and the same
walk decides :func:`is_crucial`; :func:`_dominated` answers both from one
walk for a caller that asks both.  The other, the choice tree, goes turn by
turn over the allocated sets reachable so far: a non-manipulator turn is
forced and a manipulator turn branches over its picks.  No search recurses,
so only a budget limits an instance's length.  Every allocated set here is
an int with bit ``i`` set when item ``i`` is taken, and :func:`_top` is the
one scan for an agent's top remaining item in one.

Each oracle's core, :func:`_tree` and :func:`_dominated`, works on item
indices: it returns the manipulator's picks, in order, and their integer
weight, uncertified.  The public functions wrap a core, certify its picks
(:func:`engine._certify`), and only then build the ``Solution``.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import engine
from .engine import (
    DEFAULT_STATE_BUDGET,
    BudgetExceeded,
    Solution,
    _resolve_budget,
)
from .model import MANIPULATOR, Instance
from .policy import Policy

DEFAULT_POLICY_BUDGET = 10**6


def _top(pref: Sequence[int], taken: int, bits: Sequence[int]) -> int:
    """The first item index in ``pref`` that is not in the allocated set
    ``taken``; the caller guarantees one exists."""
    j = 0
    while taken & bits[pref[j]]:
        j += 1
    return pref[j]


def _reachable(inst: Instance, picks: Sequence[int], budget: int) -> list[set[int]]:
    """The allocated sets reachable before each turn and after the last,
    when every manipulator turn takes one of the item indices ``picks``.

    Raises :class:`BudgetExceeded` once the sets before the last turn number
    more than ``budget``.  The count is checked after each set's successors
    are added, so a layer that would outgrow the budget is never finished.
    """
    m = inst.m
    prefs, bits = inst.view.prefs, inst.view.bits
    pick_bits = [bits[i] for i in picks]
    layers = [{0}]
    count = 1
    for pos, agent in enumerate(inst.policy):
        if pos + 1 < m:
            room = budget - count
        else:  # the sets after the last turn are not counted
            room = math.inf if count <= budget else -1
        nxt: set[int] = set()
        add = nxt.add
        for taken in layers[pos]:
            if agent == MANIPULATOR:
                for bit in pick_bits:
                    if not taken & bit:
                        add(taken | bit)
            else:
                add(taken | bits[_top(prefs[agent], taken, bits)])
            if len(nxt) > room:
                raise BudgetExceeded(
                    f"search reached more than {budget} allocated sets; raise the budget to continue"
                )
        count += len(nxt)
        layers.append(nxt)
    return layers


# What picks that fail the certificate or the rank-bit check say.
_BAD_REBUILD = "rebuilt trace does not match the optimum of the backward pass"
_BAD_DOMINATED = "greedy strategy of the best dominated policy does not recover its bundle on the original policy"


def choice_tree_best(inst: Instance, budget: int | None = None) -> Solution:
    """Exact optimum by branching over every remaining item at every
    manipulator turn (non-manipulator turns are forced).

    Raises :class:`BudgetExceeded` once the allocated sets before the last
    turn number more than ``budget`` (default 10**7, overridable via the
    ``SEQMANIP_BUDGET`` environment variable).  Ties between optimal
    bundles break towards the bundle whose items rank lexicographically
    best in the manipulator's own ranking, making the result independent
    of exploration order (see :func:`_tree`).
    """
    picks, optimum = _tree(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))
    return engine._solution(inst, picks, optimum, _BAD_REBUILD)


def _tree(inst: Instance, budget: int) -> tuple[list[int], int]:
    """The choice tree's picks (item indices, in order) and their integer
    weight, the optimum; ``budget`` is resolved.

    A forward pass collects the allocated sets reachable before each turn,
    and a backward pass gives each set the best rest of its bundle.  Item
    ``i``'s key is its weight shifted left by m bits, plus bit ``m - 1 -
    r`` for its rank ``r`` in the manipulator's ranking.  Every bundle left
    from one allocated set has the same size, so the larger key sum is the
    larger weight or, on a tie, the bundle holding the better ranked item
    where the two differ: the lexicographically smallest sorted rank tuple.
    The rebuild takes, at each manipulator turn, the first item index on an
    optimal path; the picks' rank bits must be the optimum's low bits, else
    ``RuntimeError("internal error: ...")``.
    """
    m = inst.m
    view = inst.view
    rank1 = view.rank[MANIPULATOR]
    prefs = view.prefs
    policy = inst.policy
    bits = view.bits
    key = [(w << m) | (1 << (m - 1 - r)) for w, r in zip(view.weight, rank1)]
    key_bits = list(zip(key, bits))
    layers = _reachable(inst, range(m), budget)
    best = dict.fromkeys(layers[m], 0)  # allocated set -> best key sum of the rest of the bundle
    for pos in range(m - 1, -1, -1):
        agent = policy[pos]
        if agent == MANIPULATOR:
            for taken in layers[pos]:
                top = 0
                for k, bit in key_bits:
                    if not taken & bit:
                        total = k + best[taken | bit]
                        if total > top:
                            top = total
                best[taken] = top
        else:
            pref = prefs[agent]
            for taken in layers[pos]:
                best[taken] = best[taken | bits[_top(pref, taken, bits)]]
    picks = []
    ranks = taken = 0
    for agent in policy:
        if agent == MANIPULATOR:
            pick = next(
                i for i in range(m) if not taken & bits[i] and key[i] + best[taken | bits[i]] == best[taken]
            )
            picks.append(pick)
            ranks += 1 << (m - 1 - rank1[pick])
        else:
            pick = _top(prefs[agent], taken, bits)
        taken |= bits[pick]
    if ranks != best[0] & ((1 << m) - 1):
        raise RuntimeError(f"internal error: {_BAD_REBUILD}")
    return picks, best[0] >> m


def dominated_greedy_best(inst: Instance, budget: int | None = None) -> tuple[Solution, Policy]:
    """Best greedy outcome over every policy dominated by the instance's own.

    Returns the solution replayed on the original instance together with the
    dominated policy achieving it (the certificate policy); ties break by
    enumeration order, i.e. the lexicographically first position vector.
    Raises :class:`BudgetExceeded` past ``budget`` policies.
    """
    picks, weight, policy, _crucial = _dominated(inst, _resolve_budget(budget, DEFAULT_POLICY_BUDGET))
    return engine._solution(inst, picks, weight, _BAD_DOMINATED), policy


def is_crucial(inst: Instance, budget: int | None = None) -> bool:
    """Is every strictly dominated policy strictly worse at the optimum?

    Vacuously true when the policy has no strict dominatee.  A strict
    dominatee's optimum is the best greedy outcome over the policies it
    dominates, which are strict dominatees too: domination is transitive,
    and no strict dominatee dominates the instance's policy.  So the policy
    is crucial exactly when its own greedy outcome beats every strict
    dominatee's.  ``budget`` caps only the dominated policies walked, as in
    :func:`dominated_greedy_best`.
    """
    best_weight, _policy, strict_weight = _walk(inst, _resolve_budget(budget, DEFAULT_POLICY_BUDGET))
    return strict_weight < best_weight


def _dominated(inst: Instance, budget: int) -> tuple[list[int], int, Policy, bool]:
    """The greedy picks (item indices, in order) of the best dominated
    policy and their integer weight, that policy, and :func:`is_crucial`'s
    answer, from one walk; ``budget`` is resolved, and nothing is
    certified."""
    best_weight, best_policy, strict_weight = _walk(inst, budget)
    picks = engine._picks(best_policy, engine._greedy(inst, best_policy))
    return picks, best_weight, best_policy, strict_weight < best_weight


def _walk(inst: Instance, budget: int) -> tuple[int, Policy, int]:
    """The best greedy weight over the policies dominated by the instance's
    own, the first such policy reaching it, and the best greedy weight over
    the strictly dominated ones (-1 when there are none).

    The dominated policies are the orders of the instance's core turns and
    its manipulator turns in which the i-th manipulator turn comes no
    earlier than in the instance's policy.  They are walked as a tree of
    turn prefixes, depth first and a manipulator turn before a core turn,
    which visits them in enumeration order: the instance's own policy
    first, and no policy twice.  A greedy turn depends only on the prefix
    before it (a manipulator turn takes from the next core agent's
    ranking), so policies that share a prefix share its allocation.
    Raises :class:`BudgetExceeded` past ``budget`` policies.
    """
    m = inst.m
    view = inst.view
    weight, prefs, bits = view.weight, view.prefs, view.bits
    dec = inst.decomposition
    z, core = dec.position_vector, dec.core
    k, m_core = len(z), len(core)
    # Once c core turns are done, either turn takes from the next core
    # agent's ranking, or from the manipulator's own after the last one.
    source = [prefs[agent] for agent in core] + [prefs[MANIPULATOR]]
    turns: list[int] = []  # the policy prefix being walked
    saved: list[tuple[int, int, int]] = []  # per turn of it: (taken, c, total) before the turn
    taken = c = total = 0  # the prefix's allocated set, core turns and greedy bundle's weight
    core_next = False  # whether the prefix's next turn must be a core turn
    best_weight = strict_weight = -1
    best_policy: Policy = ()
    count = 0
    # Depth first without recursion, so that no policy is too long for it.
    while True:
        # Complete the prefix with each turn's first option: a manipulator
        # turn when the i-th may come this late, else a core turn.
        t = len(turns)
        while t < m:
            i = t - c
            t += 1
            mine = not core_next and i < k and t >= z[i]
            core_next = False
            saved.append((taken, c, total))
            item = _top(source[c], taken, bits)
            taken |= bits[item]
            if mine:
                turns.append(MANIPULATOR)
                total += weight[item]
            else:
                turns.append(core[c])
                c += 1
        count += 1
        if count > budget:
            raise BudgetExceeded(f"dominated-policy enumeration exceeded {budget} policies")
        if total > best_weight:
            best_weight, best_policy = total, tuple(turns)
        if count > 1 and total > strict_weight:
            strict_weight = total
        # Back up to the last manipulator turn that could be a core turn,
        # and make it one.
        while turns:
            agent = turns.pop()
            taken, c, total = saved.pop()
            if agent == MANIPULATOR and c < m_core:
                core_next = True
                break
        else:
            break
    return best_weight, best_policy, strict_weight
