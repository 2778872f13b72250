"""Ground-truth solvers for desk-scale instances.

Two independent exact methods pin down the manipulator's optimal utility,
and their agreement with each other and with the dynamic program is the
core cross-validation of this package.  One is the paper's structural
result: under any policy P, the optimum is the best greedy outcome over the
policies P dominates.  Domination is transitive, so the best optimum over
P's strict dominatees is the best greedy outcome over them, and the same
walk decides :func:`is_crucial`.  The module keeps its last completed
dominated walk, keyed by the identity of the instance walked and of its
``view`` and ``decomposition``, so that :func:`is_crucial` after
:func:`dominated_greedy_best` on the same instance (or before it) reads the
walk instead of making it again.  The other, the choice tree, goes turn by
turn over the allocated sets reachable so far: a non-manipulator turn is
forced and a manipulator turn branches over its picks.  No search recurses,
so only a budget limits an instance's length.  Every allocated set here is
an int with bit ``i`` set when item ``i`` is taken, and :func:`_top` is the
one scan for an agent's top remaining item in one.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import engine
from .engine import (
    DEFAULT_STATE_BUDGET,
    BudgetExceeded,
    Solution,
    _greedy_trace,
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


def choice_tree_best(inst: Instance, budget: int | None = None) -> Solution:
    """Exact optimum by branching over every remaining item at every
    manipulator turn (non-manipulator turns are forced).

    A forward pass collects the allocated sets reachable before each turn,
    and a backward pass gives each set the best rest of its bundle in the
    view's integer weights; the optimum becomes a ``Fraction`` once, for
    the rebuild check.  Raises :class:`BudgetExceeded` once the allocated
    sets before the last turn number more than ``budget`` (default 10**7,
    overridable via the ``SEQMANIP_BUDGET`` environment variable).

    Ties between optimal bundles break towards the bundle whose items rank
    lexicographically best in the manipulator's own ranking, making the
    result independent of exploration order.  Item ``i``'s key is its
    weight shifted left by m bits, plus bit ``m - 1 - r`` for its rank
    ``r`` in the manipulator's ranking.  Every bundle left from one
    allocated set has the same size, so the larger key sum is the larger
    weight or, on a tie, the bundle holding the better ranked item where
    the two differ: the lexicographically smallest sorted rank tuple.
    """
    m = inst.m
    view = inst.view
    rank1 = view.rank[MANIPULATOR]
    prefs = view.prefs
    policy = inst.policy
    bits = view.bits
    key = [(w << m) | (1 << (m - 1 - r)) for w, r in zip(view.weight, rank1)]
    key_bits = list(zip(key, bits))
    layers = _reachable(inst, range(m), _resolve_budget(budget, DEFAULT_STATE_BUDGET))
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
    # Rebuild the chosen trace: at each manipulator turn, the first item
    # index on an optimal path.
    steps = []
    taken = 0
    for agent in policy:
        if agent == MANIPULATOR:
            pick = next(
                i for i in range(m) if not taken & bits[i] and key[i] + best[taken | bits[i]] == best[taken]
            )
        else:
            pick = _top(prefs[agent], taken, bits)
        steps.append((inst.items[pick], agent))
        taken |= bits[pick]
    optimum = best[0] >> m
    solution = engine._certify(inst, steps, optimum, "rebuilt trace does not match the optimum of the backward pass")
    ranks = sum(1 << (m - 1 - rank1[view.index[item]]) for item in solution.bundle.items)
    if ranks != best[0] & ((1 << m) - 1):
        raise RuntimeError("internal error: rebuilt trace does not match the optimum of the backward pass")
    return solution


def dominated_greedy_best(inst: Instance, budget: int | None = None) -> tuple[Solution, Policy]:
    """Best greedy outcome over every policy dominated by the instance's own.

    Returns the solution replayed on the original instance together with the
    dominated policy achieving it (the certificate policy); ties break by
    enumeration order, i.e. the lexicographically first position vector.
    Raises :class:`BudgetExceeded` past ``budget`` policies.
    """
    best_weight, best_policy, _strict = _dominated_walk(inst, _resolve_budget(budget, DEFAULT_POLICY_BUDGET))
    what = "greedy strategy of the best dominated policy does not recover its bundle on the original policy"
    return engine._certify(inst, _greedy_trace(inst, best_policy), best_weight, what), best_policy


def is_crucial(inst: Instance, budget: int | None = None) -> bool:
    """Is every strictly dominated policy strictly worse at the optimum?

    Vacuously true when the policy has no strict dominatee.  A strict
    dominatee's optimum is the best greedy outcome over the policies it
    dominates, which are strict dominatees too: domination is transitive,
    and no strict dominatee dominates the instance's policy.  So the policy
    is crucial exactly when its own greedy outcome beats every strict
    dominatee's.  ``budget`` caps only the dominated policies walked, as in
    :func:`dominated_greedy_best`, whose walk of the same instance this
    reads when it is the one :func:`_dominated_walk` kept.
    """
    best_weight, _policy, strict_weight = _dominated_walk(inst, _resolve_budget(budget, DEFAULT_POLICY_BUDGET))
    return strict_weight < best_weight


# The last completed dominated walk: the instance, its view and its
# decomposition, the number of policies walked, and the walk's result.
_kept: tuple = (None, None, None, 0, None)


def _dominated_walk(inst: Instance, budget: int) -> tuple[int, Policy, int]:
    """The best greedy weight over the policies dominated by the instance's
    own, the first such policy reaching it, and the best greedy weight over
    the strictly dominated ones (-1 when there are none).

    The module keeps the last completed walk, with a reference to the
    instance it walked, and answers again from it when asked about the same
    instance object holding the same ``view`` and ``decomposition`` objects.
    So a ``with_policy`` copy, an equal but separately built instance, or a
    view swapped into the instance's ``__dict__`` is walked afresh.  A kept
    walk raises :class:`BudgetExceeded`, with the fresh walk's message, when
    it counted more than ``budget`` policies, so it answers and fails as the
    fresh walk would.  A walk that raised keeps nothing.
    """
    global _kept
    view, dec = inst.view, inst.decomposition
    kept_inst, kept_view, kept_dec, count, result = _kept
    if kept_inst is inst and kept_view is view and kept_dec is dec:
        if count > budget:
            raise _over_budget(budget)
        return result
    result, count = _walk(inst, budget)
    _kept = (inst, view, dec, count, result)
    return result


def _over_budget(budget: int) -> BudgetExceeded:
    return BudgetExceeded(f"dominated-policy enumeration exceeded {budget} policies")


def _walk(inst: Instance, budget: int) -> tuple[tuple[int, Policy, int], int]:
    """:func:`_dominated_walk`'s result, walked afresh, and the number of
    dominated policies walked.

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
            raise _over_budget(budget)
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
    return (best_weight, best_policy, strict_weight), count
