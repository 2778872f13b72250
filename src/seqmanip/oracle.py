"""Ground-truth solvers for desk-scale instances.

Two independent exact methods: an exhaustive choice tree over manipulator
picks, and greedy runs over every dominated policy.  Either one pins down
the manipulator's optimal utility; agreeing with each other and with the
dynamic program is the core cross-validation of this package.
:func:`is_crucial` takes the optimum from the choice tree and asks each
dominated policy only whether it reaches it (:func:`_reaches`).  The
exhaustive searches go turn by turn over the allocated sets reachable so
far: a non-manipulator turn is forced and a manipulator turn branches over
its picks.  No search recurses, so only a budget limits an instance's
length.  Every allocated set here is an int with bit ``i`` set when item
``i`` is taken, and :func:`_top` is the one scan for an agent's top
remaining item in one.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
from .policy import Policy, enumerate_dominated

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
    and a backward pass gives each set the best rest of its bundle (see
    :func:`_choice_tree`) in the view's integer weights; the optimum
    becomes a ``Fraction`` once, for the rebuild check.  Raises
    :class:`BudgetExceeded` once the allocated sets before the last turn
    number more than ``budget`` (default 10**7, overridable via the
    ``SEQMANIP_BUDGET`` environment variable).

    Ties between optimal bundles break towards the bundle whose items rank
    lexicographically best in the manipulator's own ranking, making the
    result independent of exploration order.
    """
    return _choice_tree(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))[1]


def _choice_tree(inst: Instance, budget: int) -> tuple[int, Solution]:
    """:func:`choice_tree_best` with its budget resolved; also returns the
    optimum as an integer weight of the instance's view.

    Item ``i``'s key is its weight shifted left by m bits, plus bit
    ``m - 1 - r`` for its rank ``r`` in the manipulator's ranking.  Every
    bundle left from one allocated set has the same size, so the larger key
    sum is the larger weight or, on a tie, the bundle holding the better
    ranked item where the two differ: the lexicographically smallest sorted
    rank tuple.
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
    return optimum, solution


def dominated_greedy_best(inst: Instance, budget: int | None = None) -> tuple[Solution, Policy]:
    """Best greedy outcome over every policy dominated by the instance's own.

    Returns the solution replayed on the original instance together with the
    dominated policy achieving it (the certificate policy); ties break by
    enumeration order, i.e. the lexicographically first position vector.

    The dominated policies are the orders of the instance's core turns and
    its manipulator turns in which the i-th manipulator turn comes no
    earlier than in the instance's policy.  They are walked as a tree of
    turn prefixes, depth first and a manipulator turn before a core turn,
    which visits them in enumeration order.  A greedy turn depends only on
    the prefix before it (a manipulator turn takes from the next core
    agent's ranking), so policies that share a prefix share its allocation.
    Raises :class:`BudgetExceeded` past ``budget`` policies.
    """
    budget = _resolve_budget(budget, DEFAULT_POLICY_BUDGET)
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
    best_weight = -1
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
    what = "greedy strategy of the best dominated policy does not recover its bundle on the original policy"
    return engine._certify(inst, _greedy_trace(inst, best_policy), best_weight, what), best_policy


def is_crucial(inst: Instance, budget: int | None = None, optimum: Fraction | None = None) -> bool:
    """Is every strictly dominated policy strictly worse at the optimum?

    Vacuously true when the policy has no strict dominatee.  ``optimum`` is
    the instance's optimal utility when the caller has it already (as
    :func:`choice_tree_best` returns it); ``None`` computes it with the
    choice tree.  Each strictly dominated policy is then asked only whether
    it reaches that optimum (:func:`_reaches`), which needs no optimum of
    its own.  ``budget`` caps each search's allocated sets and the
    dominated-policy count; ``None`` keeps each search's default.
    """
    state_budget = _resolve_budget(budget, DEFAULT_STATE_BUDGET)
    policy_budget = _resolve_budget(budget, DEFAULT_POLICY_BUDGET)
    if optimum is None:
        own = _choice_tree(inst, state_budget)[0]
    else:
        scaled = optimum * inst.view.scale
        if scaled.denominator != 1:
            raise ValueError(f"{optimum} is not a utility of this instance's bundles")
        own = scaled.numerator
    return _is_crucial(inst, own, state_budget, policy_budget)


def _is_crucial(inst: Instance, own: int, state_budget: int, policy_budget: int) -> bool:
    """:func:`is_crucial` with the optimum ``own`` as an integer weight of
    the instance's view and both budgets resolved."""
    for count, pol in enumerate(enumerate_dominated(inst.policy, inst.decomposition), start=1):
        if count > policy_budget:
            raise BudgetExceeded(f"dominated-policy enumeration exceeded {policy_budget} policies")
        if pol != inst.policy and _reaches(inst, pol, own, state_budget):
            return False
    return True


def _reaches(inst: Instance, policy: Policy, target: int, budget: int) -> bool:
    """Can the manipulator end up with a bundle of weight at least
    ``target`` (in the view's integer weights) under ``policy``, a policy
    with the instance's items and as many manipulator turns as its own?

    A forward pass like :func:`_reachable`'s that keeps, for each reachable
    allocated set, the most weight the manipulator can hold on reaching it.
    It returns at the first pick that reaches the target, and drops a set
    once even the manipulator's best remaining items, one per remaining
    manipulator turn, would leave its weight short of the target.  Raises
    :class:`BudgetExceeded` once it keeps more than ``budget`` allocated
    sets, the empty one it starts from included.
    """
    if target <= 0:
        return True
    view = inst.view
    weight, prefs, bits = view.weight, view.prefs, view.bits
    pref1 = prefs[MANIPULATOR]
    layer = {0: 0}  # allocated set -> the most weight held on reaching it
    kept = 1
    turns = inst.k1  # manipulator turns not yet taken
    for agent in policy:
        mine = agent == MANIPULATOR
        turns -= mine  # now those after this one
        nxt: dict[int, int] = {}
        for taken, held in layer.items():
            for i in pref1 if mine else (_top(prefs[agent], taken, bits),):
                if taken & bits[i]:
                    continue
                child = taken | bits[i]
                total = held + weight[i] if mine else held
                if total >= target:
                    return True
                old = nxt.get(child)
                if old is not None:
                    nxt[child] = max(old, total)
                    continue
                # The child's bound: its weight plus its best free items, one
                # per manipulator turn left.  Along pref1 it never rises, so
                # the first pick that falls short ends the set's picks.
                bound, left = total, turns
                if left:
                    for j in pref1:
                        if not child & bits[j]:
                            bound += weight[j]
                            left -= 1
                            if not left:
                                break
                if bound < target:
                    break
                kept += 1
                if kept > budget:
                    raise BudgetExceeded(
                        f"search kept more than {budget} allocated sets; raise the budget to continue"
                    )
                nxt[child] = total
        layer = nxt
    return False

