"""Ground-truth solvers for desk-scale instances.

Two independent exact methods: an exhaustive choice tree over manipulator
picks, and greedy runs over every dominated policy.  Either one pins down
the manipulator's optimal utility; agreeing with each other and with the
dynamic program is the core cross-validation of this package.
:func:`is_crucial` takes the optimum from the choice tree and asks each
dominated policy only whether it reaches it, by the same exhaustive
branching cut off by a bound (:func:`_reaches`).  The searches work on the
instance's integer view.  The choice tree and :func:`_reaches` hold the
allocated set as an int with bit ``i`` set when item ``i`` is taken: it is
their memo key, cheaper to extend and to hash than a byte mask, and it stays
short because both searches are exponential in m.  The other searches use
a byte mask.  Their recursion is one level per turn, so instances too long
for the interpreter's recursion limit raise :class:`BudgetExceeded`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterator

from . import engine
from .engine import (
    DEFAULT_STATE_BUDGET,
    BudgetExceeded,
    Solution,
    _resolve_budget,
    _solution_from_strategy,
)
from .greedy import greedy_alg
from .model import MANIPULATOR, Instance
from .policy import Policy, decompose, enumerate_dominated

DEFAULT_POLICY_BUDGET = 10**6

# Frames kept free below the recursion limit for the calls a search level
# makes besides its own recursion (the top-remaining scan, sorting).
_FRAME_MARGIN = 50


def _require_headroom(depth: int) -> None:
    """Raise :class:`BudgetExceeded` unless ``depth`` more nested search
    levels fit under the interpreter's recursion limit."""
    used = 0
    frame = sys._getframe()
    while frame is not None:
        used += 1
        frame = frame.f_back
    if used + depth + _FRAME_MARGIN > sys.getrecursionlimit():
        raise BudgetExceeded(
            f"search depth {depth} exceeds the interpreter's recursion headroom "
            f"({sys.getrecursionlimit() - used - _FRAME_MARGIN} levels)"
        )


def choice_tree_best(inst: Instance, budget: int | None = None) -> Solution:
    """Exact optimum by branching over every remaining item at every
    manipulator turn (non-manipulator turns are forced).

    States are memoised on the set of allocated items, which determines the
    position and the remaining subproblem.  A memo entry holds the best
    utility of the rest in the view's integer weights; the optimum becomes
    a ``Fraction`` once, for the rebuild check.  Raises
    :class:`BudgetExceeded` after expanding more than ``budget`` states
    (default 10**7, overridable via the ``SEQMANIP_BUDGET`` environment
    variable).

    Ties between optimal bundles break towards the bundle whose items rank
    lexicographically best in the manipulator's own ranking, making the
    result independent of exploration order.
    """
    return _choice_tree(inst, _resolve_budget(budget, DEFAULT_STATE_BUDGET))[1]


def _choice_tree(inst: Instance, budget: int) -> tuple[int, Solution]:
    """:func:`choice_tree_best` with its budget resolved; also returns the
    optimum as an integer weight of the instance's view."""
    _require_headroom(inst.m)
    m = inst.m
    view = inst.view
    weight = view.weight
    rank1 = view.rank[MANIPULATOR]
    prefs = view.prefs
    policy = inst.policy
    bits = [1 << i for i in range(m)]
    # allocated set -> (weight of the rest's bundle, its sorted manipulator ranks, item picked)
    memo: dict[int, tuple[int, tuple[int, ...], int]] = {}
    nodes = 0
    leaf = (0, (), -1)

    def solve(pos: int, taken: int) -> tuple[int, tuple[int, ...], int]:
        """Expand the state at turn ``pos < m``, which is not in the memo.
        A child that is a leaf or a memo hit is looked up here, not called."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"choice tree expanded more than {budget} states; raise the budget to continue"
            )
        last = pos + 1 == m
        agent = policy[pos]
        if agent != MANIPULATOR:
            pref = prefs[agent]
            j = 0
            while taken & bits[pref[j]]:
                j += 1
            pick = pref[j]
            child = taken | bits[pick]
            sub = leaf if last else memo.get(child) or solve(pos + 1, child)
            result = (sub[0], sub[1], pick)
        else:
            best: tuple[int, tuple[int, ...], int] | None = None
            for i in range(m):
                if taken & bits[i]:
                    continue
                child = taken | bits[i]
                sub_util, sub_bundle, _ = leaf if last else memo.get(child) or solve(pos + 1, child)
                cand_util = weight[i] + sub_util
                # Only a candidate that can win or tie needs its bundle's ranks.
                if best is not None and cand_util < best[0]:
                    continue
                cand_bundle = tuple(sorted(sub_bundle + (rank1[i],)))
                if best is None or cand_util > best[0] or cand_bundle < best[1]:
                    best = (cand_util, cand_bundle, i)
            assert best is not None
            result = best
        memo[taken] = result
        return result

    best_util, best_ranks, _ = solve(0, 0) if m else leaf
    # Rebuild the chosen trace by following the memoised picks.
    steps = []
    taken = 0
    for agent in policy:
        pick = memo[taken][2]
        steps.append((inst.items[pick], agent))
        taken |= bits[pick]
    seq = tuple(steps)
    solution = _solution_from_strategy(inst, engine.strategy_from_sequence(inst, seq))
    bundle_ranks = {rank1[view.index[item]] for item in solution.bundle.items}
    if solution.utility != Fraction(best_util, view.scale) or bundle_ranks != set(best_ranks):
        raise RuntimeError("internal error: rebuilt trace does not match the memoised optimum")
    return best_util, solution


def _dominated_within_budget(inst: Instance, budget: int | None) -> Iterator[Policy]:
    """The policies dominated by the instance's own, in enumeration order;
    raises :class:`BudgetExceeded` past the policy budget."""
    budget = _resolve_budget(budget, DEFAULT_POLICY_BUDGET)
    for count, pol in enumerate(enumerate_dominated(inst.policy), start=1):
        if count > budget:
            raise BudgetExceeded(f"dominated-policy enumeration exceeded {budget} policies")
        yield pol


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
    weight, prefs = view.weight, view.prefs
    dec = decompose(inst.policy)
    z, core = dec.position_vector, dec.core
    k, m_core = len(z), len(core)
    taken = bytearray(m)
    cursors = dict.fromkeys(prefs, 0)  # per ranking, as in engine._allocate
    turns: list[int] = []  # the policy prefix being walked
    undo: list[tuple[int, int, int]] = []  # per turn of it: (item, whose cursor moved, its old value)
    i = c = total = 0  # the prefix's manipulator and core turns and its greedy bundle's weight
    best_weight: int | None = None
    best_policy: Policy | None = None
    count = 0

    def push(agent: int) -> None:
        """Append a turn of ``agent`` to the prefix and make its greedy pick."""
        nonlocal i, c, total
        # A manipulator turn takes from the next core agent's ranking.
        who = agent if agent != MANIPULATOR else core[c] if c < m_core else MANIPULATOR
        pref = prefs[who]
        cur = old = cursors[who]
        while taken[pref[cur]]:
            cur += 1
        item = pref[cur]
        taken[item] = 1
        cursors[who] = cur
        turns.append(agent)
        undo.append((item, who, old))
        if agent == MANIPULATOR:
            i += 1
            total += weight[item]
        else:
            c += 1

    def pop() -> int:
        """Take the prefix's last turn back; returns whose it was."""
        nonlocal i, c, total
        item, who, old = undo.pop()
        taken[item] = 0
        cursors[who] = old
        agent = turns.pop()
        if agent == MANIPULATOR:
            i -= 1
            total -= weight[item]
        else:
            c -= 1
        return agent

    # Depth first without recursion, so that no policy is too long for it.
    while True:
        # Complete the prefix with each turn's first option: a manipulator
        # turn when the i-th may come this late, else a core turn.
        while len(turns) < m:
            push(MANIPULATOR if i < k and len(turns) + 1 >= z[i] else core[c])
        count += 1
        if count > budget:
            raise BudgetExceeded(f"dominated-policy enumeration exceeded {budget} policies")
        if best_weight is None or total > best_weight:
            best_weight, best_policy = total, tuple(turns)
        # Back up to the last manipulator turn that could be a core turn.
        while turns:
            if pop() == MANIPULATOR and c < m_core:
                push(core[c])
                break
        else:
            break
    assert best_weight is not None and best_policy is not None
    _seq, strategy = greedy_alg(inst.with_policy(best_policy))
    solution = _solution_from_strategy(inst, strategy)
    if solution.utility != Fraction(best_weight, view.scale):
        raise RuntimeError(
            "internal error: greedy strategy of the best dominated policy does "
            "not recover the same utility on the original instance"
        )
    return solution, best_policy


def is_crucial(inst: Instance, budget: int | None = None, optimum: Fraction | None = None) -> bool:
    """Is every strictly dominated policy strictly worse at the optimum?

    Vacuously true when the policy has no strict dominatee.  ``optimum`` is
    the instance's optimal utility when the caller has it already (as
    :func:`choice_tree_best` returns it); ``None`` computes it with the
    choice tree.  Each strictly dominated policy is then asked only whether
    it reaches that optimum (:func:`_reaches`), which needs no optimum of
    its own.  ``budget`` caps each search's states and the dominated-policy
    count; ``None`` keeps each search's default.
    """
    state_budget = _resolve_budget(budget, DEFAULT_STATE_BUDGET)
    if optimum is None:
        own = _choice_tree(inst, state_budget)[0]
    else:
        scaled = optimum * inst.view.scale
        if scaled.denominator != 1:
            raise ValueError(f"{optimum} is not a utility of this instance's bundles")
        own = scaled.numerator
    for pol in _dominated_within_budget(inst, budget):
        if pol == inst.policy:
            continue
        if _reaches(inst.with_policy(pol), own, state_budget):
            return False
    return True


def _reaches(inst: Instance, target: int, budget: int) -> bool:
    """Can the manipulator end up with a bundle of weight at least
    ``target`` (in the view's integer weights)?

    An exhaustive search like the choice tree's, which stops at the first
    bundle that reaches the target and drops a branch once even the
    manipulator's best remaining items, one per remaining manipulator turn,
    would fall short of it.  A state (the allocated set) that failed to
    reach a weight fails for every larger one, so the memo keeps the
    smallest weight each state failed to reach.  Raises
    :class:`BudgetExceeded` after expanding more than ``budget`` states.
    """
    _require_headroom(inst.m)
    m = inst.m
    view = inst.view
    weight = view.weight
    prefs = view.prefs
    pref1 = prefs[MANIPULATOR]
    policy = inst.policy
    # turns_left[pos]: manipulator turns at or after turn pos
    turns_left = [0] * (m + 1)
    for pos in range(m - 1, -1, -1):
        turns_left[pos] = turns_left[pos + 1] + (policy[pos] == MANIPULATOR)
    bits = [1 << i for i in range(m)]
    failed: dict[int, int] = {}  # allocated set -> smallest weight it failed to reach
    nodes = 0

    def search(pos: int, taken: int, need: int) -> bool:
        nonlocal nodes
        if need <= 0:
            return True
        bound, turns = 0, turns_left[pos]
        if turns:
            for i in pref1:
                if not taken & bits[i]:
                    bound += weight[i]
                    turns -= 1
                    if not turns:
                        break
        if bound < need:
            return False
        floor = failed.get(taken)
        if floor is not None and need >= floor:
            return False
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"search expanded more than {budget} states; raise the budget to continue"
            )
        agent = policy[pos]
        found = False
        if agent != MANIPULATOR:
            pref = prefs[agent]
            j = 0
            while taken & bits[pref[j]]:
                j += 1
            found = search(pos + 1, taken | bits[pref[j]], need)
        else:
            for i in pref1:
                if not taken & bits[i]:
                    found = search(pos + 1, taken | bits[i], need - weight[i])
                    if found:
                        break
        if not found:
            failed[taken] = need  # below any weight the state failed to reach before
        return found

    return search(0, 0, target)


def achievable_bundles_exact(inst: Instance, target: frozenset) -> bool:
    """Can the manipulator end up with exactly ``target``?

    Independent decision procedure used to cross-check the reduction in
    :mod:`seqmanip.responses`: depth-first search over manipulator picks
    restricted to the target set (a pick outside it can never produce the
    exact bundle), with non-manipulator turns forced.
    """
    if len(target) != inst.k1:
        return False
    _require_headroom(inst.m)
    view = inst.view
    target_idx = [view.index[item] for item in sorted(target)]
    policy = inst.policy
    m = inst.m
    taken = bytearray(m)  # the allocated set on the branch being explored
    seen: set[bytes] = set()

    def search(pos: int) -> bool:
        if pos == m:
            return True
        key = bytes(taken)
        if key in seen:
            return False
        agent = policy[pos]
        if agent != MANIPULATOR:
            picks = [view.top(agent, taken)]
        else:
            picks = [i for i in target_idx if not taken[i]]
        for i in picks:
            taken[i] = 1
            found = search(pos + 1)
            taken[i] = 0
            if found:
                return True
        seen.add(key)
        return False

    return search(0)
