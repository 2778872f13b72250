"""Ground-truth solvers for desk-scale instances.

Two independent exact methods: an exhaustive choice tree over manipulator
picks, and greedy runs over every dominated policy.  Either one pins down
the manipulator's optimal utility; agreeing with each other and with the
dynamic program is the core cross-validation of this package.  The searches
work on the instance's integer view, with the allocated set as a byte mask
over item indices.  Their recursion is one level per turn, so instances too
long for the interpreter's recursion limit raise :class:`BudgetExceeded`.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from typing import Iterator

from . import engine
from .engine import PickingStrategy, Solution, _solution_from_strategy
from .greedy import greedy_alg
from .model import MANIPULATOR, Instance
from .policy import Policy, enumerate_dominated

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_POLICY_BUDGET = 10**6

BUDGET_ENV_VAR = "SEQMANIP_BUDGET"


class BudgetExceeded(RuntimeError):
    """An exhaustive search outgrew its configured budget."""


# Frames kept free below the recursion limit for the calls a search level
# makes besides its own recursion (Fraction arithmetic, sorting).
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


def _resolve_budget(value: int | None, default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return default


def choice_tree_best(inst: Instance, budget: int | None = None) -> Solution:
    """Exact optimum by branching over every remaining item at every
    manipulator turn (non-manipulator turns are forced).

    States are memoised on the set of allocated items, which determines the
    position and the remaining subproblem.  Raises :class:`BudgetExceeded`
    after expanding more than ``budget`` states (default 10**7,
    overridable via the ``SEQMANIP_BUDGET`` environment variable).

    Ties between optimal bundles break towards the bundle whose items rank
    lexicographically best in the manipulator's own ranking, making the
    result independent of exploration order.
    """
    budget = _resolve_budget(budget, DEFAULT_NODE_BUDGET)
    _require_headroom(inst.m)
    m = inst.m
    view = inst.view
    utility = view.utility
    rank1 = view.rank[MANIPULATOR]
    policy = inst.policy
    # allocated set -> (utility, sorted manipulator ranks of the bundle, item picked)
    memo: dict[bytes, tuple[Fraction, tuple[int, ...], int]] = {}
    taken = bytearray(m)  # the allocated set on the branch being explored
    nodes = 0

    def solve(pos: int) -> tuple[Fraction, tuple[int, ...], int]:
        nonlocal nodes
        if pos == m:
            return Fraction(0), (), -1
        key = bytes(taken)
        cached = memo.get(key)
        if cached is not None:
            return cached
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"choice tree expanded more than {budget} states; raise the budget to continue"
            )
        agent = policy[pos]
        if agent != MANIPULATOR:
            pick = view.top(agent, taken)
            taken[pick] = 1
            sub_util, sub_bundle, _ = solve(pos + 1)
            taken[pick] = 0
            result = (sub_util, sub_bundle, pick)
        else:
            best: tuple[Fraction, tuple[int, ...], int] | None = None
            for i in range(m):
                if taken[i]:
                    continue
                taken[i] = 1
                sub_util, sub_bundle, _ = solve(pos + 1)
                taken[i] = 0
                cand_util = utility[i] + sub_util
                cand_bundle = tuple(sorted(sub_bundle + (rank1[i],)))
                if (
                    best is None
                    or cand_util > best[0]
                    or (cand_util == best[0] and cand_bundle < best[1])
                ):
                    best = (cand_util, cand_bundle, i)
            assert best is not None
            result = best
        memo[key] = result
        return result

    best_util, best_ranks, _ = solve(0)
    # Rebuild the chosen trace by following the memoised picks.
    steps = []
    for agent in policy:
        pick = memo[bytes(taken)][2]
        steps.append((inst.items[pick], agent))
        taken[pick] = 1
    seq = tuple(steps)
    solution = _solution_from_strategy(inst, engine.strategy_from_sequence(inst, seq))
    bundle_ranks = {rank1[view.index[item]] for item in solution.bundle.items}
    if solution.utility != best_util or bundle_ranks != set(best_ranks):
        raise RuntimeError("internal error: rebuilt trace does not match the memoised optimum")
    return solution


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
    """
    best_util: Fraction | None = None
    best_strategy: PickingStrategy | None = None
    best_policy: Policy | None = None
    for pol in _dominated_within_budget(inst, budget):
        variant = inst.with_policy(pol)
        seq, strategy = greedy_alg(variant)
        util = engine.manipulator_bundle(variant, seq).total_utility
        if best_util is None or util > best_util:
            best_util, best_strategy, best_policy = util, strategy, pol
    assert best_strategy is not None and best_policy is not None
    solution = _solution_from_strategy(inst, best_strategy)
    if solution.utility != best_util:
        raise RuntimeError(
            "internal error: greedy strategy of the best dominated policy does "
            "not recover the same utility on the original instance"
        )
    return solution, best_policy


def is_crucial(inst: Instance, budget: int | None = None) -> bool:
    """Is every strictly dominated policy strictly worse at the optimum?

    Vacuously true when the policy has no strict dominatee.  ``budget`` caps
    each choice tree's states and the dominated-policy count; ``None`` keeps
    each search's default.
    """
    own = choice_tree_best(inst, budget=budget).utility
    for pol in _dominated_within_budget(inst, budget):
        if pol == inst.policy:
            continue
        other = choice_tree_best(inst.with_policy(pol), budget=budget).utility
        if other >= own:
            return False
    return True


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
