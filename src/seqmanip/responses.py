"""Derived decision problems and the truthful-response approximation study."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .dp import best_response_with_table
from .engine import Solution, execute, manipulator_bundle
from .model import MANIPULATOR, Instance, Item, make_instance


def truthful_response(inst: Instance) -> Solution:
    """Outcome when the manipulator simply plays its truthful ranking."""
    strategy = inst.manipulator_ranking
    seq = execute(inst, strategy)
    return Solution(strategy, seq, manipulator_bundle(inst, seq))


@dataclass(frozen=True)
class ApproximationReport:
    truthful: Fraction
    optimal: Fraction
    ratio: Fraction


def approximation_report(inst: Instance) -> ApproximationReport:
    """Truthful and optimal utilities with their exact ratio.

    The ratio is guaranteed in [1/2, 1]: playing truthfully always collects
    at least half of the optimum.  Undefined when the manipulator never
    moves, so instances with no manipulator turn are rejected.
    """
    if inst.k1 == 0:
        raise ValueError("ratio undefined: the policy gives the manipulator no turn")
    truthful = truthful_response(inst).utility
    optimal = best_response_with_table(inst)[0].utility
    return ApproximationReport(truthful=truthful, optimal=optimal, ratio=truthful / optimal)


def allocation_response(inst: Instance, target: Iterable[Item]) -> bool:
    """Can the manipulator obtain exactly ``target``?

    Reduced to best response by reweighting: target items get utilities so
    large that any optimal bundle contains every one of them exactly when the
    target is achievable (relative order within each group follows the
    original ranking, so the reweighted instance stays valid).  Since bundles
    have exactly as many items as the manipulator has turns, requiring
    ``len(target)`` to equal that count makes containment equality.
    """
    target = frozenset(target)
    unknown = target - set(inst.items)
    if unknown:
        raise ValueError(f"target items not in the instance: {sorted(unknown)}")
    if len(target) != inst.k1:
        raise ValueError(
            f"target size {len(target)} must equal the manipulator's turn count {inst.k1}"
        )
    if inst.k1 == 0:
        return True
    m = inst.m
    big = m * (m + 1)
    preferred = [item for item in inst.manipulator_ranking if item in target]
    others = [item for item in inst.manipulator_ranking if item not in target]
    reweighted_utility: dict[Item, Fraction] = {}
    for pos, item in enumerate(preferred):
        reweighted_utility[item] = Fraction(big - pos)
    for pos, item in enumerate(others):
        reweighted_utility[item] = Fraction(m - pos)
    reweighted = make_instance(
        inst.items,
        inst.n_agents,
        inst.policy,
        {**dict(inst.rankings), MANIPULATOR: tuple(preferred + others)},
        reweighted_utility,
    )
    return best_response_with_table(reweighted)[0].bundle.items == target
