import itertools
import random
from fractions import Fraction

import pytest

import seqmanip as sm
from _util import achievable_bundles_exact, random_instances


def test_truthful_tightness():
    inst = sm.generate_tightness_instance(10)
    sol = sm.truthful_response(inst)
    assert sol.bundle.items == {"g1", "g3"}
    assert sol.utility == Fraction(11, 10)


def test_truthful_example1(ex1):
    assert sm.truthful_response(ex1).bundle.items == {"a", "d"}


def test_truthful_without_manipulator_turns():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    sol = sm.truthful_response(inst)
    assert sol.bundle.items == frozenset()
    assert sol.utility == 0


def test_approximation_report_tightness():
    report = sm.approximation_report(sm.generate_tightness_instance(10))
    assert report.truthful == Fraction(11, 10)
    assert report.optimal == Fraction(19, 10)
    assert report.ratio == Fraction(11, 19)


def test_approximation_report_large_k():
    report = sm.approximation_report(sm.generate_tightness_instance(1000))
    assert report.ratio == Fraction(1001, 1999)
    assert report.ratio > Fraction(1, 2)


def test_ratio_strictly_decreasing_in_k_toward_half():
    previous = None
    for k in (3, 5, 10, 50, 250, 1000):
        ratio = sm.approximation_report(sm.generate_tightness_instance(k)).ratio
        assert ratio == Fraction(k + 1, 2 * k - 1)
        assert ratio > Fraction(1, 2)
        if previous is not None:
            assert ratio < previous
        previous = ratio


def test_ratio_one_when_truthful_is_optimal():
    inst = sm.make_instance(
        ["a", "b"], 1, [1, 1], {1: ["a", "b"]}, {"a": 2, "b": 1}
    )
    assert sm.approximation_report(inst).ratio == 1


def test_ratio_undefined_without_manipulator_turns():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    with pytest.raises(ValueError):
        sm.approximation_report(inst)


def test_half_optimality_sampled():
    for inst, seed in random_instances(200, seed=61, max_items=8):
        truthful = sm.truthful_response(inst).utility
        optimal = sm.best_response_with_table(inst)[0].utility
        assert 2 * truthful >= optimal, f"seed={seed}"
        assert truthful <= optimal


def test_allocation_response_example1(ex1):
    assert sm.allocation_response(ex1, {"a", "b"})
    assert sm.allocation_response(ex1, {"a", "e"})  # the greedy outcome
    assert sm.allocation_response(ex1, {"a", "d"})  # the truthful outcome
    assert not sm.allocation_response(ex1, {"b", "c"})
    assert not sm.allocation_response(ex1, {"b", "d"})


def test_allocation_response_argument_errors(ex1):
    with pytest.raises(ValueError):
        sm.allocation_response(ex1, {"a"})
    with pytest.raises(ValueError):
        sm.allocation_response(ex1, {"a", "zz"})


def test_allocation_response_empty_target():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    assert sm.allocation_response(inst, set())


def test_allocation_response_accepts_optimal_bundle():
    for inst, seed in random_instances(100, seed=67, max_items=7):
        bundle = sm.best_response_with_table(inst)[0].bundle.items
        assert sm.allocation_response(inst, bundle), f"seed={seed}"


def test_allocation_response_matches_direct_search_all_targets():
    # every size-k1 target on small instances, against the independent search
    for inst, seed in random_instances(40, seed=71, agents=(2, 3), max_items=6, min_items=1):
        for target in itertools.combinations(inst.items, inst.k1):
            target = frozenset(target)
            assert sm.allocation_response(inst, target) == achievable_bundles_exact(
                inst, target
            ), f"seed={seed} target={sorted(target)}"


def test_allocation_response_matches_direct_search_sampled_targets():
    rng = random.Random(73)
    for inst, seed in random_instances(40, seed=73, agents=(3, 4), max_items=8, min_items=7):
        for _ in range(5):
            target = frozenset(rng.sample(list(inst.items), inst.k1))
            assert sm.allocation_response(inst, target) == achievable_bundles_exact(
                inst, target
            ), f"seed={seed} target={sorted(target)}"
