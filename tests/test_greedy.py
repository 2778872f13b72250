import gc
import time

import pytest

import seqmanip as sm
from _util import random_instances
from paper_lemmas import is_greedy_stepwise


def test_greedy_example1(ex1):
    trace, strategy = sm.greedy_alg(ex1)
    assert trace == (("e", 1), ("b", 3), ("c", 2), ("d", 2), ("a", 1))
    assert sm.bundle_items(trace, 1) == {"e", "a"}
    assert strategy == ("e", "a", "b", "c", "d")


def test_greedy_on_delayed_policy_variant(ex1):
    variant = ex1.with_policy((3, 2, 1, 2, 1))
    trace, _ = sm.greedy_alg(variant)
    assert sm.bundle_items(trace, 1) == {"b", "a"}


def test_greedy_manipulator_only_policy():
    inst = sm.make_instance(
        ["a", "b"], 1, [1, 1], {1: ["a", "b"]}, {"a": 2, "b": 1}
    )
    trace, strategy = sm.greedy_alg(inst)
    assert trace == (("a", 1), ("b", 1))
    assert strategy == ("a", "b")


def test_greedy_output_is_greedy_and_unique():
    for inst, _seed in random_instances(150, seed=5):
        first = sm.greedy_alg(inst)
        assert first == sm.greedy_alg(inst)
        trace, strategy = first
        assert is_greedy_stepwise(inst, trace)
        assert len(trace) == inst.m
        # executing the returned strategy reproduces the trace
        assert sm.execute(inst, strategy) == trace


def test_greedy_optimal_on_crucial_instances():
    hits = 0
    for inst, _seed in random_instances(60, seed=6, agents=(2, 3), max_items=5):
        if not sm.is_crucial(inst):
            continue
        hits += 1
        trace, _ = sm.greedy_alg(inst)
        greedy_utility = sm.manipulator_bundle(inst, trace).total_utility
        assert greedy_utility == sm.choice_tree_best(inst).utility
    assert hits > 5


def _arguments(name: str, m: int) -> tuple:
    inst = sm.generate_random_instance(3, m, seed=m)
    return (inst,) if name == "greedy_alg" else (inst, inst.manipulator_ranking)


# The two public walks over rankings, both through one monotone cursor per ranking.
@pytest.mark.parametrize("name", ["greedy_alg", "execute"])
def test_greedy_runtime_is_near_linear(name):
    def best_time(m: int) -> float:
        fn = getattr(sm, name)
        args = _arguments(name, m)
        best = float("inf")
        # A collection during a timed call would be timed with it.
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                fn(*args)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        return best

    small, large = best_time(2000), best_time(8000)
    # a quadratic scan would blow up 16x here; allow generous noise around 4x
    assert large < 10 * max(small, 1e-4)


@pytest.mark.parametrize("name", ["greedy_alg", "execute"])
def test_greedy_ranking_reads_grow_linearly(name):
    # The same scaling as above, counted instead of timed: every read of a
    # ranking, as item indices, goes through the view's ``prefs``.
    def ranking_reads(m: int) -> int:
        args = _arguments(name, m)
        reads = 0

        class Counted(tuple):
            def __getitem__(self, key):
                nonlocal reads
                reads += 1
                return tuple.__getitem__(self, key)

        inst = args[0]
        view = inst.view
        # Instances refuse assignment; the counted view goes in behind that.
        inst.__dict__["view"] = view._replace(prefs={agent: Counted(pref) for agent, pref in view.prefs.items()})
        getattr(sm, name)(*args)
        return reads

    small, large = ranking_reads(2000), ranking_reads(8000)
    assert 0 < small <= 10 * 2000
    # linear growth is 4x, and a quadratic scan would be 16x
    assert large <= 4.5 * small
