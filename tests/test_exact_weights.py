"""The solvers add and compare integer weights and return exact Fractions.

An instance's view holds each utility times ``view.scale`` (the least common
multiple of the denominators) as a Python int.  These tests pin down that
results stay exact when ``scale > 1`` and that no ``Fraction`` arithmetic
creeps back into the DP's or the choice tree's inner loops.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seqmanip as sm
from seqmanip import dp
from seqmanip.oracle import choice_tree_best
from _util import crucial_by_choice_tree, mixed_denominator_instance

MIXED_POOL = [(n, m, seed) for n in (2, 3) for m in range(1, 8) for seed in range(12)]


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_view_weights_are_the_scaled_utilities():
    inst = mixed_denominator_instance(3, 7, seed=5)
    view = inst.view
    assert view.scale == math.lcm(*(u.denominator for u in inst.utility.values()))
    assert view.scale > 1
    for item, u in inst.utility.items():
        w = view.weight[view.index[item]]
        assert type(w) is int and Fraction(w, view.scale) == u
    assert sm.generate_random_instance(3, 6, seed=1).view.scale == 1
    assert sm.generate_tightness_instance(10).view.scale == 10


@pytest.mark.parametrize("n, m, seed", MIXED_POOL, ids=[f"n{n}m{m}s{s}" for n, m, s in MIXED_POOL])
def test_mixed_denominators_three_way_agreement(n, m, seed):
    inst = mixed_denominator_instance(n, m, seed)
    solution, table = sm.best_response_with_table(inst)
    tree = sm.choice_tree_best(inst)
    dominated, _certificate = sm.dominated_greedy_best(inst)
    assert solution.utility == tree.utility == dominated.utility
    assert solution.utility == sum((inst.utility[i] for i in solution.bundle.items), Fraction(0))
    for result in (solution, tree, dominated):
        assert type(result.utility) is Fraction
        assert type(result.bundle.total_utility) is Fraction
    for state, entry in table.items():
        assert type(entry.utility) is Fraction
        trace = sm.replay_state(inst, table, state)
        assert entry.utility == sum(
            (inst.utility[item] for item, agent in trace if agent == sm.MANIPULATOR), Fraction(0)
        )


@st.composite
def mixed_denominator_instances(draw):
    """n <= 4, m <= 7: any rankings and policy, and distinct utilities whose
    denominators are drawn from 1, 2, 3, 5, 7 and 12, decreasing along the
    manipulator's ranking."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
    items = [f"g{i}" for i in range(1, m + 1)]
    rankings = {agent: draw(st.permutations(items)) for agent in range(1, n + 1)}
    policy = draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
    fraction = st.builds(Fraction, st.integers(1, 40), st.sampled_from((1, 2, 3, 5, 7, 12)))
    values = draw(st.lists(fraction, min_size=m, max_size=m, unique=True))
    utility = dict(zip(rankings[1], sorted(values, reverse=True)))
    return sm.make_instance(items, n, policy, rankings, utility)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mixed_denominator_instances())
def test_mixed_denominator_property_three_way_agreement_and_half_bound(inst):
    solution, _table = sm.best_response_with_table(inst)
    tree = sm.choice_tree_best(inst)
    dominated, _certificate = sm.dominated_greedy_best(inst)
    truthful = sm.truthful_response(inst)
    assert solution.utility == tree.utility == dominated.utility
    assert 2 * truthful.utility >= solution.utility
    for result in (solution, tree, dominated, truthful):
        assert type(result.utility) is Fraction
        assert result.utility == sum((inst.utility[i] for i in result.bundle.items), Fraction(0))


def test_prime_denominators_n2_m200():
    base = sm.generate_random_instance(2, 200, seed=3)
    rng = random.Random(3)
    primes = first_primes(200)
    utility = {
        item: (200 - pos) + Fraction(rng.randrange(1, p), p)
        for pos, (item, p) in enumerate(zip(base.manipulator_ranking, primes))
    }
    inst = sm.make_instance(base.items, 2, base.policy, base.rankings, utility)
    assert inst.view.scale == math.prod(primes)
    solution, table = sm.best_response_with_table(inst)
    assert type(solution.utility) is Fraction
    assert solution.utility == sum((inst.utility[i] for i in solution.bundle.items), Fraction(0))
    truthful = sm.truthful_response(inst).utility
    assert truthful <= solution.utility <= 2 * truthful
    replayed = sm.manipulator_bundle(inst, sm.execute(inst, solution.strategy))
    assert replayed == solution.bundle


# Fraction's arithmetic and comparison methods, as the solvers would reach them.
_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def count_fraction_ops(monkeypatch) -> Counter:
    """From now on, count every call of the methods in ``_FRACTION_OPS``."""
    calls: Counter = Counter()
    for name in _FRACTION_OPS:
        original = getattr(Fraction, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counting)
    return calls


def test_dp_build_does_no_fraction_arithmetic(monkeypatch):
    base = sm.generate_random_instance(2, 60, seed=4)
    inst = base.with_policy([1 + t % 2 for t in range(60)])
    calls = count_fraction_ops(monkeypatch)
    table = dp._build(inst, 10**7)[0]
    assert len(table) > 400
    assert sum(calls.values()) == 0, calls


def test_dp_build_makes_a_state_only_for_stored_states(monkeypatch):
    """Candidates and stored states are int keys; the build makes no
    ``DPState`` at all, and the table decodes one only when it is read."""
    base = sm.generate_random_instance(2, 60, seed=4)
    inst = base.with_policy([1 + t % 2 for t in range(60)])
    made = 0
    state_type = dp.DPState

    def counting_state(*args):
        nonlocal made
        made += 1
        return state_type(*args)

    monkeypatch.setattr(dp, "DPState", counting_state)
    table = dp._build(inst, 10**7)[0]
    assert len(table) > 400
    assert made == 0, made
    assert len(list(table)) == made == len(table)


def test_choice_tree_fraction_ops_do_not_grow_with_nodes(monkeypatch):
    instances = [
        sm.generate_random_instance(2, m, seed=6).with_policy([1 + t % 2 for t in range(m)])
        for m in (2, 4, 6)
    ]
    # The m=6 search expands many more states than the m=2 one.
    choice_tree_best(instances[0], budget=5)
    with pytest.raises(sm.BudgetExceeded):
        choice_tree_best(instances[-1], budget=20)
    counts = []
    for inst in instances:
        calls = count_fraction_ops(monkeypatch)
        choice_tree_best(inst)
        counts.append(sum(calls.values()))
        monkeypatch.undo()
    assert counts == [counts[0]] * len(counts) and counts[0] <= 2, counts


def test_is_crucial_agrees_with_the_choice_tree_definition():
    """The crucial check compares integer greedy weights of the dominated
    walk; the definition compares ``Fraction`` optima of one choice tree
    per strictly dominated policy.  Both answer alike when ``scale > 1``."""
    crucial = 0
    for n, m, seed in MIXED_POOL[::3]:
        inst = mixed_denominator_instance(n, m, seed)
        expected = crucial_by_choice_tree(inst)
        assert sm.is_crucial(inst) == expected, (n, m, seed)
        crucial += expected
    assert 0 < crucial < len(MIXED_POOL[::3])
