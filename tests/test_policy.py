import itertools
import math

import pytest

import seqmanip as sm
from paper_lemmas import dominates, move_manipulator_turn


def test_decompose_13221():
    dec = sm.decompose((1, 3, 2, 2, 1))
    assert dec.core == (3, 2, 2)
    assert dec.position_vector == (1, 5)
    assert dec.k_prefix == (0, 1, 1, 1)
    assert dec.m_prime == 3


def test_decompose_single_nonmanipulator_turn():
    dec = sm.decompose((2,))
    assert dec.core == (2,)
    assert dec.position_vector == ()
    assert dec.k_prefix == (0, 0)


def test_decompose_manipulator_only():
    dec = sm.decompose((1, 1))
    assert dec.core == ()
    assert dec.position_vector == (1, 2)
    assert dec.k_prefix == (0,)


def test_decompose_invariants_random():
    import random

    rng = random.Random(0)
    for _ in range(300):
        m = rng.randint(0, 10)
        policy = tuple(rng.randint(1, 3) for _ in range(m))
        dec = sm.decompose(policy)
        # core and position vector are the two halves of the policy
        assert dec.core == tuple(a for a in policy if a != 1)
        assert dec.position_vector == tuple(pos for pos, a in enumerate(policy, start=1) if a == 1)
        # k(x) counts the manipulator turns before the x-th core turn
        ends = [pos for pos, a in enumerate(policy, start=1) if a != 1]
        assert dec.k_prefix == (0, *(sum(1 for z in dec.position_vector if z < end) for end in ends))


def test_dominates_examples():
    assert dominates((1, 3, 2, 2, 1), (3, 2, 1, 2, 1))
    assert dominates((1, 2), (2, 1))
    assert not dominates((2, 1), (1, 2))
    for policy in [(1, 3, 2, 2, 1), (2, 1), (), (1, 1)]:
        assert dominates(policy, policy)


def test_dominates_cross_core_is_false():
    assert not dominates((1, 2), (1, 3))
    assert not dominates((1, 2), (1, 2, 2))


def test_domination_is_a_partial_order_on_fixed_core():
    # all policies over two agents up to length 6, grouped by core
    policies = [
        p
        for length in range(7)
        for p in itertools.product((1, 2), repeat=length)
    ]
    by_core: dict[tuple, list] = {}
    for p in policies:
        by_core.setdefault((len(p), sm.decompose(p).core), []).append(p)
    for group in by_core.values():
        for p1 in group:
            for p2 in group:
                d12 = dominates(p1, p2)
                d21 = dominates(p2, p1)
                if d12 and d21:
                    assert p1 == p2  # antisymmetry
                if not d12:
                    continue
                for p3 in group:
                    if dominates(p2, p3):
                        assert dominates(p1, p3)  # transitivity


def test_enumerate_dominated_13221():
    out = list(sm.enumerate_dominated((1, 3, 2, 2, 1)))
    assert out == [
        (1, 3, 2, 2, 1),
        (3, 1, 2, 2, 1),
        (3, 2, 1, 2, 1),
        (3, 2, 2, 1, 1),
    ]
    assert [sm.decompose(p).position_vector for p in out] == [(1, 5), (2, 5), (3, 5), (4, 5)]


def test_enumerate_dominated_trivial_cases():
    assert list(sm.enumerate_dominated((1, 1))) == [(1, 1)]
    assert list(sm.enumerate_dominated((2,))) == [(2,)]
    assert list(sm.enumerate_dominated(())) == [()]


def test_enumerate_dominated_is_lazy():
    gen = sm.enumerate_dominated((1,) * 8 + (2,) * 8)
    assert next(gen) == (1,) * 8 + (2,) * 8


def test_enumerate_dominated_properties():
    import random

    rng = random.Random(1)
    for _ in range(120):
        m = rng.randint(0, 7)
        policy = tuple(rng.randint(1, 3) for _ in range(m))
        k1 = sum(1 for a in policy if a == 1)
        seen = set()
        previous = None
        for p in sm.enumerate_dominated(policy):
            assert dominates(policy, p)
            assert sm.decompose(p).core == sm.decompose(policy).core
            assert p not in seen
            seen.add(p)
            vec = sm.decompose(p).position_vector
            if previous is not None:
                assert previous < vec  # lexicographic order
            previous = vec
        assert len(seen) <= math.comb(m, k1)
        # every policy the domination test accepts is enumerated
        for q in itertools.product(range(1, 4), repeat=m):
            if dominates(policy, q):
                assert q in seen


def test_enumerate_dominated_starts_at_the_policy_itself():
    for policy in [(1, 3, 2, 2, 1, 1, 3), (1, 1, 2), (2, 1, 1), (3, 1, 2, 1)]:
        dec = sm.decompose(policy)
        out = list(sm.enumerate_dominated(policy))
        assert out[0] == policy
        assert out[-1] == dec.core + (1,) * len(dec.position_vector)


def test_move_manipulator_turn():
    assert move_manipulator_turn((1, 3, 2, 2, 1), 1, 3) == (3, 2, 1, 2, 1)
    assert move_manipulator_turn((1, 3, 2, 2, 1), 1, 1) == (1, 3, 2, 2, 1)
    assert move_manipulator_turn((1, 1, 2), 1, 3) == (1, 2, 1)
    with pytest.raises(ValueError):
        move_manipulator_turn((1, 3, 2, 2, 1), 2, 3)  # position 2 is agent 3
    with pytest.raises(ValueError):
        move_manipulator_turn((1, 3, 2, 2, 1), 1, 6)

