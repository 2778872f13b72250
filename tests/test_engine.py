import random
from fractions import Fraction

import pytest

import seqmanip as sm
from seqmanip import sweeps
from paper_lemmas import check_feasible, considered_before, invariance_related, is_greedy_stepwise, splice
from paper_lemmas import trace_feasible_stepwise, witness_strategy
from _util import (
    check_dominance_construction,
    check_move_preservation,
    check_truthful_monotonicity,
    random_instances,
    random_strategy,
)


TRUTHFUL_EX1 = (("a", 1), ("e", 3), ("c", 2), ("b", 2), ("d", 1))


def test_execute_truthful_example1(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    assert trace == TRUTHFUL_EX1
    assert sm.bundle_items(trace, 1) == {"a", "d"}
    assert sm.bundle_items(trace, 2) == {"c", "b"}
    assert sm.bundle_items(trace, 3) == {"e"}


def test_execute_misreport_example1(ex1):
    trace = sm.execute(ex1, ("b", "a", "c", "d", "e"))
    assert sm.bundle_items(trace, 1) == {"b", "a"}


def test_execute_single_item_forced():
    inst = sm.make_instance(["a"], 1, [1], {1: ["a"]}, {"a": 1})
    assert sm.execute(inst, ("a",)) == (("a", 1),)


def test_execute_requires_permutation(ex1):
    with pytest.raises(ValueError):
        sm.execute(ex1, ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        sm.execute(ex1, ("a", "b", "c", "d", "d"))


def test_execute_is_pure(ex1):
    strategy = ("d", "b", "a", "e", "c")
    assert sm.execute(ex1, strategy) == sm.execute(ex1, strategy)


def test_check_feasible_example1_trace(ex1):
    ok, strategy = check_feasible(ex1, TRUTHFUL_EX1)
    assert ok
    assert strategy == ("a", "d", "b", "c", "e")


def test_check_feasible_detects_untruthful_step(ex1):
    ok, strategy = check_feasible(ex1, (("a", 1), ("b", 3)))
    assert not ok and strategy is None


def test_check_feasible_empty_prefix(ex1):
    ok, strategy = check_feasible(ex1, ())
    assert ok and strategy is None


def test_check_feasible_rejects_policy_mismatch(ex1):
    with pytest.raises(ValueError):
        check_feasible(ex1, (("a", 2),))
    with pytest.raises(ValueError):
        check_feasible(ex1, tuple(TRUTHFUL_EX1) + (("f", 1),))


def test_feasibility_closure(ex1):
    rng = random.Random(11)
    for inst, _seed in random_instances(80, seed=11):
        strategy = random_strategy(inst, rng)
        trace = sm.execute(inst, strategy)
        ok, associated = check_feasible(inst, trace)
        assert ok
        assert sm.execute(inst, associated) == trace


def test_considered_before_truthful_example1(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    # agent 2's last item within three allocations is c, better than b
    assert not considered_before(ex1, trace, "b", 2, 3)
    # after taking b itself: not strictly below b
    assert not considered_before(ex1, trace, "b", 2, 4)
    # b stays agent 2's last item; e ranks below it, c above it
    assert not considered_before(ex1, trace, "e", 2, 4)
    assert considered_before(ex1, trace, "c", 2, 4)
    assert considered_before(ex1, trace, "c", 2, 5)


def test_considered_before_misreport_example1(ex1):
    trace = sm.execute(ex1, ("b", "a", "c", "d", "e"))
    # agent 2 reaches past b only once it takes d at the fourth allocation
    assert not considered_before(ex1, trace, "b", 2, 3)
    assert considered_before(ex1, trace, "b", 2, 4)
    assert not considered_before(ex1, trace, "b", 3, 5)


def test_considered_before_nothing_received(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    assert not considered_before(ex1, trace, "a", 2, 2)  # agent 2 idle so far
    assert not considered_before(ex1, trace, "a", 2, 0)


def test_considered_before_argument_errors(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    with pytest.raises(ValueError):
        considered_before(ex1, trace, "a", 1, 3)
    with pytest.raises(ValueError):
        considered_before(ex1, trace, "a", 2, 6)


def test_is_greedy_accepts_greedy_trace(ex1):
    trace, _ = sm.greedy_alg(ex1)
    assert trace == (("e", 1), ("b", 3), ("c", 2), ("d", 2), ("a", 1))
    assert is_greedy_stepwise(ex1, trace)


def test_is_greedy_rejects_optimal_trace(ex1):
    # the optimal first pick b is not agent 3's favourite e
    trace = sm.execute(ex1, ("b", "a", "c", "d", "e"))
    assert not is_greedy_stepwise(ex1, trace)


def test_is_greedy_vacuous_without_manipulator_turns():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    trace = sm.execute(inst, ("a", "b"))
    assert is_greedy_stepwise(inst, trace)


def test_is_greedy_raises_on_infeasible(ex1):
    with pytest.raises(ValueError):
        is_greedy_stepwise(ex1, (("a", 1), ("b", 3)))  # agent 3 wants e, not b


def test_a_trace_longer_than_the_item_count_is_infeasible():
    # Every item appears, but agent 2's second step repeats b: the trace
    # has one step more than there are items.
    rankings = {1: ["a", "b", "c"], 2: ["b", "c", "a"]}
    inst = sm.make_instance(["a", "b", "c"], 2, [1, 2, 1], rankings, {"a": 3, "b": 2, "c": 1})
    assert trace_feasible_stepwise(inst, (("a", 1), ("b", 2), ("c", 1), ("b", 2))) is False


def test_unknown_agent_is_infeasible(ex1):
    # True and 1.0 hash as agent 1 does, but only an exact int is an agent.
    for agent in (True, 1.0, 0, ex1.n_agents + 1):
        trace = (("a", 1), ("e", agent))
        assert not trace_feasible_stepwise(ex1, trace)
        assert not trace_feasible_stepwise(ex1, (("b", agent),))
        with pytest.raises(ValueError):
            is_greedy_stepwise(ex1, trace)


def _mutants(inst, trace, rng):
    """Traces near ``trace``: two steps swapped, an item repeated, an
    unknown item, and an agent out of range."""
    if len(trace) >= 2:
        i, j = sorted(rng.sample(range(len(trace)), 2))
        swapped = list(trace)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield tuple(swapped)
        yield trace[:j] + ((trace[i][0], trace[j][1]),) + trace[j + 1 :]
    if trace:
        k = rng.randrange(len(trace))
        yield trace[:k] + (("no such item", trace[k][1]),) + trace[k + 1 :]
        bad_agent = rng.choice((0, inst.n_agents + 1))
        yield trace[:k] + ((trace[k][0], bad_agent),) + trace[k + 1 :]


def _reproduced_by_its_witness(inst, seq):
    """Feasibility by its existential definition: some picking strategy,
    played on the trace's own turns padded with manipulator turns,
    reproduces the trace; if one does, the witness does."""
    try:
        variant = inst.with_policy([agent for _, agent in seq] + [sm.MANIPULATOR] * (inst.m - len(seq)))
        return sm.execute(variant, witness_strategy(inst, seq))[: len(seq)] == tuple(seq)
    except ValueError:  # repeated or unknown picks, an agent out of range, too many steps
        return False


def test_trace_feasible_matches_stepwise_reference():
    rng = random.Random(43)
    verdicts = {True: 0, False: 0}
    for inst, _seed in random_instances(200, seed=43, max_items=8):
        # a trace of the instance's policy and one of a random turn order
        other = inst.with_policy(rng.choice(range(1, inst.n_agents + 1)) for _ in range(inst.m))
        for variant in (inst, other):
            trace = sm.execute(variant, random_strategy(inst, rng))
            for end in range(len(trace) + 1):
                prefix = trace[:end]
                for seq in (prefix, *_mutants(inst, prefix, rng)):
                    expected = trace_feasible_stepwise(inst, seq)
                    assert _reproduced_by_its_witness(inst, seq) == expected, (inst, seq)
                    verdicts[expected] += 1
    assert min(verdicts.values()) > 1000


def test_invariance_relation_reflexive(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    assert invariance_related(trace, trace)
    assert invariance_related(trace[:3], trace[:3])


def test_invariance_relation_positive_case():
    a = (("w", 1), ("x", 2), ("y", 1), ("z", 2))
    b = (("w", 1), ("x", 1), ("y", 2), ("z", 2))
    assert invariance_related(a, b)  # same counts, same set, agent 2 ends on z


def test_invariance_relation_last_item_mismatch():
    a = (("e", 3), ("c", 2), ("b", 1), ("d", 2))
    b = (("e", 1), ("b", 3), ("c", 2), ("d", 2))
    assert not invariance_related(a, b)  # agent 3 last receives e vs b


def test_invariance_relation_count_and_set_mismatches():
    a = (("w", 1), ("x", 2))
    assert not invariance_related(a, (("w", 1), ("x", 1)))
    assert not invariance_related(a, (("w", 1), ("y", 2)))


def test_splice_example():
    inst = sm.make_instance(
        ["w", "x", "y", "z", "v"],
        2,
        [1, 2, 1, 2, 1],
        {1: ["w", "x", "y", "z", "v"], 2: ["w", "x", "y", "z", "v"]},
        {"w": 5, "x": 4, "y": 3, "z": 2, "v": 1},
    )
    base = (("w", 1), ("x", 2), ("y", 1), ("z", 2), ("v", 1))
    assert trace_feasible_stepwise(inst, base)
    replacement = (("w", 1), ("x", 1), ("y", 2), ("z", 2))
    spliced = splice(inst, base, 4, replacement)
    assert spliced == (("w", 1), ("x", 1), ("y", 2), ("z", 2), ("v", 1))
    assert trace_feasible_stepwise(inst, spliced)


def test_splice_identity_and_empty(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    assert splice(ex1, trace, 3, trace[:3]) == trace
    assert splice(ex1, trace, 0, ()) == trace


def test_splice_rejects_bad_preconditions(ex1):
    trace = sm.execute(ex1, ("a", "b", "c", "d", "e"))
    with pytest.raises(ValueError):
        splice(ex1, trace, 2, trace[:3])  # length mismatch
    with pytest.raises(ValueError):
        splice(ex1, trace[:4], 2, trace[:2])  # base not complete
    bad_prefix = (("e", 1), ("b", 3))  # unrelated to trace[:2]
    with pytest.raises(ValueError):
        splice(ex1, trace, 2, bad_prefix)


def test_splice_random_exchanges():
    # splicing any invariance-related greedy prefix into a trace stays feasible
    rng = random.Random(23)
    found = 0
    for inst, _seed in random_instances(150, seed=23, max_items=6):
        strategy = random_strategy(inst, rng)
        trace = sm.execute(inst, strategy)
        other = sm.execute(inst, random_strategy(inst, rng))
        for i in range(1, inst.m + 1):
            if invariance_related(trace[:i], other[:i]):
                spliced = splice(inst, trace, i, other[:i])
                assert trace_feasible_stepwise(inst, spliced)
                found += 1
    assert found > 50


def test_truthful_dominance_monotonicity_sampled():
    for inst, _seed in random_instances(120, seed=31, max_items=6):
        check_truthful_monotonicity(inst, limit=32)


def test_dominance_construction_sampled():
    rng = random.Random(37)
    strict = 0
    for inst, _seed in random_instances(120, seed=37, max_items=6):
        strict += check_dominance_construction(inst, random_strategy(inst, rng), rng)
    assert strict > 30  # most samples exercised a strictly dominated policy


def test_move_preservation_sampled():
    rng = random.Random(41)
    cases = 0
    for inst, _seed in random_instances(150, seed=41, max_items=6):
        cases += check_move_preservation(inst, random_strategy(inst, rng))
    assert cases > 100


def test_manipulator_bundle_utilities(ex1):
    trace = sm.execute(ex1, ("b", "a", "c", "d", "e"))
    bundle = sm.manipulator_bundle(ex1, trace)
    assert bundle.items == {"a", "b"}
    assert bundle.total_utility == Fraction(9)


BUDGETED = {
    "best_response_with_table": lambda inst, budget: sm.best_response_with_table(inst, budget=budget),
    "choice_tree_best": lambda inst, budget: sm.choice_tree_best(inst, budget=budget),
    "dominated_greedy_best": lambda inst, budget: sm.dominated_greedy_best(inst, budget=budget),
    "is_crucial": lambda inst, budget: sm.is_crucial(inst, budget=budget),
    "sweep": lambda inst, budget: sweeps.sweep([("random", 3, 6, 42)], budget=budget),
}


@pytest.mark.parametrize("solver", sorted(BUDGETED))
@pytest.mark.parametrize("budget", [True, 2.5, "5", -3])
def test_budget_keyword_must_be_a_non_negative_int(ex1, solver, budget):
    with pytest.raises(ValueError, match="budget must be a non-negative integer"):
        BUDGETED[solver](ex1, budget)


@pytest.mark.parametrize("solver", sorted(BUDGETED))
def test_budget_zero_stores_nothing(ex1, solver):
    with pytest.raises(sm.BudgetExceeded):
        BUDGETED[solver](ex1, 0)
