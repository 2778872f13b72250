import gc
import itertools
import sys
import threading
import weakref
from fractions import Fraction

import pytest

import seqmanip as sm
from _util import achievable_bundles_exact, crucial_by_choice_tree, random_instances


def test_choice_tree_example1(ex1):
    sol = sm.choice_tree_best(ex1)
    assert sol.bundle.items == {"a", "b"}
    assert sol.utility == Fraction(9)
    # solution internal consistency
    replay = sm.execute(ex1, sol.strategy)
    assert sm.bundle_items(replay, 1) == sol.bundle.items
    assert sol.utility == sol.bundle.total_utility


def test_choice_tree_tightness():
    inst = sm.generate_tightness_instance(10)
    sol = sm.choice_tree_best(inst)
    assert sol.bundle.items == {"g2", "g1"}
    assert sol.utility == Fraction(19, 10)


def test_choice_tree_no_manipulator_turns():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    sol = sm.choice_tree_best(inst)
    assert sol.bundle.items == frozenset()
    assert sol.utility == 0


def test_choice_tree_budget_exceeded():
    inst = sm.generate_random_instance(2, 6, seed=1)
    with pytest.raises(sm.BudgetExceeded):
        sm.choice_tree_best(inst, budget=3)


def _assert_tree_matches_brute_force(inst) -> bool:
    rank = {item: r for r, item in enumerate(inst.manipulator_ranking)}
    outcomes = {}
    for strategy in itertools.permutations(inst.items):
        bundle = sm.bundle_items(sm.execute(inst, strategy), 1)
        outcomes[bundle] = sum((inst.utility[i] for i in bundle), Fraction(0))
    best_util = max(outcomes.values())
    winners = [b for b, u in outcomes.items() if u == best_util]
    expected = min(winners, key=lambda b: tuple(sorted(rank[i] for i in b)))
    sol = sm.choice_tree_best(inst)
    assert sol.utility == best_util
    assert sol.bundle.items == expected
    return len(winners) > 1


def test_choice_tree_matches_brute_force_random():
    for inst, _seed in random_instances(60, seed=13, agents=(2, 3), max_items=5, min_items=2):
        _assert_tree_matches_brute_force(inst)


def test_choice_tree_tie_break_smallest_bundle_wins():
    # The manipulator's first and fourth items are worth as much as its second
    # and third; agent 2 ranks like it, and agent 3's ranking decides which
    # are reachable.  Whenever both optima are reachable the bundle holding
    # its first item must win.  In the second row item-index order is not the
    # manipulator's rank order.
    items = ["a", "b", "c", "d"]
    rows = [
        (("a", "b", "c", "d"), {"a": 5, "b": 4, "c": 3, "d": 2}),
        (("d", "c", "b", "a"), {"d": 5, "c": 4, "b": 3, "a": 2}),
    ]
    for ranking, utility in rows:
        ties = 0
        for r3 in itertools.permutations(items):
            inst = sm.make_instance(items, 3, (1, 2, 3, 1), {1: ranking, 2: ranking, 3: r3}, utility)
            ties += _assert_tree_matches_brute_force(inst)
        assert ties >= 4, ranking


def test_choice_tree_tie_break_pinned_example():
    inst = sm.make_instance(
        ["a", "b", "c", "d"],
        3,
        (1, 2, 3, 1),
        {1: ("a", "b", "c", "d"), 2: ("a", "b", "c", "d"), 3: ("a", "c", "d", "b")},
        {"a": 5, "b": 4, "c": 3, "d": 2},
    )
    sol = sm.choice_tree_best(inst)
    assert sol.utility == Fraction(7)  # both {a,d} and {b,c} reach 7
    assert sol.bundle.items == {"a", "d"}


def _sets_before_each_turn(inst) -> int:
    """Distinct allocated sets before turns 0..m-1 over every strategy."""
    sets = set()
    for strategy in itertools.permutations(inst.items):
        trace = sm.execute(inst, strategy)
        sets.update(frozenset(item for item, _agent in trace[:pos]) for pos in range(inst.m))
    return len(sets)


def test_choice_tree_budget_counts_the_sets_before_each_turn(ex1):
    instances = [ex1] + [inst for inst, _seed in random_instances(20, seed=29, agents=(2, 3), max_items=6)]
    for inst in instances:
        count = _sets_before_each_turn(inst)
        sm.choice_tree_best(inst, budget=count)
        with pytest.raises(sm.BudgetExceeded):
            sm.choice_tree_best(inst, budget=count - 1)


def test_dominated_greedy_example1(ex1):
    sol, certificate = sm.dominated_greedy_best(ex1)
    assert sol.utility == Fraction(9)
    assert sol.bundle.items == {"a", "b"}
    assert certificate == (3, 2, 1, 2, 1)
    assert sm.dominates(ex1.policy, certificate)


def test_dominated_greedy_bundles_per_policy(ex1):
    expected = {
        (1, 3, 2, 2, 1): {"e", "a"},
        (3, 1, 2, 2, 1): {"c", "a"},
        (3, 2, 1, 2, 1): {"b", "a"},
        (3, 2, 2, 1, 1): {"a", "d"},
    }
    for pol, bundle in expected.items():
        trace, _ = sm.greedy_alg(ex1.with_policy(pol))
        assert sm.bundle_items(trace, 1) == bundle


def test_dominated_greedy_manipulator_only():
    inst = sm.make_instance(
        ["a", "b", "c"], 1, [1, 1, 1], {1: ["a", "b", "c"]}, {"a": 3, "b": 2, "c": 1}
    )
    sol, certificate = sm.dominated_greedy_best(inst)
    assert certificate == (1, 1, 1)
    assert sol.bundle.items == {"a", "b", "c"}


def test_dominated_greedy_tightness_certificate():
    # greedy on the original policy already earns 2 - eps; the only other
    # dominated policy 211 earns 1 + eps, so the certificate is 121 itself
    inst = sm.generate_tightness_instance(10)
    sol, certificate = sm.dominated_greedy_best(inst)
    assert certificate == (1, 2, 1)
    assert sol.bundle.items == {"g2", "g1"}
    assert sol.utility == Fraction(19, 10)
    delayed, _ = sm.greedy_alg(inst.with_policy((2, 1, 1)))
    assert sm.manipulator_bundle(inst, delayed).total_utility == Fraction(11, 10)


def test_dominated_greedy_budget_exceeded(ex1):
    with pytest.raises(sm.BudgetExceeded):
        sm.dominated_greedy_best(ex1, budget=2)


def test_is_crucial_example1(ex1):
    assert not sm.is_crucial(ex1)
    assert sm.is_crucial(ex1.with_policy((3, 2, 1, 2, 1)))


def test_is_crucial_vacuous_when_no_strict_dominatee():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 1], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    assert sm.is_crucial(inst)


def test_oracles_agree_with_dp_sampled():
    for inst, seed in random_instances(150, seed=17, max_items=7):
        tree = sm.choice_tree_best(inst)
        dom, _ = sm.dominated_greedy_best(inst)
        dp = sm.best_response_with_table(inst)[0]
        assert tree.utility == dom.utility == dp.utility, f"seed={seed}"


def test_dominated_instance_upper_bound():
    # optimal utility never improves under a dominated policy
    for inst, seed in random_instances(60, seed=19, max_items=6):
        own = sm.choice_tree_best(inst).utility
        for pol in sm.enumerate_dominated(inst.policy):
            assert sm.choice_tree_best(inst.with_policy(pol)).utility <= own, f"seed={seed}"


def test_achievable_bundles_direct_search(ex1):
    assert achievable_bundles_exact(ex1, frozenset({"a", "b"}))
    assert achievable_bundles_exact(ex1, frozenset({"a", "e"}))
    assert not achievable_bundles_exact(ex1, frozenset({"b", "c"}))
    assert not achievable_bundles_exact(ex1, frozenset({"a"}))  # wrong size


def test_budget_env_var_override(monkeypatch):
    monkeypatch.setenv("SEQMANIP_BUDGET", "3")
    inst = sm.generate_random_instance(2, 6, seed=1)
    with pytest.raises(sm.BudgetExceeded):
        sm.choice_tree_best(inst)
    monkeypatch.delenv("SEQMANIP_BUDGET")
    sm.choice_tree_best(inst)


def test_crucial_optimum_multiplicity_logged_not_asserted():
    # the greedy trace always realises the optimum on a crucial instance, but
    # other optimal traces can coexist (two trailing manipulator turns may
    # swap their pick order), so multiplicity is only logged
    multiple = 0
    for inst, seed in random_instances(60, seed=101, agents=(2, 3), max_items=4, min_items=2):
        if not sm.is_crucial(inst):
            continue
        best = sm.choice_tree_best(inst).utility
        optimal_traces = set()
        for strategy in itertools.permutations(inst.items):
            trace = sm.execute(inst, strategy)
            if sm.manipulator_bundle(inst, trace).total_utility == best:
                optimal_traces.add(trace)
        greedy_trace, _ = sm.greedy_alg(inst)
        assert greedy_trace in optimal_traces
        if len(optimal_traces) > 1:
            multiple += 1
            print(f"crucial instance seed={seed}: {len(optimal_traces)} optimal traces")
    print(f"crucial instances with multiple optimal traces: {multiple}")


def test_is_crucial_matches_the_choice_tree_definition():
    crucial = 0
    for inst, seed in random_instances(150, seed=23, agents=(2, 3), max_items=6):
        expected = crucial_by_choice_tree(inst)
        assert sm.is_crucial(inst) == expected, f"seed={seed}"
        crucial += expected
    assert 0 < crucial < 150


def test_is_crucial_budget_caps_the_dominated_searches(ex1):
    with pytest.raises(sm.BudgetExceeded):
        sm.is_crucial(ex1, budget=3)
    assert not sm.is_crucial(ex1)


def _six_items(other=("g4", "g2", "g6", "g1", "g3", "g5")):
    """A fresh n=2 m=6 instance with 7 dominated policies; ``other`` is
    agent 2's ranking."""
    from seqmanip import sweeps

    return sweeps.build_instance(("exhaustive", 2, (2, 1, 2, 1, 1, 2), (other,)))


@pytest.mark.parametrize("solve", [sm.dominated_greedy_best, sm.is_crucial], ids=["optimum", "crucial"])
def test_a_budget_of_the_dominated_policy_count_answers_and_one_less_raises(walks, solve):
    inst = _six_items()
    count = len(list(sm.enumerate_dominated(inst.policy)))
    assert count > 2
    with pytest.raises(sm.BudgetExceeded, match=f"^dominated-policy enumeration exceeded {count - 1} policies$"):
        solve(inst, budget=count - 1)
    assert solve(inst, budget=count) == solve(inst)
    # Every call walks afresh: the oracles keep no walk between calls.
    assert walks == [inst] * 3


def test_a_walk_that_raised_keeps_nothing(walks):
    inst = _six_items()
    with pytest.raises(sm.BudgetExceeded):
        sm.is_crucial(inst, budget=1)
    sm.is_crucial(inst)
    assert walks == [inst, inst]


def test_the_oracles_keep_no_reference_to_an_instance():
    inst = _six_items()
    sm.dominated_greedy_best(inst)
    sm.is_crucial(inst)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


def test_concurrent_calls_never_read_another_instances_walk():
    from seqmanip import sweeps

    specs = itertools.islice(sweeps.iter_exhaustive_specs(2, 5, min_items=5), 0, None, 97)
    insts = [sweeps.build_instance(spec) for spec in specs]
    expected = [(sm.dominated_greedy_best(inst), sm.is_crucial(inst)) for inst in insts]
    wrong = []

    def run(offset):
        for _ in range(3):
            for j in range(len(insts)):
                i = (j + offset) % len(insts)
                got = (sm.dominated_greedy_best(insts[i]), sm.is_crucial(insts[i]))
                if got != expected[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_is_crucial_matches_the_definition_on_the_exhaustive_n2_m5_pool():
    # The crucial check reads the strict dominatees' greedy outcomes off
    # the dominated walk; the definition runs one choice tree per strictly
    # dominated policy.
    from seqmanip import sweeps

    crucial = 0
    for spec in sweeps.iter_exhaustive_specs(2, 5, min_items=5):
        inst = sweeps.build_instance(spec)
        expected = crucial_by_choice_tree(inst)
        assert sm.is_crucial(inst) == expected, spec
        crucial += expected
    assert 0 < crucial < 3840


def test_dominated_greedy_walk_matches_a_greedy_run_per_dominated_policy():
    """The prefix-sharing walk picks what one greedy run per enumerated
    dominated policy picks, ties to the first policy included."""
    for inst, seed in random_instances(200, seed=31, agents=(2, 3, 4), max_items=8):
        best_utility, best_policy = None, None
        for pol in sm.enumerate_dominated(inst.policy):
            trace, _strategy = sm.greedy_alg(inst.with_policy(pol))
            utility = sm.manipulator_bundle(inst, trace).total_utility
            if best_utility is None or utility > best_utility:
                best_utility, best_policy = utility, pol
        solution, certificate = sm.dominated_greedy_best(inst)
        assert (solution.utility, certificate) == (best_utility, best_policy), f"seed={seed}"
        _trace, strategy = sm.greedy_alg(inst.with_policy(certificate))
        assert solution.strategy == strategy, f"seed={seed}"


def test_dominated_greedy_and_the_crucial_check_build_no_instance_per_policy(monkeypatch, ex1):
    """The certificate is the greedy trace of the best policy on the
    instance itself, and the crucial check reads the same walk over the
    instance's own view, so neither needs ``with_policy``."""
    instances = [ex1] + [inst for inst, _seed in random_instances(100, seed=71, agents=(2, 3, 4), max_items=7)]
    expected = [(sm.dominated_greedy_best(inst), sm.is_crucial(inst)) for inst in instances]
    assert {crucial for _dominated, crucial in expected} == {True, False}

    def refuse(self, policy):
        raise AssertionError("an instance was built for a dominated policy")

    monkeypatch.setattr(sm.Instance, "with_policy", refuse)
    for inst, (dominated, crucial) in zip(instances, expected):
        assert sm.dominated_greedy_best(inst) == dominated
        assert sm.is_crucial(inst) == crucial


def test_dominated_greedy_ties_go_to_the_first_dominated_policy():
    from seqmanip import sweeps

    others = (("g1", "g2", "g3", "g4"), ("g1", "g3", "g4", "g2"))
    inst = sweeps.build_instance(("exhaustive", 3, (1, 2, 3, 1), others))
    utilities = [
        sm.manipulator_bundle(inst, sm.greedy_alg(inst.with_policy(pol))[0]).total_utility
        for pol in sm.enumerate_dominated(inst.policy)
    ]
    assert utilities == [5, 5, 4]
    _solution, certificate = sm.dominated_greedy_best(inst)
    assert certificate == inst.policy


def test_dominated_greedy_walks_policies_longer_than_the_recursion_limit():
    import sys

    m = sys.getrecursionlimit() + 100
    inst = sm.generate_random_instance(2, m, seed=2).with_policy([2] * (m - 2) + [1, 2])
    solution, certificate = sm.dominated_greedy_best(inst)
    assert certificate in (inst.policy, (2,) * (m - 1) + (1,))
    trace, _strategy = sm.greedy_alg(inst.with_policy(certificate))
    assert solution.utility == sm.manipulator_bundle(inst, trace).total_utility


def test_no_search_has_a_depth_limit():
    import sys

    m = sys.getrecursionlimit() + 100
    inst = sm.generate_random_instance(2, m, seed=2).with_policy([2] * (m - 2) + [1, 2])
    tree = sm.choice_tree_best(inst)
    dominated, _certificate = sm.dominated_greedy_best(inst)
    assert tree.utility == dominated.utility == sm.best_response_with_table(inst)[0].utility
    assert sm.is_crucial(inst) == crucial_by_choice_tree(inst)
    assert achievable_bundles_exact(inst, tree.bundle.items)
