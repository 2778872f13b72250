import itertools
import random
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

import seqmanip as sm
from seqmanip import dp, sweeps
from seqmanip.dp import DPState, best_response_with_table
from seqmanip.policy import decompose
from paper_lemmas import dominates, invariance_related, is_greedy_stepwise, replay_state, trace_feasible_stepwise
from _reference_dp import reference_build
from _util import mixed_denominator_instance, random_instances, round_robin_instance

# The (n, m) points of the benchmark's DP grid, here as generated instances
# under the round-robin policy.
GRID = [(2, 200), (3, 90), (4, 40), (5, 24)]


def test_first_stage_states_example1(ex1):
    table = best_response_with_table(ex1)[1]
    stage1 = {state: entry for state, entry in table.items() if state.x == 1}
    assert set(stage1) == {DPState(1, 0, (0, 1)), DPState(1, 1, (0, 2))}
    assert stage1[DPState(1, 0, (0, 1))].utility == 0
    assert stage1[DPState(1, 1, (0, 2))].utility == Fraction(1)  # picked e
    assert replay_state(ex1, table, DPState(1, 0, (0, 1))) == (("e", 3),)
    assert replay_state(ex1, table, DPState(1, 1, (0, 2))) == (("e", 1), ("b", 3))


def test_collision_keeps_better_candidate_example1(ex1):
    # two traces reach (3, 1, (4, 1)): one paid for b, the other for c
    table = best_response_with_table(ex1)[1]
    state = DPState(3, 1, (4, 1))
    assert table[state].utility == Fraction(4)
    assert replay_state(ex1, table, state) == (
        ("e", 3),
        ("c", 2),
        ("b", 1),
        ("d", 2),
    )


def test_best_response_example1(ex1):
    solution, table = best_response_with_table(ex1)
    assert solution.bundle.items == {"a", "b"}
    assert solution.utility == Fraction(9)
    assert solution.sequence == (("e", 3), ("c", 2), ("b", 1), ("d", 2), ("a", 1))
    assert solution.strategy == ("b", "a", "c", "d", "e")
    assert DPState(3, 1, (4, 1)) in table


def test_tightness_best_response():
    inst = sm.generate_tightness_instance(10)
    solution = sm.best_response_with_table(inst)[0]
    assert solution.bundle.items == {"g2", "g1"}
    assert solution.utility == Fraction(19, 10)


def test_manipulator_only_policy_uses_base_state_only():
    inst = sm.make_instance(
        ["a", "b", "c"], 1, [1, 1, 1], {1: ["a", "b", "c"]}, {"a": 3, "b": 2, "c": 1}
    )
    table = best_response_with_table(inst)[1]
    assert set(table) == {DPState(0, 0, ())}
    solution = sm.best_response_with_table(inst)[0]
    assert solution.bundle.items == {"a", "b", "c"}
    assert solution.utility == Fraction(6)


def test_empty_instance():
    inst = sm.make_instance([], 2, [], {1: [], 2: []}, {})
    solution = sm.best_response_with_table(inst)[0]
    assert solution.bundle.items == frozenset()
    assert solution.utility == 0
    assert solution.sequence == ()


def test_no_manipulator_turns():
    inst = sm.make_instance(
        ["a", "b"], 2, [2, 2], {1: ["a", "b"], 2: ["b", "a"]}, {"a": 2, "b": 1}
    )
    solution = sm.best_response_with_table(inst)[0]
    assert solution.bundle.items == frozenset()
    assert solution.utility == 0


def test_table_invariants_on_random_instances():
    for inst, seed in random_instances(120, seed=29, max_items=7):
        dec = decompose(inst.policy)
        table = best_response_with_table(inst)[1]
        for state, entry in table.items():
            assert 0 <= state.x <= dec.m_prime
            assert 0 <= state.y <= dec.k_prefix[state.x] if state.x else state.y == 0
            trace = replay_state(inst, table, state)
            assert len(trace) == state.x + state.y
            assert trace_feasible_stepwise(inst, trace)
            assert is_greedy_stepwise(inst, trace)
            if trace:
                assert trace[-1][1] != sm.MANIPULATOR
            # per-prefix manipulator counts stay within the original policy's
            replayed_policy = tuple(agent for _, agent in trace)
            replayed_dec = decompose(replayed_policy)
            assert replayed_dec.m_prime == state.x
            for r in range(1, state.x + 1):
                assert replayed_dec.k_prefix[r] <= dec.k_prefix[r], f"seed={seed}"
            # last-rank coordinates match the replayed trace
            for agent in range(2, inst.n_agents + 1):
                received = [item for item, a in trace if a == agent]
                expected = (
                    inst.rankings[agent].index(received[-1]) + 1 if received else 0
                )
                assert state.last_rank[agent - 2] == expected
            # utility recorded for the manipulator's share of the trace
            assert entry.utility == sm.manipulator_bundle(inst, trace).total_utility


def test_solution_trace_policy_is_dominated():
    for inst, seed in random_instances(150, seed=43, max_items=8):
        solution = sm.best_response_with_table(inst)[0]
        recovered = tuple(agent for _, agent in solution.sequence)
        assert dominates(inst.policy, recovered), f"seed={seed}"
        assert is_greedy_stepwise(inst, solution.sequence)


def test_metamorphic_relations_hold_past_the_oracles_reach():
    # Scaling every utility by c scales the optimum by c; renaming the
    # items, permuting the labels 2..n and adding an idle agent n + 1 (a
    # ranking, no turn) leave it unchanged.
    rng = random.Random(97)

    def optimum(items, n, policy, rankings, utility):
        return best_response_with_table(sm.make_instance(items, n, policy, rankings, utility))[0].utility

    for inst, seed in random_instances(60, seed=97, max_items=40):
        n, items, policy, rankings, utility = inst.n_agents, inst.items, inst.policy, inst.rankings, inst.utility
        best = best_response_with_table(inst)[0].utility
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert optimum(items, n, policy, rankings, {i: u * c for i, u in utility.items()}) == best * c, f"seed={seed}"
        name = dict(zip(items, (f"r{k}" for k in rng.sample(range(1000), inst.m))))
        renamed = {a: [name[i] for i in r] for a, r in rankings.items()}
        assert optimum(name.values(), n, policy, renamed, {name[i]: u for i, u in utility.items()}) == best, f"seed={seed}"
        label = {1: 1, **dict(zip(range(2, n + 1), rng.sample(range(2, n + 1), n - 1)))}
        relabelled = {label[a]: r for a, r in rankings.items()}
        assert optimum(items, n, [label[a] for a in policy], relabelled, utility) == best, f"seed={seed}"
        idle = {**rankings, n + 1: rng.sample(items, inst.m)}
        assert optimum(items, n + 1, policy, idle, utility) == best, f"seed={seed}"


def test_agents_sharing_one_ranking_act_as_one_agent():
    # When agents 2..n share one ranking, each of their turns takes the top
    # remaining item of that ranking, whoever's turn it is: the optimum is
    # that of the n = 2 instance where agent 2 takes all their turns.  The
    # n-agent build keeps a last rank per agent, the n = 2 build one.
    for inst, seed in random_instances(300, seed=101, agents=(3, 4, 5), max_items=40):
        items, ranking = inst.items, inst.rankings[2]
        shared = {1: inst.rankings[1], **{agent: ranking for agent in range(2, inst.n_agents + 1)}}
        merged = [min(agent, 2) for agent in inst.policy]
        many = sm.make_instance(items, inst.n_agents, inst.policy, shared, inst.utility)
        two = sm.make_instance(items, 2, merged, {1: inst.rankings[1], 2: ranking}, inst.utility)
        assert best_response_with_table(many)[0].utility == best_response_with_table(two)[0].utility, f"seed={seed}"


def _check_every_transition(inst) -> int:
    """Step every stored state below the last stage by one segment for each
    allowed q, independently of the DP's own stage step.  Each target must be
    stored, each candidate trace must be invariance-related to the stored
    trace of its target, and the stored entry must be the candidate with the
    highest utility and, among those, the smallest (q, pred).  Returns the
    number of targets where two best candidates had the same q."""
    dec = decompose(inst.policy)
    _solution, table = best_response_with_table(inst)
    candidates: dict[DPState, list] = {}
    for pred, entry in table.items():
        if pred.x == dec.m_prime:
            continue
        x = pred.x + 1
        agent = dec.core[x - 1]
        trace = replay_state(inst, table, pred)
        taken = {item for item, _ in trace}
        ranking = inst.rankings[agent]
        free = [item for item in ranking if item not in taken]
        for q in range(min(dec.k_prefix[x] - pred.y, len(free) - 1) + 1):
            segment = tuple((item, sm.MANIPULATOR) for item in free[:q]) + ((free[q], agent),)
            last_rank = list(pred.last_rank)
            last_rank[agent - 2] = ranking.index(free[q]) + 1
            target = DPState(x, pred.y + q, tuple(last_rank))
            assert target in table
            assert invariance_related(trace + segment, replay_state(inst, table, target))
            utility = entry.utility + sum((inst.utility[item] for item in free[:q]), Fraction(0))
            candidates.setdefault(target, []).append((utility, q, pred))
    assert set(candidates) == {state for state in table if state.x > 0}
    same_q_ties = 0
    for state, found in candidates.items():
        best = max(utility for utility, _, _ in found)
        winners = sorted((q, pred) for utility, q, pred in found if utility == best)
        q, pred = winners[0]
        assert table[state] == sm.DPEntry(best, pred, q)
        same_q_ties += len(winners) > 1 and winners[0][0] == winners[1][0]
    return same_q_ties


def test_every_transition_keeps_the_best_candidate(ex1):
    ties = _check_every_transition(ex1)
    for inst, _seed in random_instances(80, seed=47, max_items=7):
        ties += _check_every_transition(inst)
    for m in range(8, 13):
        for seed in range(1, 61):  # seed 60 gives equal-q ties at m = 10 and 12
            ties += _check_every_transition(sm.generate_random_instance(3, m, seed))
    assert ties >= 1


@pytest.mark.parametrize("n, m", [(2, 31), (2, 32), (2, 63), (2, 64), (3, 31), (3, 32)])
def test_every_transition_keeps_the_best_candidate_where_a_key_field_widens(n, m):
    # A last-rank field of the build's state key is m.bit_length() bits wide.
    _check_every_transition(sm.generate_random_instance(n, m, seed=1))


def test_every_item_an_agent_ranks_above_its_last_pick_is_taken(ex1):
    """The build starts the stage agent's scan at its last rank.  That is
    sound only if every item the agent ranks above its last pick is already
    allocated in the state's trace.  In fact a state's allocated set is
    exactly the items the agents 2..n rank up to their last picks, and the
    manipulator holds y of them.  The build derives its allocated sets from
    this invariant: it keeps no set per state.  m = 8 and 16 are where the
    width of a last-rank field in the build's state key grows by one bit."""
    instances = [ex1] + [inst for inst, _seed in random_instances(80, seed=59, max_items=8)]
    instances += [inst for inst, _seed in random_instances(80, seed=61, agents=(4, 5), max_items=16)]
    instances += [
        sm.generate_random_instance(n, m, seed) for n in (2, 3, 4, 5) for m in (8, 12, 16) for seed in (1, 2, 3, 4)
    ]
    for inst in instances:
        table = best_response_with_table(inst)[1]
        for state in table:
            trace = replay_state(inst, table, state)
            ranked_above = set()
            for agent in range(2, inst.n_agents + 1):
                ranked_above.update(inst.rankings[agent][: state.last_rank[agent - 2]])
            assert {item for item, _agent in trace} == ranked_above, (inst, state)
            assert len(sm.bundle_items(trace, sm.MANIPULATOR)) == state.y, (inst, state)


def test_state_count_within_box_bound():
    for inst, _seed in random_instances(100, seed=53, max_items=9):
        table = best_response_with_table(inst)[1]
        bound = (
            (1 + inst.m) ** (inst.n_agents - 1)
            * (inst.m_prime + 1)
            * (inst.k1 + 1)
        )
        assert len(table) <= bound


def test_every_state_stores_y_as_its_allocated_count_less_x():
    """The chain pass rests on y being implied by the other fields: a state
    allocates x + y items, and they are exactly the items the agents 2..n
    rank up to their last picks.  So a stage holds at most (m+1)^(n-1)
    states, one per choice of last ranks."""
    instances = [sweeps.build_instance(spec) for spec in sweeps.iter_random_specs(1500, range(2, 6), 10, seed=71)]
    instances += [
        sm.generate_random_instance(n, m, seed) for n, m in [(2, 60), (3, 30), (4, 16), (5, 10)] for seed in (1, 2)
    ]
    checked = 0
    for inst in instances:
        table = best_response_with_table(inst)[1]
        for state in table:
            ranked_above = set()
            for agent in range(2, inst.n_agents + 1):
                ranked_above.update(inst.rankings[agent][: state.last_rank[agent - 2]])
            assert state.y == len(ranked_above) - state.x, (inst, state)
            checked += 1
        per_stage = Counter(state.x for state in table)
        assert max(per_stage.values()) <= (inst.m + 1) ** (inst.n_agents - 1), inst
    assert checked > 15000


def test_stored_states_are_closed_under_the_minimum_and_stored_in_its_order():
    """The two facts behind the build's insertion order (``dp`` module
    docstring): a stage's states are closed under the componentwise
    minimum of their last ranks, and a state whose last ranks are at most
    another's is stored first."""
    checked = 0
    for spec in sweeps.iter_random_specs(1200, range(3, 6), 9, seed=79):
        table = best_response_with_table(sweeps.build_instance(spec))[1]
        for x in range(len(table.packed)):
            # the rebuilt states, in stored order
            ranks = [state.last_rank for state in table if state.x == x]
            stored = set(ranks)
            for i, later in enumerate(ranks):
                for earlier in ranks[:i]:
                    assert tuple(map(min, earlier, later)) in stored, (spec, earlier, later)
                    assert not all(map(int.__le__, later, earlier)), (spec, earlier, later)
                    checked += 1
    assert checked > 20000


def _same_stages(inst) -> None:
    table, best, best_index, (stage_keys, stage_weights, totals) = dp._build(inst, 10**7, keep=True)
    expected_stages, expected_final = reference_build(inst, 10**7)
    assert len(table.packed) == len(stage_keys) == len(stage_weights) == len(expected_stages)
    for x, expected in enumerate(expected_stages):
        keys, weights, packed = stage_keys[x], stage_weights[x], table.packed[x]
        assert len(keys) == len(weights) == len(packed), (inst, x)
        stage = [
            (key, (weight, stage_keys[x - 1][code >> table.bits] if x else 0, code & table.low))
            for key, weight, code in zip(keys, weights, packed)
        ]
        assert stage == list(expected.items()), (inst, x)
    assert list(zip(stage_keys[-1], totals)) == list(expected_final.items()), inst
    # the best total, then the smallest key; the lean build packs the same arrays
    assert best == max(totals), inst
    assert stage_keys[-1][best_index] == min(key for key, total in zip(stage_keys[-1], totals) if total == best)
    lean, *lean_best, lean_kept = dp._build(inst, 10**7)
    assert lean.packed == table.packed and lean_best == [best, best_index] and lean_kept is None, inst


def test_chain_pass_stores_what_the_per_q_loop_stores():
    """Same keys, entries and insertion order in every stage as the build
    that tries every q, and the same complete totals, in the same order, as
    popping each final state's free items."""
    for spec in sweeps.iter_random_specs(3000, range(2, 6), 10, seed=73):
        _same_stages(sweeps.build_instance(spec))
    for n, m, seed in itertools.product((2, 3, 4), range(1, 11), range(4)):
        _same_stages(mixed_denominator_instance(n, m, seed))
    for spec in itertools.islice(sweeps.iter_exhaustive_specs(3, 4), 0, None, 11):
        _same_stages(sweeps.build_instance(spec))
    # m = 32 and 64 are where a last-rank field of the key widens by one bit.
    for n, m in itertools.product((2, 3), (31, 32, 33, 63, 64, 65)):
        _same_stages(sm.generate_random_instance(n, m, seed=1))
    for n, m in GRID:
        _same_stages(round_robin_instance(n, m))


def test_equal_weights_at_one_y_keep_the_smaller_predecessor():
    """Two predecessors in one group can share y, with different stage-agent
    ranks.  The walk lets both take over the running maximum at that y, in
    key order, so on equal weight the smaller key keeps it."""
    inst = sweeps.build_instance(("random", 3, 8, 3649409774))
    table = best_response_with_table(inst)[1]
    state = DPState(6, 2, (5, 5))
    agent = inst.decomposition.core[state.x - 1]
    assert agent == 2
    preds = [DPState(5, 2, (2, 5)), DPState(5, 2, (3, 5))]
    ranking = inst.rankings[agent]
    for pred in preds:
        assert table[pred].utility == 8
        taken = {item for item, _ in replay_state(inst, table, pred)}
        # q = 0: agent 2 takes its top remaining item, its 5th
        assert ranking.index(next(item for item in ranking if item not in taken)) + 1 == 5
    assert table[state] == sm.DPEntry(Fraction(8), preds[0], 0)


class _CountingTuple(tuple):
    reads = 0

    def __getitem__(self, index):
        _CountingTuple.reads += 1
        return tuple.__getitem__(self, index)


@pytest.mark.parametrize("n, m", GRID[:2])
def test_build_reads_a_ranking_a_bounded_number_of_times_per_stored_state(n, m):
    # The plain loop over q (tests/_reference_dp.py) reads the stage
    # agent's ranking 69 times per stored state on the n=2 m=200 instance
    # and 23 times on the n=3 m=90 one; along chains a build reads each
    # chain position once or twice.
    inst = round_robin_instance(n, m)
    prefs = inst.view.prefs
    for agent in prefs:
        prefs[agent] = _CountingTuple(prefs[agent])
    _CountingTuple.reads = 0
    table = dp._build(inst, 10**7)[0]
    assert _CountingTuple.reads <= 8 * len(table), _CountingTuple.reads / len(table)


@pytest.mark.parametrize("n, m, cap", [(2, 200, 1.25), (3, 90, 2)])
def test_build_walks_each_chain_position_once(n, m, cap):
    # One walk per group writes each stored state once, so the reads are
    # one per state plus the chain items a walk skips (1.00 and 1.65 here).
    # A build that also writes a group's candidates in a first pass reads
    # 2.00 and 3.27.
    inst = round_robin_instance(n, m)
    prefs = inst.view.prefs
    for agent in prefs:
        prefs[agent] = _CountingTuple(prefs[agent])
    _CountingTuple.reads = 0
    table = dp._build(inst, 10**7)[0]
    assert _CountingTuple.reads <= cap * len(table), _CountingTuple.reads / len(table)


@pytest.mark.parametrize("n, m", GRID[:2])
def test_a_solve_reads_an_item_weight_about_once_per_stored_state(n, m):
    # The walk reads the weight of each item the stage agent receives, and
    # the last stage's walk completes each final state with it: 1.04 and
    # 1.05 reads per stored state here.  A completion that pops each final
    # state's free items reads 2.00 and 1.46.
    inst = round_robin_instance(n, m)
    inst.__dict__["view"] = inst.view._replace(weight=_CountingTuple(inst.view.weight))
    _CountingTuple.reads = 0
    table = best_response_with_table(inst)[1]
    assert _CountingTuple.reads <= 1.25 * len(table), _CountingTuple.reads / len(table)


def test_dp_is_deterministic(ex1):
    assert sm.best_response_with_table(ex1)[0] == sm.best_response_with_table(ex1)[0]
    inst = sm.generate_random_instance(3, 12, seed=99)
    assert sm.best_response_with_table(inst)[0] == sm.best_response_with_table(inst)[0]


def test_state_budget_counts_stored_states(monkeypatch, ex1):
    # Every budget short of the table raises, at a stage boundary or within
    # a stage; the table's own size solves.
    small = [ex1] + [inst for inst, _seed in random_instances(10, seed=67, agents=(2, 3), max_items=7)]
    for inst in small:
        solution, table = best_response_with_table(inst)
        for budget in range(1, len(table)):
            with pytest.raises(sm.BudgetExceeded, match=f"more than {budget} states"):
                best_response_with_table(inst, budget=budget)
        assert best_response_with_table(inst, budget=len(table)) == (solution, table)
    inst = sm.generate_random_instance(3, 12, seed=5)
    solution, table = best_response_with_table(inst)
    assert best_response_with_table(inst, budget=len(table)) == (solution, table)
    with pytest.raises(sm.BudgetExceeded, match=f"more than {len(table) - 1} states"):
        best_response_with_table(inst, budget=len(table) - 1)
    monkeypatch.setenv("SEQMANIP_BUDGET", str(len(table) - 1))
    with pytest.raises(sm.BudgetExceeded):
        best_response_with_table(inst)
    assert best_response_with_table(inst, budget=len(table))[0] == solution


def test_table_is_a_read_only_mapping_that_decodes_on_access(ex1):
    table = best_response_with_table(ex1)[1]
    assert isinstance(table, Mapping)
    state = DPState(3, 1, (4, 1))
    entry = table[state]
    assert entry == sm.DPEntry(Fraction(4), DPState(2, 0, (1, 1)), 1)
    assert table == dict(table.items())
    with pytest.raises(TypeError):
        table[state] = entry  # type: ignore[index]
    with pytest.raises(TypeError):
        del table[state]  # type: ignore[attr-defined]
    assert table[state] == entry
    # m = 5, so a field is 3 bits wide: (8, 2) would alias the stored (1, 1, (0, 2)).
    assert DPState(1, 1, (0, 2)) in table
    for missing in [
        DPState(1, 1, (0, 1)),
        DPState(1, 0, (8, 2)),
        DPState(1, 0, (0, 66)),
        DPState(1, -1, (0, 1)),
        DPState(-1, 0, (0, 0)),
        DPState(6, 0, (0, 0)),
        DPState(1, 0, (0,)),
        DPState(1, 0, (0, 1, 0)),
        (1, 0),
        None,
    ]:
        assert missing not in table
        with pytest.raises(KeyError):
            table[missing]
        with pytest.raises(KeyError):
            replay_state(ex1, table, missing)


def test_a_stored_state_costs_at_most_16_bytes():
    # What a solve's table retains: one packed (pred, q) word per state,
    # 8.8-12.6 B here.  The stage dicts it replaced kept about 150 B.
    for n, m in [(3, 60), (3, 90), (2, 200), (4, 60)]:
        inst = sm.generate_random_instance(n, m, seed=2).with_policy([1 + t % n for t in range(m)])
        inst.view, inst.decomposition  # built and cached before measuring
        tracemalloc.start()
        try:
            table = best_response_with_table(inst)[1]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) > 3000, (n, m)
        assert retained / len(table) <= 16, (n, m, retained / len(table))


def test_items_and_values_decode_each_state_once(monkeypatch):
    inst = sm.generate_random_instance(3, 12, seed=4)
    table = best_response_with_table(inst)[1]
    pairs = [(state, table[state]) for state in table]

    def no_lookup(self, state):
        raise AssertionError("items() and values() walk the stages; they look nothing up")

    monkeypatch.setattr(dp.DPTable, "__getitem__", no_lookup)
    assert list(table.items()) == pairs
    assert list(table.values()) == [entry for _, entry in pairs]
    assert len(table.items()) == len(table.values()) == len(table)


def test_a_solve_builds_once_and_the_view_rebuilds_once_on_first_read(monkeypatch, ex1):
    builds = []
    build = dp._build

    def counted(inst, budget, keep=False):
        builds.append(keep)
        return build(inst, budget, keep)

    monkeypatch.setattr(dp, "_build", counted)
    table = best_response_with_table(ex1)[1]
    assert len(table) == sum(map(len, table.packed)) > 1
    assert builds == [False]
    base = DPState(0, 0, (0, 0))
    assert table[base] == sm.DPEntry(Fraction(0), None, 0)
    assert len(list(table.items())) == len(table)
    assert replay_state(ex1, table, DPState(1, 0, (0, 1))) == (("e", 3),)
    assert builds == [False, True]
    _solution, broken = best_response_with_table(ex1)
    broken.packed[-1][0] ^= 1
    with pytest.raises(RuntimeError, match="^internal error: "):
        broken[base]
