import itertools
import random
import tracemalloc
from array import array
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
from _util import Entry, decode_table, mixed_denominator_instance, random_instances, round_robin_instance

# The (n, m) points of the benchmark's DP grid, here as generated instances
# under the round-robin policy.
GRID = [(2, 200), (3, 90), (4, 40), (5, 24)]


def test_first_stage_states_example1(ex1):
    entries = decode_table(ex1, best_response_with_table(ex1)[1])
    stage1 = {state: entry for state, entry in entries.items() if state.x == 1}
    assert set(stage1) == {DPState(1, 0, (0, 1)), DPState(1, 1, (0, 2))}
    assert stage1[DPState(1, 0, (0, 1))].utility == 0
    assert stage1[DPState(1, 1, (0, 2))].utility == Fraction(1)  # picked e
    assert replay_state(ex1, entries, DPState(1, 0, (0, 1))) == (("e", 3),)
    assert replay_state(ex1, entries, DPState(1, 1, (0, 2))) == (("e", 1), ("b", 3))


def test_collision_keeps_better_candidate_example1(ex1):
    # two traces reach (3, 1, (4, 1)): one paid for b, the other for c
    entries = decode_table(ex1, best_response_with_table(ex1)[1])
    state = DPState(3, 1, (4, 1))
    assert entries[state].utility == Fraction(4)
    assert replay_state(ex1, entries, state) == (
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
    assert DPState(3, 1, (4, 1)) in decode_table(ex1, table)


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
    assert set(decode_table(inst, table)) == {DPState(0, 0, ())}
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
        entries = decode_table(inst, best_response_with_table(inst)[1])
        for state, entry in entries.items():
            assert 0 <= state.x <= dec.m_prime
            assert 0 <= state.y <= dec.k_prefix[state.x] if state.x else state.y == 0
            trace = replay_state(inst, entries, state)
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


def test_a_manipulator_turn_moved_earlier_never_lowers_the_optimum():
    # Swapping a manipulator turn with the turn just before it gives a
    # policy that dominates the original, so the optimum cannot fall.
    rng = random.Random(103)
    moved = 0
    for inst, seed in random_instances(60, seed=103, max_items=40, min_items=2):
        policy = list(inst.policy)
        turns = [t for t in range(1, inst.m) if policy[t] == sm.MANIPULATOR != policy[t - 1]]
        if not turns:
            continue
        t = rng.choice(turns)
        policy[t - 1], policy[t] = policy[t], policy[t - 1]
        earlier = best_response_with_table(inst.with_policy(policy))[0].utility
        assert earlier >= best_response_with_table(inst)[0].utility, f"seed={seed}"
        moved += 1
    assert moved >= 50


def test_truthful_play_keeps_half_the_optimum_at_large_m():
    sizes = {2: (100, 150, 200, 250, 300), 3: (60, 75, 90, 105, 120), 4: (30, 35, 40, 45, 50)}
    checked = 0
    for n, ms in sizes.items():
        for m, seed in itertools.product(ms, (1, 2)):
            inst = sm.generate_random_instance(n, m, seed)
            assert sm.approximation_report(inst).ratio >= Fraction(1, 2), (n, m, seed)
            checked += 1
    assert checked == 30


def _check_every_transition(inst) -> int:
    """Step every stored state below the last stage by one segment for each
    allowed q, independently of the DP's own stage step.  Each target must be
    stored, each candidate trace must be invariance-related to the stored
    trace of its target, and the stored entry must be the candidate with the
    highest utility and, among those, the smallest (q, pred).  Returns the
    number of targets where two best candidates had the same q."""
    dec = decompose(inst.policy)
    entries = decode_table(inst, best_response_with_table(inst)[1])
    candidates: dict[DPState, list] = {}
    for pred, entry in entries.items():
        if pred.x == dec.m_prime:
            continue
        x = pred.x + 1
        agent = dec.core[x - 1]
        trace = replay_state(inst, entries, pred)
        taken = {item for item, _ in trace}
        ranking = inst.rankings[agent]
        free = [item for item in ranking if item not in taken]
        for q in range(min(dec.k_prefix[x] - pred.y, len(free) - 1) + 1):
            segment = tuple((item, sm.MANIPULATOR) for item in free[:q]) + ((free[q], agent),)
            last_rank = list(pred.last_rank)
            last_rank[agent - 2] = ranking.index(free[q]) + 1
            target = DPState(x, pred.y + q, tuple(last_rank))
            assert target in entries
            assert invariance_related(trace + segment, replay_state(inst, entries, target))
            utility = entry.utility + sum((inst.utility[item] for item in free[:q]), Fraction(0))
            candidates.setdefault(target, []).append((utility, q, pred))
    assert set(candidates) == {state for state in entries if state.x > 0}
    same_q_ties = 0
    for state, found in candidates.items():
        best = max(utility for utility, _, _ in found)
        winners = sorted((q, pred) for utility, q, pred in found if utility == best)
        q, pred = winners[0]
        assert entries[state] == Entry(best, pred, q)
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
        entries = decode_table(inst, best_response_with_table(inst)[1])
        for state in entries:
            trace = replay_state(inst, entries, state)
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
        entries = decode_table(inst, best_response_with_table(inst)[1])
        for state in entries:
            ranked_above = set()
            for agent in range(2, inst.n_agents + 1):
                ranked_above.update(inst.rankings[agent][: state.last_rank[agent - 2]])
            assert state.y == len(ranked_above) - state.x, (inst, state)
            checked += 1
        per_stage = Counter(state.x for state in entries)
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
        for states, _weights, _packed in table._stages():
            # the rebuilt states, in stored order
            ranks = [state.last_rank for state in states]
            stored = set(ranks)
            for i, later in enumerate(ranks):
                for earlier in ranks[:i]:
                    assert tuple(map(min, earlier, later)) in stored, (spec, earlier, later)
                    assert not all(map(int.__le__, later, earlier)), (spec, earlier, later)
                    checked += 1
    assert checked > 20000


def _same_stages(inst) -> None:
    layout = dp.DPTable(inst, 10**7)
    expected_stages, expected_final = reference_build(inst, 10**7)
    grown = []
    pred_keys: list[int] = []
    for x, (packed, keys, weights, best, best_index) in enumerate(dp._grow(layout)):
        assert len(keys) == len(weights) == len(packed), (inst, x)
        stage = [
            (key, (weight, pred_keys[code >> layout.bits] if x else 0, code & layout.low))
            for key, weight, code in zip(keys, weights, packed)
        ]
        assert stage == list(expected_stages[x].items()), (inst, x)
        grown.append(packed)
        pred_keys = keys
    assert len(grown) == len(expected_stages) and not layout.packed, inst
    # the highest final total, then the smallest key; the build packs the same arrays
    assert best == max(expected_final.values()), inst
    assert pred_keys[best_index] == min(key for key, total in expected_final.items() if total == best), inst
    table, *table_best = dp._build(inst, 10**7)
    assert table.packed == grown and table_best == [best, best_index], inst


def test_chain_pass_stores_what_the_per_q_loop_stores():
    """Same keys, entries and insertion order in every stage as the build
    that tries every q, and the same best final state as popping each
    final state's free items."""
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
    entries = decode_table(inst, best_response_with_table(inst)[1])
    state = DPState(6, 2, (5, 5))
    agent = inst.decomposition.core[state.x - 1]
    assert agent == 2
    preds = [DPState(5, 2, (2, 5)), DPState(5, 2, (3, 5))]
    ranking = inst.rankings[agent]
    for pred in preds:
        assert entries[pred].utility == 8
        taken = {item for item, _ in replay_state(inst, entries, pred)}
        # q = 0: agent 2 takes its top remaining item, its 5th
        assert ranking.index(next(item for item in ranking if item not in taken)) + 1 == 5
    assert entries[state] == Entry(Fraction(8), preds[0], 0)


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
        solved, again = best_response_with_table(inst, budget=len(table))
        assert solved == solution and again.packed == table.packed
    inst = sm.generate_random_instance(3, 12, seed=5)
    solution, table = best_response_with_table(inst)
    solved, again = best_response_with_table(inst, budget=len(table))
    assert solved == solution and again.packed == table.packed
    with pytest.raises(sm.BudgetExceeded, match=f"more than {len(table) - 1} states"):
        best_response_with_table(inst, budget=len(table) - 1)
    monkeypatch.setenv("SEQMANIP_BUDGET", str(len(table) - 1))
    with pytest.raises(sm.BudgetExceeded):
        best_response_with_table(inst)
    assert best_response_with_table(inst, budget=len(table))[0] == solution


def test_the_table_is_its_packed_stages_and_decodes_only_stored_states(ex1):
    table = best_response_with_table(ex1)[1]
    assert not isinstance(table, Mapping)
    assert len(table) == sum(map(len, table.packed)) == 9
    entries = decode_table(ex1, table)
    assert entries[DPState(3, 1, (4, 1))] == Entry(Fraction(4), DPState(2, 0, (1, 1)), 1)
    # m = 5, so a field is 3 bits wide: (8, 2) would alias the stored (1, 1, (0, 2)).
    assert DPState(1, 1, (0, 2)) in entries
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
        assert missing not in entries
        with pytest.raises(KeyError):
            replay_state(ex1, entries, missing)


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


def test_a_pass_over_the_stages_holds_about_two_stages():
    # 50,577 stored states, at most 1,128 in one stage.  A pass that kept
    # every stage's keys and weights until its end peaked at 4.0 MB here.
    inst = sm.generate_random_instance(3, 150, 1)
    table = best_response_with_table(inst)[1]
    assert len(table) == 50577 and max(map(len, table.packed)) == 1128
    tracemalloc.start()
    try:
        for _stage in table._stages():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_a_solve_builds_once_and_each_pass_over_the_stages_rebuilds_once(monkeypatch, ex1):
    builds, grows = [], []
    build, grow = dp._build, dp._grow

    def counted_build(inst, budget):
        builds.append(inst)
        return build(inst, budget)

    def counted_grow(table):
        grows.append(table)
        return grow(table)

    monkeypatch.setattr(dp, "_build", counted_build)
    monkeypatch.setattr(dp, "_grow", counted_grow)
    table = best_response_with_table(ex1)[1]
    assert (len(builds), len(grows)) == (1, 1)
    for passes in (1, 2):
        assert len(list(table._stages())) == len(table.packed)
        assert (len(builds), len(grows)) == (1, 1 + passes)
    assert grows == [table] * 3


def _stages_before_the_error(table) -> int:
    """How many stages ``table._stages()`` yields before it raises."""
    yielded = 0
    with pytest.raises(RuntimeError, match="^internal error: the dynamic program's rebuild stored a different table$"):
        for _stage in table._stages():
            yielded += 1
    return yielded


def test_a_tampered_stage_stops_the_pass_before_it_is_yielded():
    inst = sm.generate_random_instance(3, 12, seed=4)
    table = best_response_with_table(inst)[1]
    stages = len(table.packed)
    for x in range(stages):
        table.packed[x][-1] ^= 1
        assert _stages_before_the_error(table) == x
        table.packed[x][-1] ^= 1
    assert len(list(table._stages())) == stages


def test_an_extra_or_a_missing_stored_stage_stops_the_pass():
    inst = sm.generate_random_instance(3, 12, seed=4)
    table = best_response_with_table(inst)[1]
    stages = len(table.packed)
    table.packed.append(array("Q"))
    assert _stages_before_the_error(table) == stages
    del table.packed[-2:]
    assert _stages_before_the_error(table) == stages - 1
