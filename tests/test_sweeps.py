import itertools
import subprocess
import sys
from fractions import Fraction

import pytest

import seqmanip as sm
from seqmanip import dp, engine, oracle, policy, sweeps


def test_exhaustive_spec_counts():
    # sizes 0..3 over two agents with the manipulator ranking fixed:
    # 1 + 2*1 + 4*2 + 8*6 specs
    specs = list(sweeps.iter_exhaustive_specs(2, 3))
    assert len(specs) == 59
    assert len(set(specs)) == 59


def test_build_instance_exhaustive_spec():
    spec = ("exhaustive", 2, (1, 2), (("g2", "g1"),))
    inst = sweeps.build_instance(spec)
    assert inst.policy == (1, 2)
    assert inst.rankings[1] == ("g1", "g2")
    assert inst.rankings[2] == ("g2", "g1")
    assert inst.utility["g1"] == Fraction(2)
    # Specs of one size share the items and utilities, and build the
    # instance make_instance builds, items sorted as it sorts them.
    other = sweeps.build_instance(("exhaustive", 2, (2, 1), (("g1", "g2"),)))
    assert other.items is inst.items and other.utility is inst.utility
    items = [f"g{i}" for i in range(1, 11)]
    spec = ("exhaustive", 2, (1, 2) * 5, (tuple(reversed(items)),))
    made = sm.make_instance(items, 2, spec[2], {1: items, 2: spec[3][0]}, {g: 10 - i for i, g in enumerate(items)})
    assert sweeps.build_instance(spec) == made
    assert repr(sweeps.build_instance(spec)) == repr(made)


def _constructed(spec):
    """The instance of an exhaustive spec from the plain constructor, which
    checks every field."""
    _, n, policy_, others = spec
    m = len(policy_)
    ranking = tuple(f"g{i}" for i in range(1, m + 1))
    rankings = {1: ranking}
    for agent, other in enumerate(others, start=2):
        rankings[agent] = tuple(other)
    utility = {item: Fraction(m - pos) for pos, item in enumerate(ranking)}
    return sm.Instance(tuple(sorted(ranking)), n, tuple(policy_), rankings, utility)


def test_exhaustive_specs_derive_the_instance_the_constructor_builds():
    sweeps._exhaustive_fields.cache_clear()
    specs = [
        *sweeps.iter_exhaustive_specs(2, 5),
        *itertools.islice(sweeps.iter_exhaustive_specs(3, 4), 0, None, 7),
    ]
    assert len(specs) == 4283 + 6810
    for spec in specs:
        built, made = sweeps.build_instance(spec), _constructed(spec)
        assert built == made, spec
        assert built.view == made.view and built.decomposition == made.decomposition, spec
        assert built.m == made.m, spec


def _error(build, spec):
    with pytest.raises(sm.InstanceError) as err:
        build(spec)
    return err.value.path, err.value.message


@pytest.mark.parametrize(
    "spec",
    [
        ("exhaustive", 3, (1, 2, 3), (("g1", "g1", "g2"), ("g3", "g2", "g1"))),
        ("exhaustive", 3, (1, 2, 3), (("g1", "g2", "g3"), ("g3", "g2", "gx"))),
        ("exhaustive", 3, (1, 2, 3), (("g1", "g2"), ("g3", "g2", "g1"))),
        ("exhaustive", 3, (1, 2, 3), (("g2", "g3", "g1"),)),
        ("exhaustive", 3, (1, 2, 3), (("g2", "g3", "g1"),) * 3),
        ("exhaustive", 3, (1, 4, 3), (("g2", "g3", "g1"), ("g3", "g2", "g1"))),
        ("exhaustive", 3, (1, 0, 3), (("g2", "g3", "g1"), ("g3", "g2", "g1"))),
        ("exhaustive", 3, (1, True, 3), (("g2", "g3", "g1"), ("g3", "g2", "g1"))),
        # the policy is checked before the rankings, on both paths
        ("exhaustive", 3, (1, 2, 4), (("g1", "g1", "g2"),)),
        ("exhaustive", True, (1, 1, 1), ()),
        ("exhaustive", 0, (1, 1, 1), ()),
    ],
    ids=[
        "repeated-item",
        "unknown-item",
        "short-ranking",
        "too-few-rankings",
        "too-many-rankings",
        "agent-out-of-range",
        "agent-zero",
        "agent-bool",
        "policy-before-rankings",
        "bool-agent-count",
        "no-agents",
    ],
)
def test_a_malformed_exhaustive_spec_fails_as_the_constructor_does(spec):
    expected = _error(_constructed, spec)
    # First with no instance of its size built, then derived from one.
    sweeps._exhaustive_fields.cache_clear()
    assert _error(sweeps.build_instance, spec) == expected
    for n in (1, 3):
        sweeps.build_instance(("exhaustive", n, (1, 1, 1), (("g3", "g2", "g1"),) * (n - 1)))
    assert _error(sweeps.build_instance, spec) == expected


def test_random_specs_deterministic():
    a = list(sweeps.iter_random_specs(10, [3, 4], max_items=9, seed=5))
    b = list(sweeps.iter_random_specs(10, [3, 4], max_items=9, seed=5))
    assert a == b
    assert all(spec[0] == "random" for spec in a)


def test_check_spec_record_fields():
    record = sweeps.check_spec(("random", 3, 6, 42), check_crucial=True)
    assert record.agree
    assert record.half_ok
    assert record.bound_ok
    assert record.crucial in (True, False)
    assert record.dp_states >= 1
    assert record.m == 6 and record.n == 3


def test_sweep_parallel_matches_serial():
    specs = list(sweeps.iter_exhaustive_specs(2, 3))
    serial = sweeps.sweep(iter(specs), workers=1)
    parallel = sweeps.sweep(iter(specs), workers=2, chunk_size=16)
    assert serial.checked == parallel.checked == 59
    assert serial.ok and parallel.ok
    assert serial.crucial_count == parallel.crucial_count


def test_importing_the_cli_does_not_import_the_process_pool():
    # Only a sweep with workers > 1 needs it; `seqmanip solve` never does.
    code = "import sys, seqmanip.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bench_rows_deterministic_and_parallel():
    params = [(3, 6, 1), (3, 7, 2)]
    rows_a = sweeps.bench_many(params)
    rows_b = sweeps.bench_many(params, workers=2)
    assert [(r.seed, r.n, r.m, r.k1, r.utility_opt) for r in rows_a] == [
        (r.seed, r.n, r.m, r.k1, r.utility_opt) for r in rows_b
    ]
    for row in rows_a:
        assert row.dp_millis >= 0
        if row.k1:
            assert Fraction(1, 2) <= row.ratio <= 1


def test_one_budget_caps_every_oracle_search(ex1):
    with pytest.raises(sm.BudgetExceeded):
        sm.is_crucial(ex1, budget=1)
    with pytest.raises(sm.BudgetExceeded):
        sweeps.sweep([("random", 3, 6, 42)], budget=1, check_crucial=True)


def test_a_sweep_failure_names_its_spec(monkeypatch):
    spec = ("random", 3, 6, 42)
    for workers in (1, 2):
        with pytest.raises(sm.BudgetExceeded, match=r"states; .* \(spec \('random', 3, 6, 42\)\)$"):
            sweeps.sweep([spec], workers=workers, budget=1, check_crucial=True)
    # Every certificate executes its strategy on item indices; playing it
    # backwards gives the manipulator other items.
    real_execute = engine._execute
    monkeypatch.setattr(engine, "_execute", lambda inst, strategy: real_execute(inst, strategy[::-1]))
    with pytest.raises(RuntimeError, match=r"^internal error: .* \(spec \('random', 3, 6, 42\)\)$") as err:
        sweeps.check_spec(spec)
    assert type(err.value) is RuntimeError
    assert str(err.value.__cause__).startswith("internal error: ")


def test_an_instance_error_in_a_worker_reaches_the_caller():
    # Zero agents is rejected while the instance is built, in the worker.
    for workers in (1, 2):
        with pytest.raises(sm.InstanceError, match=r"^agents: need at least one agent$") as err:
            sweeps.sweep([("random", 0, 3, 1)], workers=workers)
        assert type(err.value) is sm.InstanceError
        assert err.value.path == "agents"


def _crucial_specs(count):
    """``count`` specs spread over the exhaustive n=2 m=6 pool."""
    return list(itertools.islice(sweeps.iter_exhaustive_specs(2, 6, min_items=6), 0, None, 46080 // count))


def _distinct_picks(spec):
    """The number of distinct pick sequences that the three solvers claim."""
    inst = sweeps.build_instance(spec)
    claims = (
        dp._optimum(inst, 10**7)[0],
        oracle._tree(inst, 10**7)[0],
        oracle._dominated(inst, 10**6)[0],
    )
    return len({tuple(picks) for picks in claims})


def test_check_spec_decomposes_once_and_executes_each_distinct_strategy_once(monkeypatch):
    calls = {"decompose": 0, "execute": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    specs = _crucial_specs(40)
    distinct = [_distinct_picks(spec) for spec in specs]
    assert set(distinct) == {1, 2}
    monkeypatch.setattr(policy, "decompose", counted("decompose", policy.decompose))
    monkeypatch.setattr(engine, "_execute", counted("execute", engine._execute))
    # The first spec of a size builds its instance in full, and the later
    # ones derive theirs from it: each decomposes its policy once.
    sweeps._exhaustive_fields.cache_clear()
    for spec, expected in zip(specs, distinct):
        before = dict(calls)
        sweeps.check_spec(spec, check_crucial=True)
        assert calls["decompose"] - before["decompose"] == 1, spec
        assert calls["execute"] - before["execute"] == expected, spec
    assert calls["execute"] == sum(distinct) < 3 * len(specs)


def _expected_record(spec):
    """The record of ``spec`` from the public functions alone."""
    inst = sweeps.build_instance(spec)
    n, m = inst.n_agents, len(inst.items)
    k1 = sum(agent == sm.MANIPULATOR for agent in inst.policy)
    solution, table = sm.best_response_with_table(inst)
    greedy_trace, _ = sm.greedy_alg(inst)
    return sweeps.CheckRecord(
        spec=spec,
        n=n,
        m=m,
        k1=k1,
        utility_dp=solution.utility,
        utility_tree=sm.choice_tree_best(inst).utility,
        utility_dominated=sm.dominated_greedy_best(inst)[0].utility,
        utility_truthful=sm.truthful_response(inst).utility,
        utility_greedy=sm.manipulator_bundle(inst, greedy_trace).total_utility,
        dp_states=len(table),
        state_bound=(1 + m) ** (n - 1) * (m - k1 + 1) * (k1 + 1),
        crucial=sm.is_crucial(inst),
    )


def test_check_spec_matches_the_public_functions():
    specs = [
        *sweeps.iter_random_specs(300, [2, 3, 4], 8, 5),
        *itertools.islice(sweeps.iter_exhaustive_specs(2, 5, min_items=5), 0, 3800, 19),
    ]
    assert len(specs) == 500
    for spec in specs:
        record = sweeps.check_spec(spec, check_crucial=True)
        assert record == _expected_record(spec), spec
        for name in ("utility_dp", "utility_tree", "utility_dominated", "utility_truthful", "utility_greedy"):
            assert type(getattr(record, name)) is Fraction, (spec, name)


def test_check_spec_reads_the_budget_variable_once_per_budget(monkeypatch):
    # One read for the state budget and one for the policy budget; the
    # crucial check gets both, and the choice tree's optimum as a weight.
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(engine.os, "environ", Environ(engine.os.environ))
    record = sweeps.check_spec(("exhaustive", 2, (1, 2, 2, 1), (("g2", "g3", "g1", "g4"),)), check_crucial=True)
    assert record.crucial is not None
    assert reads.count(engine.BUDGET_ENV_VAR) == 2


def test_check_spec_searches_the_choice_tree_and_walks_once(monkeypatch):
    # One choice-tree search and one dominated walk per spec, with the
    # crucial check on or off; check_spec runs the solvers' cores on item
    # indices, and no public solver.  Rebind every seqmanip module's
    # reference to each function, as a tracer wrapping them from outside
    # would.
    names = ("_tree", "_walk", "choice_tree_best", "dominated_greedy_best", "is_crucial")
    calls = dict.fromkeys(names, 0)
    modules = [module for key, module in sys.modules.items() if module is not None and key.startswith("seqmanip")]
    for name in calls:
        original = getattr(oracle, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    count = 0
    for check_crucial in (False, True):
        for spec in _crucial_specs(40):
            record = sweeps.check_spec(spec, check_crucial=check_crucial)
            count += 1
            assert (record.crucial is None) is not check_crucial, spec
            assert calls == dict.fromkeys(names, 0) | {"_tree": count, "_walk": count}, spec


def test_a_crucial_check_walks_the_dominated_policies_once(walks):
    # One walk answers both the optimum and the crucial check.
    specs = _crucial_specs(40)
    for spec in specs:
        before = len(walks)
        sweeps.check_spec(spec, check_crucial=True)
        assert len(walks) - before == 1, spec
    assert len(walks) == len(specs) == 40
