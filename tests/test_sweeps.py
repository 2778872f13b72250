import subprocess
import sys
from fractions import Fraction

import pytest

import seqmanip as sm
from seqmanip import sweeps


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
