import json
import os
import subprocess
import sys

import pytest

import seqmanip as sm
from seqmanip import cli, engine
from seqmanip.cli import main
from _util import example1_document


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(example1_document(), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_example1(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "solve", ex1_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["bundle"] == ["a", "b"]
    assert payload["utility"] == "9"
    assert payload["strategy"] == ["b", "a", "c", "d", "e"]
    assert payload["dp_states"] >= 1


def test_solve_with_check(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "solve", ex1_path, "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["agrees"] is True
    assert payload["check"]["utility"] == "9"
    assert payload["check"]["certificate_policy"] == [3, 2, 1, 2, 1]


def test_solve_dump_table(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "solve", ex1_path, "--dump-table")
    assert code == 0
    payload = json.loads(out)
    states = {tuple(row["state"]["last_rank"]) + (row["state"]["x"], row["state"]["y"]) for row in payload["table"]}
    assert (4, 1, 3, 1) in states  # the collision state in the walkthrough
    base = [row for row in payload["table"] if row["pred"] is None]
    assert len(base) == 1 and base[0]["utility"] == "0"


@pytest.mark.parametrize("rows_per_write", [1, 2, 1024])
def test_dump_table_batches_print_the_text_of_one_dump(capsys, monkeypatch, rows_per_write):
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
    payload = {"bundle": ["NaN", "x\nNaN\n"], "dp_states": 5, "utility": "NaN"}
    rows = [{"pred": None, "q": q, "state": {"last_rank": [q] * (q % 3), "x": q, "y": 0}} for q in range(5)]
    cli._emit_table(payload, iter(rows))
    assert capsys.readouterr().out == json.dumps({**payload, "table": rows}, indent=2, sort_keys=True) + "\n"


def test_greedy_command(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "greedy", ex1_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["bundle"] == ["a", "e"]
    assert payload["sequence"][0] == {"item": "e", "agent": 1}


def test_truthful_command(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "truthful", ex1_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["bundle"] == ["a", "d"]
    assert payload["utility"] == "7"


def test_oracle_commands(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "oracle", ex1_path, "--method", "choice-tree")
    assert code == 0
    assert json.loads(out)["utility"] == "9"
    code, out, _err = run_cli(capsys, "oracle", ex1_path, "--method", "dominated-greedy")
    assert code == 0
    payload = json.loads(out)
    assert payload["utility"] == "9"
    assert payload["certificate_policy"] == [3, 2, 1, 2, 1]


def test_oracle_budget_exit_code(capsys, ex1_path):
    code, _out, err = run_cli(capsys, "oracle", ex1_path, "--budget", "1")
    assert code == 3
    assert "budget" in err.lower() or "states" in err.lower()


def test_oracle_too_deep_exits_budget_without_traceback(tmp_path):
    # 1200 turns: the choice tree's sets outgrow the budget long before its last turn.
    path = tmp_path / "deep.json"
    path.write_text(sm.serialize_instance(sm.generate_random_instance(2, 1200, seed=1)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "seqmanip", "oracle", str(path), "--budget", "100000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "more than 100000 allocated sets" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_solve_state_budget_exits_budget_without_traceback(tmp_path):
    path = tmp_path / "n3m12.json"
    path.write_text(sm.serialize_instance(sm.generate_random_instance(3, 12, seed=1)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "seqmanip", "solve", str(path), "--budget", "10"], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert "dynamic program would store more than 10 states" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command, target", [("solve", "best_response_with_table"), ("greedy", "parse_instance")]
)
def test_memory_error_exits_budget_with_one_line_and_no_output(capsys, monkeypatch, ex1_path, command, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = run_cli(capsys, command, ex1_path)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "memory" in err, err
    assert "Traceback" not in err


def _address_space_limit(mib):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    probe = subprocess.run([sys.executable, "-c", "bytearray(256 << 20)"], capture_output=True, preexec_fn=limit)
    if probe.returncode == 0:
        pytest.skip("RLIMIT_AS is not enforced here")
    return limit


def test_solve_of_a_400_item_three_agent_instance_fits_96_mib():
    # The packed table keeps about 9 bytes per stored state; the stage
    # dicts it replaced (about 150 B each) ran out of memory here.
    limit = _address_space_limit(96)
    document = subprocess.run(
        [sys.executable, "-m", "seqmanip", "gen", "--agents", "3", "--items", "400", "--seed", "1"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    solve = [sys.executable, "-m", "seqmanip", "solve", "-"]
    limited = subprocess.run(solve, input=document, capture_output=True, text=True, preexec_fn=limit)
    assert limited.returncode == 0, limited.stderr
    unlimited = subprocess.run(solve, input=document, capture_output=True, text=True, check=True)
    assert limited.stdout == unlimited.stdout


def test_dump_table_of_a_150_item_three_agent_instance_fits_96_mib():
    # The rows are encoded and written a batch at a time; the whole list of
    # row dicts and its text (about 4 KB per stored state) ran out of memory.
    limit = _address_space_limit(96)
    document = subprocess.run(
        [sys.executable, "-m", "seqmanip", "gen", "--agents", "3", "--items", "150", "--seed", "1"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    solve = [sys.executable, "-m", "seqmanip", "solve", "--dump-table", "-"]
    limited = subprocess.run(solve, input=document, capture_output=True, text=True, preexec_fn=limit)
    assert limited.returncode == 0, limited.stderr
    unlimited = subprocess.run(solve, input=document, capture_output=True, text=True, check=True)
    assert limited.stdout == unlimited.stdout
    assert len(json.loads(limited.stdout)["table"]) == 50577


def run_with_budget(command, ex1_path, flag=None, variable=None):
    target = ["--exhaustive", "--max-items", "2"] if command == "verify" else [ex1_path]
    flags = [] if flag is None else [f"--budget={flag}"]
    env = {**os.environ} if variable is None else {**os.environ, "SEQMANIP_BUDGET": variable}
    return subprocess.run(
        [sys.executable, "-m", "seqmanip", command, *target, *flags], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
@pytest.mark.parametrize("value", ["abc", "-3", "0", "1_0"])
def test_invalid_budget_flag_is_invalid_input(ex1_path, command, value):
    proc = run_with_budget(command, ex1_path, flag=value)
    assert proc.returncode == 1, proc.stderr
    assert "--budget" in proc.stderr and "positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
@pytest.mark.parametrize("value", ["abc", "-5", "0", " 7"])
def test_invalid_budget_variable_is_invalid_input(ex1_path, command, value):
    proc = run_with_budget(command, ex1_path, variable=value)
    assert proc.returncode == 1, proc.stderr
    assert "SEQMANIP_BUDGET" in proc.stderr and "positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_budget_with_more_digits_than_int_converts_is_invalid_input(ex1_path):
    digits = "9" * 5000
    for proc, name in (
        (run_with_budget("solve", ex1_path, flag=digits), "--budget"),
        (run_with_budget("solve", ex1_path, variable=digits), "SEQMANIP_BUDGET"),
    ):
        assert proc.returncode == 1, proc.stderr
        assert name in proc.stderr and "positive integer" in proc.stderr
        assert len(proc.stderr) < 500 and proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("oracle", "--method", "choice-tree"), ("oracle", "--method", "dominated-greedy")],
    ids=["solve", "choice-tree", "dominated-greedy"],
)
def test_failed_self_check_exits_mismatch_without_traceback(capsys, monkeypatch, ex1_path, argv):
    real_execute = engine._execute

    def truthful_execute(inst, strategy):
        # Every certificate executes its strategy on item indices; playing
        # the truthful ranking instead gives example 1 a bundle worth 7, not 9.
        return real_execute(inst, inst.view.prefs[sm.MANIPULATOR])

    monkeypatch.setattr(engine, "_execute", truthful_execute)
    code, out, err = run_cli(capsys, argv[0], ex1_path, *argv[1:])
    assert code == 2
    assert "error: internal error" in err
    assert "Traceback" not in err
    assert out == ""


def test_ratio_tightness(capsys):
    code, out, _err = run_cli(capsys, "ratio", "--tightness", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "1001/1999"
    assert payload["truthful"] == "1001/1000"
    assert payload["optimal"] == "1999/1000"
    assert payload["ratio_decimal"] == "0.500750"


def test_ratio_instance_file(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "ratio", ex1_path)
    assert code == 0
    assert json.loads(out)["ratio"] == "7/9"


def test_achievable_command(capsys, ex1_path):
    code, out, _err = run_cli(capsys, "achievable", ex1_path, "--target", "a,b")
    assert code == 0
    assert json.loads(out)["achievable"] is True
    code, out, _err = run_cli(capsys, "achievable", ex1_path, "--target", "b,c")
    assert code == 0
    assert json.loads(out)["achievable"] is False
    code, _out, _err = run_cli(capsys, "achievable", ex1_path, "--target", "a")
    assert code == 1


def test_gen_roundtrip(capsys):
    code, out, err = run_cli(capsys, "gen", "--agents", "3", "--items", "6", "--seed", "7")
    assert code == 0
    inst = sm.parse_instance(out)
    assert inst == sm.generate_random_instance(3, 6, 7)
    assert "seed=7" in err


def test_gen_requires_seed(capsys):
    code, _out, err = run_cli(capsys, "gen", "--agents", "3", "--items", "6")
    assert code == 1
    assert "seed" in err


def test_gen_tightness(capsys):
    code, out, _err = run_cli(capsys, "gen", "--tightness", "5")
    assert code == 0
    assert sm.parse_instance(out) == sm.generate_tightness_instance(5)


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "instance.json"
    code, out, _err = run_cli(capsys, "gen", "--seed", "3", "-o", str(target))
    assert code == 0
    assert out == ""
    assert sm.parse_instance(target.read_text(encoding="utf-8")).m == 6


def test_verify_exhaustive_small(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "--agents", "2", "--max-items", "3", "--exhaustive"
    )
    assert code == 0
    payload = json.loads(out)
    # sizes 0..3 with the manipulator ranking fixed: 1 + 2 + 8 + 48
    assert payload["checked"] == 59
    assert payload["ok"] is True
    assert payload["mismatches"] == []


def test_verify_random(capsys):
    code, out, _err = run_cli(
        capsys, "verify", "--agents", "3", "--max-items", "6", "--random", "25", "--seed", "9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 25
    assert payload["ok"] is True


def test_verify_requires_a_mode(capsys):
    code, _out, err = run_cli(capsys, "verify", "--agents", "2")
    assert code == 1
    assert "nothing to do" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--random", "-5"], "verify: --random must be at least 0"),
        (["verify", "--exhaustive", "--agents", "2", "--max-items", "-1"], "verify: --max-items must be at least 0"),
        (["verify", "--random", "3", "--max-items", "0"], "verify: --max-items must be at least 1"),
        (["verify", "--exhaustive", "--agents", "0"], "verify: --agents must be at least 1"),
        (["bench", "--sizes", "5", "--per-size", "-2"], "bench: --per-size must be at least 1"),
        (["bench", "--sizes", "5,x"], "bench: --sizes must be comma-separated item counts"),
        (["verify", "--exhaustive", "--agents", "2", "--max-items", "2", "--workers", "-3"],
         "verify: --workers must be at least 1"),
        (["bench", "--agents", "2", "--sizes", "3", "--per-size", "1", "--workers", "0"],
         "bench: --workers must be at least 1"),
    ],
)
def test_verify_and_bench_reject_bad_counts_before_any_sweep(capsys, monkeypatch, argv, message):
    from seqmanip import sweeps

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(sweeps, "sweep", refuse)
    monkeypatch.setattr(sweeps, "bench_many", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_bench_csv_schema(capsys):
    code, out, _err = run_cli(
        capsys, "bench", "--sizes", "5,6", "--per-size", "1", "--seed", "2", "--csv", "-"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,n,m,k1,utility_opt,utility_truthful,ratio,dp_states,dp_millis"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "5"


def test_bench_json(capsys):
    code, out, _err = run_cli(capsys, "bench", "--sizes", "5", "--per-size", "2", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert {row["seed"] for row in payload["rows"]} == {4, 5}


def test_missing_file_is_invalid_input(capsys):
    code, _out, err = run_cli(capsys, "solve", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_malformed_document_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _out, _err = run_cli(capsys, "solve", str(path))
    assert code == 1


def test_unknown_arguments_are_invalid_input(capsys):
    code, _out, _err = run_cli(capsys, "solve")
    assert code == 1
    code, _out, _err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_stdin_instance(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(example1_document()))
    code, out, _err = run_cli(capsys, "truthful", "-")
    assert code == 0
    assert json.loads(out)["bundle"] == ["a", "d"]


def test_solve_byte_identical_across_processes(ex1_path):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "seqmanip", "solve", ex1_path, "--dump-table"],
            capture_output=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["bundle"] == ["a", "b"]
