"""The package namespace, the records' shapes and what a command imports."""

import importlib
import json
import subprocess
import sys

import pytest

import seqmanip as sm
from seqmanip import sweeps
from _util import example1_document

HOME = {
    "model": [
        "MANIPULATOR",
        "Instance",
        "InstanceError",
        "parse_instance",
        "serialize_instance",
        "make_instance",
        "generate_random_instance",
        "generate_tightness_instance",
    ],
    "policy": ["PolicyDecomposition", "decompose", "enumerate_dominated"],
    "engine": [
        "AllocationSequence",
        "PickingStrategy",
        "Bundle",
        "bundle_items",
        "execute",
        "manipulator_bundle",
        "Solution",
        "BudgetExceeded",
    ],
    "greedy": ["greedy_alg"],
    "oracle": ["choice_tree_best", "dominated_greedy_best", "is_crucial"],
    "dp": ["DPState", "best_response_with_table"],
    "responses": [
        "truthful_response",
        "ApproximationReport",
        "approximation_report",
        "allocation_response",
    ],
}


def test_every_public_name_is_its_home_modules_object():
    homed = [name for names in HOME.values() for name in names]
    assert sorted(homed + ["__version__"]) == sorted(sm.__all__)
    for module, names in HOME.items():
        home = importlib.import_module(f"seqmanip.{module}")
        for name in names:
            assert getattr(sm, name) is getattr(home, name), name
    assert sm.__version__ == "0.1.0"


def test_namespace_lists_and_imports_on_demand():
    assert set(sm.__all__) <= set(dir(sm))
    for module in [*HOME, "cli", "sweeps"]:
        assert getattr(sm, module) is importlib.import_module(f"seqmanip.{module}")
    with pytest.raises(AttributeError, match="no attribute 'best_response'"):
        sm.best_response  # noqa: B018
    namespace: dict = {}
    exec("from seqmanip import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(sm.__all__)


def test_records_keep_their_fields():
    assert sm.Solution._fields == ("strategy", "sequence", "bundle")
    assert sm.Bundle._fields == ("items", "total_utility")
    assert sm.PolicyDecomposition._fields == ("core", "position_vector", "k_prefix")
    dec = sm.decompose((1, 3, 2, 2, 1))
    assert dec.m_prime == 3
    solution = sm.truthful_response(sm.generate_tightness_instance(4))
    assert solution.utility is solution.bundle.total_utility
    assert sweeps.BENCH_FIELDS == (
        "seed",
        "n",
        "m",
        "k1",
        "utility_opt",
        "utility_truthful",
        "ratio",
        "dp_states",
        "dp_millis",
    )


SOLVE_PATH_ONLY = [
    "dataclasses",
    "inspect",
    "csv",
    "concurrent.futures",
    "seqmanip.oracle",
    "seqmanip.responses",
    "seqmanip.greedy",
    "seqmanip.sweeps",
]


def modules_after(*argv):
    """The modules a fresh interpreter holds after ``cli.main(argv)``."""
    script = (
        "import contextlib, io, json, sys\n"
        "from seqmanip import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


def test_solve_loads_only_the_dynamic_program(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(example1_document(), encoding="utf-8")
    loaded = modules_after("solve", str(path))
    assert loaded.isdisjoint(SOLVE_PATH_ONLY), sorted(loaded.intersection(SOLVE_PATH_ONLY))
    assert {"seqmanip.cli", "seqmanip.dp"} <= loaded
    assert "seqmanip.oracle" in modules_after("solve", str(path), "--check")
    # The responses' commands load no dataclass machinery either.
    for argv in (["truthful", str(path)], ["ratio", str(path)], ["ratio", "--tightness", "5"]):
        loaded = modules_after(*argv)
        assert loaded.isdisjoint(["dataclasses", "inspect", "ast", "tokenize"]), argv
        assert "seqmanip.responses" in loaded and loaded.isdisjoint(["seqmanip.oracle", "seqmanip.sweeps"]), argv
