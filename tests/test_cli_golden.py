"""Byte-for-byte CLI outputs on fixed instances.

``golden/cli.json`` holds the instance documents and, for every command
below, the exit code and the exact standard output.  Refactors must keep
these outputs unchanged.  The file was written once by running this module
as a script (``PYTHONPATH=src python tests/test_cli_golden.py``); it is not
regenerated to make a change pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

import seqmanip as sm
from seqmanip.cli import main
from _util import example1_document

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

# (n_agents, n_items, seed); (4, 8, 2) gives the manipulator no turn.
RANDOM_INSTANCES = [(2, 6, 1), (2, 8, 2), (3, 7, 3), (3, 8, 1), (4, 6, 3), (4, 8, 3), (4, 8, 2)]


def _documents() -> dict[str, str]:
    docs = {"example1": sm.serialize_instance(sm.parse_instance(example1_document()))}
    for n, m, seed in RANDOM_INSTANCES:
        docs[f"random-n{n}-m{m}-s{seed}"] = sm.serialize_instance(sm.generate_random_instance(n, m, seed))
    return docs


def _argvs(doc: str) -> list[list[str]]:
    """Every command run on one instance; ``{instance}`` stands for its path."""
    inst = sm.parse_instance(doc)
    truthful = sm.bundle_items(sm.execute(inst, inst.manipulator_ranking), sm.MANIPULATOR)
    worst = inst.manipulator_ranking[inst.m - inst.k1 :]
    return [
        ["solve", "{instance}"],
        ["solve", "{instance}", "--check"],
        ["solve", "{instance}", "--dump-table"],
        ["greedy", "{instance}"],
        ["truthful", "{instance}"],
        ["oracle", "{instance}", "--method", "choice-tree"],
        ["oracle", "{instance}", "--method", "dominated-greedy"],
        ["ratio", "{instance}"],
        ["achievable", "{instance}", "--target=" + ",".join(sorted(truthful))],
        ["achievable", "{instance}", "--target=" + ",".join(worst)],
    ]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _with_path(argv: list[str], path: Path) -> list[str]:
    return [str(path) if arg == "{instance}" else arg for arg in argv]


def test_golden_documents_match_generators():
    assert _golden()["documents"] == _documents()


@pytest.mark.parametrize("case", _golden()["cases"], ids=lambda case: case["id"])
def test_golden_cli_output(capsys, tmp_path, case):
    path = tmp_path / "instance.json"
    path.write_text(_golden()["documents"][case["document"]], encoding="utf-8")
    code = main(_with_path(case["argv"], path))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def _write_golden() -> None:
    docs = _documents()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        for name, doc in docs.items():
            path.write_text(doc, encoding="utf-8")
            for argv in _argvs(doc):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(_with_path(argv, path))
                label = " ".join(arg for arg in argv if arg != "{instance}")
                cases.append({"id": f"{name}: {label}", "document": name, "argv": argv, "exit": code, "stdout": out.getvalue()})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"documents": docs, "cases": cases}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
