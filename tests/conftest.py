import os
from pathlib import Path

import pytest

import _util

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pytest puts ``src`` on its own path (pyproject.toml); the CLI tests'
    # child processes find the package only through PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def ex1():
    return _util.example1()


@pytest.fixture
def ex1_document():
    return _util.example1_document()


@pytest.fixture
def walks(monkeypatch):
    """The instances the dominated walk's body runs on, in order."""
    from seqmanip import oracle

    walked = []
    real_walk = oracle._walk

    def counted(inst, budget):
        walked.append(inst)
        return real_walk(inst, budget)

    monkeypatch.setattr(oracle, "_walk", counted)
    return walked
