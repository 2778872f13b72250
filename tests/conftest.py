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
