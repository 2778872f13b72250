"""Byte-for-byte help and usage-error output of the CLI.

``golden/cli_help.json`` holds, for every argument list below, the exit
code and the exact standard output and standard error, at a terminal width
of 80 columns.  The parser adds a subcommand's arguments only when that
subcommand is named on the command line, so these outputs guard that the
help texts and the usage errors stay what they were.  The file was written
once by running this module as a script (``PYTHONPATH=src python
tests/test_cli_help.py``); it is not regenerated to make a change pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from seqmanip import cli
from seqmanip.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_help.json"

COMMANDS = ["solve", "greedy", "truthful", "oracle", "ratio", "achievable", "gen", "verify", "bench"]

ARGVS = (
    [[], ["--help"], ["-h"], ["--help", "solve"]]
    + [[command, "--help"] for command in COMMANDS]
    + [
        ["frobnicate"],
        ["frobnicate", "--help"],
        ["solve"],
        ["achievable", "instance.json"],
        ["solve", "instance.json", "--budget", "0"],
        ["solve", "instance.json", "--bogus"],
        ["oracle", "instance.json", "--method", "exhaustive"],
        ["gen", "--agents", "two"],
        ["solve", "gen", "--bogus"],
        ["--version"],
    ]
)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def test_golden_covers_every_argument_list():
    assert [case["argv"] for case in _golden()] == ARGVS


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse formats help and usage differently from 3.13 on")
@pytest.mark.parametrize("index", range(len(ARGVS)), ids=[" ".join(argv) or "(none)" for argv in ARGVS])
def test_help_and_usage_errors_are_unchanged(monkeypatch, index):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(ARGVS[index]) == _golden()[index]


def test_the_output_does_not_depend_on_which_commands_get_arguments(monkeypatch):
    """On any interpreter: the same outputs as from a parser that gives
    every command its arguments."""
    monkeypatch.setenv("COLUMNS", "80")
    lazy = [_run(argv) for argv in ARGVS]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: build(COMMANDS))
    assert [_run(argv) for argv in ARGVS] == lazy


def _write_golden() -> None:
    os.environ["COLUMNS"] = "80"
    cases = [_run(argv) for argv in ARGVS]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
