"""The operations runbook and the serving CLIs name the same flags.

Every flag that ``python -m repro.serve``, ``python -m
repro.serve.router`` and ``python -m repro.serve.telemetry.watch``
accept is documented in docs/operations.md, and every ``--flag`` the
runbook names is accepted by one of those programs or by
``benchmarks/run_bench_serve.py``, which the runbook's capacity checks
run.  A flag a program drops therefore leaves the runbook with it.
"""

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.serve import httpd, router
from repro.serve.telemetry.watch import __main__ as watch_cli

ROOT = Path(__file__).resolve().parents[1]
RUNBOOK = ROOT / "docs" / "operations.md"
#: a long option as prose and shell lines write it (a bare ``--`` is not one)
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


#: the serving programs the runbook documents, by the command that runs them
PROGRAMS = {
    "python -m repro.serve": httpd.main,
    "python -m repro.serve.router": router.main,
    "python -m repro.serve.telemetry.watch": watch_cli.main,
}


def parsed_flags(run, monkeypatch) -> "set[str]":
    """The long options of the parser whose help ``run`` prints."""
    parsers = []
    monkeypatch.setattr(
        argparse.ArgumentParser, "print_help",
        lambda parser, file=None: parsers.append(parser),
    )
    with pytest.raises(SystemExit):
        run()
    (parser,) = parsers
    return {
        option for action in parser._actions
        for option in action.option_strings if option.startswith("--")
    } - {"--help"}


def serving_flags(monkeypatch) -> "dict[str, set[str]]":
    return {
        program: parsed_flags(lambda: main(["--help"]), monkeypatch)
        for program, main in PROGRAMS.items()
    }


def bench_serve_flags(monkeypatch) -> "set[str]":
    spec = importlib.util.spec_from_file_location(
        "run_bench_serve", ROOT / "benchmarks" / "run_bench_serve.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_bench_serve.py", "--help"])
    return parsed_flags(module.main, monkeypatch)


def runbook_flags() -> "set[str]":
    return set(FLAG.findall(RUNBOOK.read_text()))


def test_every_serving_flag_is_in_the_runbook(monkeypatch):
    documented = runbook_flags()
    missing = {
        program: sorted(flags - documented)
        for program, flags in serving_flags(monkeypatch).items()
        if flags - documented
    }
    assert missing == {}


def test_every_runbook_flag_is_accepted(monkeypatch):
    accepted = bench_serve_flags(monkeypatch)
    for flags in serving_flags(monkeypatch).values():
        accepted |= flags
    assert sorted(runbook_flags() - accepted) == []
