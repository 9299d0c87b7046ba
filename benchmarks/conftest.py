"""Shared fixtures for the benchmark harnesses.

Heavy simulation passes are computed once per session and shared across
the benchmark modules; every harness's table is printed with capture
disabled, so naming the harness files shows the regenerated paper
artifacts::

    python -m pytest benchmarks/bench_*.py --benchmark-disable -s

Name the files: pytest's default ``python_files`` pattern does not match
``bench_*.py``, so ``pytest benchmarks/`` collects nothing.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def fig9_data():
    """The 4-CNN x 3-accelerator simulation grid (used by E7-E9)."""
    from repro.analysis.fig9 import simulate_all

    return simulate_all()


@pytest.fixture
def show(capsys):
    """Print an ExperimentResult bypassing pytest's capture."""

    def _show(result) -> None:
        with capsys.disabled():
            print()
            print(result.render())
            print()

    return _show
