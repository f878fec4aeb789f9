"""Fixtures shared by the VM tests."""

import pytest

from repro.vm import engine


@pytest.fixture
def thresholds(monkeypatch):
    """Iterate over the region-compile thresholds to compare the engines
    at: the engine's own ``HOT_RUNS``, then 1 (every region compiled at
    its first run).  A short program runs most of its regions fewer than
    ``HOT_RUNS`` times, so only the second pass compares their compiled
    code with the interpreter."""
    def each():
        for hot_runs in (engine.HOT_RUNS, 1):
            monkeypatch.setattr(engine, "HOT_RUNS", hot_runs)
            yield hot_runs

    return each
