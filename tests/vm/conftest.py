"""Fixtures shared by the VM tests."""

import copy

import pytest

from repro.api.env import resolve_engine
from repro.api.toolchain import CompiledProgram
from repro.vm import engine


@pytest.fixture
def thresholds(monkeypatch):
    """Iterate over the ways to compare the engines: at the engine's own
    region-compile threshold ``HOT_RUNS``, at 1 (every region compiled
    at its first run), and on a warm machine.  A short program runs
    most of its regions fewer than ``HOT_RUNS`` times, so only the
    second pass compares their compiled code with the interpreter.  In
    the third, every compiled-engine machine a ``CompiledProgram``
    instantiates (``run`` included) follows ``HOT_RUNS`` throwaway runs
    of the program on machines made with the same arguments (copies of
    the same observers), so it runs what earlier machines of the
    program specialized."""
    instantiate = CompiledProgram.instantiate

    def warm(self, *args, **kwargs):
        if resolve_engine(kwargs.get("engine")) == "compiled":
            for _ in range(engine.HOT_RUNS):
                machine = instantiate(
                    self, *args, **dict(kwargs, observers=copy.deepcopy(
                        tuple(kwargs.get("observers", ())))))
                machine.run()
                machine.memory.release()
        return instantiate(self, *args, **kwargs)

    def each():
        hot_runs = engine.HOT_RUNS
        for leg in (hot_runs, 1):
            monkeypatch.setattr(engine, "HOT_RUNS", leg)
            yield leg
        monkeypatch.setattr(engine, "HOT_RUNS", hot_runs)
        monkeypatch.setattr(CompiledProgram, "instantiate", warm)
        yield "warm"
        monkeypatch.setattr(CompiledProgram, "instantiate", instantiate)

    return each
