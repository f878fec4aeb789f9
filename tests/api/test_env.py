"""Precedence tests for the centralized engine/jobs resolution:
flag > environment variable > default."""

import pytest

from repro.api import (
    DEFAULT_ENGINE,
    DEFAULT_JOBS,
    resolve_engine,
    resolve_env,
    resolve_jobs,
)


class TestResolveEngine:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == DEFAULT_ENGINE == "compiled"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert resolve_engine() == "interp"

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert resolve_engine("compiled") == "compiled"

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine() == "compiled"

    def test_unknown_engine_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")
        monkeypatch.setenv("REPRO_ENGINE", "typo")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == DEFAULT_JOBS == 1

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(3) == 3

    def test_garbled_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs() == 1

    def test_nonpositive_values_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == 1
        assert resolve_jobs(-2) == 1


class TestResolveEnv:
    def test_both_axes_resolved_together(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        monkeypatch.setenv("REPRO_JOBS", "4")
        env = resolve_env()
        assert (env.engine, env.jobs) == ("interp", 4)
        env = resolve_env(engine="compiled", jobs=2)
        assert (env.engine, env.jobs) == ("compiled", 2)

    def test_machine_delegates_here(self, monkeypatch):
        from repro.api import compile_source

        compiled = compile_source("int main(void) { return 0; }")
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert compiled.instantiate().engine_name == "interp"
        assert compiled.instantiate(engine="compiled").engine_name \
            == "compiled"
