"""Tracer semantics: JSON-lines schema, span nesting and ordering,
summaries, and the disabled null-object path."""

import json
import os

import pytest

from repro.api import compile_source, run_compiled
from repro.obs.trace import (NULL_SPAN, NULL_TRACER, disable_tracing,
                             enable_tracing, tracer, tracing_enabled)

SCHEMA_KEYS = {"name", "span", "ts", "dur", "pid", "parent", "attrs"}
REQUIRED_KEYS = {"name", "span", "ts", "dur", "pid"}


def read_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture
def sink(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    enable_tracing(path)
    yield path
    disable_tracing()


class TestDisabled:
    def test_null_tracer_by_default(self):
        assert tracer() is NULL_TRACER
        assert not tracing_enabled()

    def test_null_spans_are_inert(self):
        span = tracer().start_span("anything", k=1)
        assert span is NULL_SPAN
        span.set(x=2)
        span.finish()
        with tracer().span("scoped"):
            pass
        assert tracer().summary() == {}


class TestEnable:
    def test_enable_exports_env_for_workers(self, sink):
        assert tracing_enabled()
        assert os.environ["REPRO_TRACE"] == sink

    def test_disable_clears_env(self, sink):
        disable_tracing()
        assert "REPRO_TRACE" not in os.environ
        assert not tracing_enabled()

    def test_reenable_same_path_keeps_tracer(self, sink):
        first = tracer()
        assert enable_tracing(sink) is first


class TestSchema:
    def test_line_schema_round_trips(self, sink):
        with tracer().span("alpha", key="value"):
            pass
        (line,) = read_lines(sink)
        assert REQUIRED_KEYS <= set(line) <= SCHEMA_KEYS
        assert line["name"] == "alpha"
        assert line["attrs"] == {"key": "value"}
        assert line["pid"] == os.getpid()
        pid, seq = line["span"].split(":")
        assert int(pid) == os.getpid() and int(seq) >= 1
        assert line["dur"] >= 0

    def test_every_line_is_standalone_json(self, sink):
        for index in range(3):
            with tracer().span("s", i=index):
                pass
        assert [line["attrs"]["i"] for line in read_lines(sink)] == [0, 1, 2]


class TestNesting:
    def test_child_records_parent_and_finishes_first(self, sink):
        with tracer().span("outer") as outer:
            with tracer().span("inner"):
                pass
        inner_line, outer_line = read_lines(sink)
        assert inner_line["name"] == "inner"
        assert inner_line["parent"] == outer.span_id
        assert outer_line["name"] == "outer"
        assert "parent" not in outer_line

    def test_explicit_span_outlives_scope(self, sink):
        held = tracer().start_span("held")
        with tracer().span("sibling"):
            pass
        held.finish(done=True)
        names = [line["name"] for line in read_lines(sink)]
        assert names == ["sibling", "held"]

    def test_sibling_nests_under_held_span(self, sink):
        held = tracer().start_span("held")
        with tracer().span("child"):
            pass
        held.finish()
        child_line, _ = read_lines(sink)
        assert child_line["parent"] == held.span_id



class TestSpanIdentity:
    def test_forked_child_gets_its_own_span_ids(self, sink):
        # A pool worker forked from a traced parent must not keep the
        # parent's pid stamp and sequence, or both emit the same ids.
        with tracer().span("parent"):
            tracer().span("before").finish()
            pid = os.fork()
            if pid == 0:
                try:
                    tracer().span("child").finish()
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            tracer().span("after").finish()
        lines = read_lines(sink)
        ids = [line["span"] for line in lines]
        assert len(ids) == len(set(ids)) == 4
        child = next(line for line in lines if line["name"] == "child")
        assert child["pid"] == pid
        assert child["span"].startswith(f"{pid}:")
        assert "parent" not in child

    def test_concurrent_asyncio_spans_nest_per_task(self, sink):
        # Concurrent requests share one event-loop thread; each must
        # nest under its own span, not under whichever opened first.
        import asyncio

        async def request(name):
            with tracer().span(name) as span:
                await asyncio.sleep(0)
                with tracer().span(name + ".child"):
                    await asyncio.sleep(0)
            return span.span_id

        async def main():
            return await asyncio.gather(request("a"), request("b"))

        a_id, b_id = asyncio.run(main())
        lines = {line["name"]: line for line in read_lines(sink)}
        assert "parent" not in lines["a"]
        assert "parent" not in lines["b"]
        assert lines["a.child"]["parent"] == a_id
        assert lines["b.child"]["parent"] == b_id

class TestAttrs:
    def test_set_and_finish_attrs_merge(self, sink):
        span = tracer().start_span("s", a=1)
        span.set(b=2)
        span.finish(c=3)
        (line,) = read_lines(sink)
        assert line["attrs"] == {"a": 1, "b": 2, "c": 3}

    def test_exception_sets_error_attr(self, sink):
        with pytest.raises(RuntimeError):
            with tracer().span("failing"):
                raise RuntimeError("boom")
        (line,) = read_lines(sink)
        assert line["attrs"]["error"] == "RuntimeError"

    def test_double_finish_emits_once(self, sink):
        span = tracer().start_span("once")
        span.finish()
        span.finish()
        assert len(read_lines(sink)) == 1


class TestSummary:
    def test_counts_and_totals_per_name(self, sink):
        for _ in range(3):
            with tracer().span("hot"):
                pass
        with tracer().span("cold"):
            pass
        summary = tracer().summary()
        assert summary["hot"]["count"] == 3
        assert summary["cold"]["count"] == 1
        assert summary["hot"]["total_s"] >= 0


class TestRunSpans:
    def test_instantiate_and_run_are_siblings_under_the_caller(self, tmp_path):
        compiled = compile_source("int main(void) { return 3; }", "spatial")
        path = str(tmp_path / "trace.jsonl")
        enable_tracing(path)
        with tracer().span("task") as task:
            report = run_compiled(compiled, "spatial")
        lines = {line["name"]: line for line in read_lines(path)}
        assert set(lines) == {"task", "vm.instantiate", "vm.run"}
        assert "parent" not in lines["task"]
        assert lines["vm.instantiate"]["parent"] == task.span_id
        assert lines["vm.run"]["parent"] == task.span_id
        assert report.obs["trace"]["vm.instantiate"]["count"] == 1
