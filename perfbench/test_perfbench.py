"""Tests for the pipeline benchmark: the paper-axis anchor, the trace
reducer, the tail rule and the no-program refusal.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.common import (  # noqa: E402
    CELLS, E2E_RATIOS, O2_RATIOS, Result, tail)
from perfbench.reduce import Trace  # noqa: E402


@pytest.fixture(scope="module")
def corpus_ratios():
    """Cost ratios of one untimed corpus pass."""
    from perfbench import corpus
    from perfbench.calibrate import HostClock
    from perfbench.common import geomean_ratio
    from perfbench.layers import Counts
    from repro.workloads.programs import WORKLOADS

    result = Result("corpus")
    costs = {}
    corpus.run_pass(corpus.compile_corpus(), random.Random(0), result, {},
                    costs, Counts(), HostClock())
    assert result.failed == 0 and result.attempted == len(WORKLOADS) * 5
    return {metric: geomean_ratio(costs, cell, list(WORKLOADS))
            for metric, cell in {**E2E_RATIOS, **O2_RATIOS}.items()}


def test_paper_axis_matches_bench_prove(corpus_ratios):
    """``spatial`` at -O1/-O2 is BENCH_prove.json's geomean overhead."""
    recorded = json.loads((ROOT / "BENCH_prove.json").read_text())
    assert round((corpus_ratios["cost_ratio_spatial"] - 1) * 100, 3) \
        == recorded["geomean_overhead_o1_pct"]
    assert round((corpus_ratios["prove.cost_ratio_spatial_o2"] - 1) * 100,
                 3) == recorded["geomean_overhead_o2_pct"]


def test_full_profile_ratios_are_pinned(corpus_ratios):
    assert round(corpus_ratios["cost_ratio_full"], 5) == 1.73071
    assert round(corpus_ratios["prove.cost_ratio_full_o2"], 5) == 1.59001


def test_cells_cover_the_paper_axis():
    assert CELLS[0] == ("none", 1)
    assert set(E2E_RATIOS.values()) | set(O2_RATIOS.values()) \
        == set(CELLS[1:])


def span(name, span_id, dur, parent=None, ts=100.0, **attrs):
    line = {"name": name, "span": span_id, "dur": dur, "ts": ts, "pid": 1}
    if parent is not None:
        line["parent"] = parent
    if attrs:
        line["attrs"] = attrs
    return line


def test_reducer_self_times_orphans_and_coverage():
    trace = Trace([
        span("task.api_run", "1:1", 1.0),
        span("stage.parse", "1:2", 0.25, parent="1:1"),
        span("stage.post-optimize", "1:3", 0.25, parent="1:1"),
        span("vm.run", "1:4", 0.125, parent="1:1"),
        span("vm.run", "2:1", 0.5),                  # no owner: orphan
        span("store.get", "2:2", 0.1, parent="9:9"),  # parent lost: orphan
    ])
    totals = trace.self_totals(level_of=lambda s: 2)
    assert totals["frontend.parse_ms"] == 0.25
    assert totals["opt.post_optimize_o2_ms"] == 0.25
    assert "opt.post_optimize_ms" not in totals
    assert totals["harness.task_untraced_ms"] == 0.375
    assert totals["vm.run_ms"] == 0.625
    assert trace.orphans() == 2
    assert trace.coverage(("task.api_run",)) == 0.625


def test_unit_of_work_spans_never_nest():
    """Concurrent requests on one asyncio thread record each other as
    parents; each stays its own root."""
    trace = Trace([
        span("serve.request", "1:1", 0.5),
        span("serve.request", "1:2", 0.25, parent="1:1"),
    ])
    assert trace.coverage(("serve.request",)) == 0.0
    assert trace.orphans() == 0


def test_reducer_window_and_torn_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(span("bench.cell", "1:1", 0.5, ts=5.0)) + "\n"
                    + json.dumps(span("bench.cell", "1:2", 0.5, ts=20.0))
                    + "\n" + '{"name": "bench.ce')
    trace = Trace.load([str(path)], since=10.0)
    assert [s["span"] for s in trace.spans] == ["1:2"]


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    percentile, value = tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert percentile == 90.0
    assert tail([3, 1, 2]) == (100.0, 3)


def test_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast
    and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""
