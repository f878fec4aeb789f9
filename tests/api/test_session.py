"""Session tests: compile caching, structured reports, batch execution."""

import gc
import pickle
import tracemalloc

import pytest

from repro.api import (BatchReport, RunReport, RunRequest, Session,
                       compile_source, run_compiled, run_source)
from repro.vm.memory import DEFAULT_HEAP_SIZE, DEFAULT_STACK_SIZE

CLEAN = r'''
int main(void) {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i;
    printf("sum %d\n", a[0] + a[1] + a[2] + a[3]);
    return 6;
}
'''

OVERFLOW = r'''
int main(void) {
    char b[4];
    strcpy(b, "definitely too long");
    return 0;
}
'''

UAF = r'''
int main(void) {
    long *p = (long *)malloc(16);
    free(p);
    p[0] = 1;
    return 0;
}
'''


class TestCompileCache:
    def test_repeat_compiles_hit_the_cache(self):
        session = Session()
        first = session.compile(CLEAN, "spatial")
        assert session.compile(CLEAN, "spatial") is first
        assert session.cached_programs == 1

    def test_cache_keyed_by_profile_and_opt_level(self):
        session = Session()
        a = session.compile(CLEAN, "spatial")
        b = session.compile(CLEAN, "temporal")
        c = session.compile(CLEAN, "none")
        assert a is not b and b is not c
        assert session.cached_programs == 3
        unoptimized = Session(optimize=False)
        assert unoptimized.compile(CLEAN, "spatial") is not a

    def test_observer_profiles_share_the_uninstrumented_compile(self):
        """Observers attach at run time, so all observer-based profiles
        are cache hits against the plain build."""
        session = Session()
        plain = session.compile(CLEAN, "none")
        assert session.compile(CLEAN, "valgrind") is plain
        assert session.compile(CLEAN, "jones-kelly") is plain
        assert session.cached_programs == 1
        report = session.run(CLEAN, profile="valgrind")
        assert report.ok and report.profile == "valgrind"

    def test_clear_empties_the_cache(self):
        session = Session()
        session.compile(CLEAN)
        session.clear()
        assert session.cached_programs == 0


class TestRunReports:
    def test_clean_run_report(self):
        report = Session().run(CLEAN, profile="spatial", name="clean")
        assert report.ok and not report.detected_violation
        assert report.exit_code == 6
        assert report.name == "clean"
        assert report.profile == "spatial"
        assert report.trap_kind is None
        assert "sum 6" in report.output
        assert report.stats.checks > 0
        assert report.pass_stats is not None
        assert report.check_opt_stats is not None
        assert report.wallclock_seconds > 0

    def test_trap_report_carries_kind_and_cost(self):
        report = Session().run(OVERFLOW, profile="spatial")
        assert report.detected_violation
        assert report.trap_kind == "spatial_violation"
        assert report.cost == report.stats.cost > 0

    def test_temporal_trap_kind(self):
        report = Session().run(UAF, profile="temporal")
        assert report.trap_kind == "temporal_violation"

    def test_reports_are_picklable(self):
        report = Session().run(OVERFLOW, profile="spatial")
        clone = pickle.loads(pickle.dumps(report))
        assert clone.trap_kind == "spatial_violation"
        assert clone.stats.cost == report.stats.cost

    def test_to_json_row_shape(self):
        row = Session().run(CLEAN, profile="spatial").to_json()
        assert row["value"] == row["stats"]["cost"]
        assert row["profile"] == "spatial"
        assert row["trap"] is None
        assert row["check_opt_stats"]["removed_checks"] >= 0


class TestRunMany:
    REQUESTS = [
        RunRequest("clean-spatial", CLEAN, "spatial"),
        RunRequest("overflow-spatial", OVERFLOW, "spatial"),
        RunRequest("uaf-temporal", UAF, "temporal"),
        ("clean-none", CLEAN, "none"),
    ]

    def test_serial_batch(self):
        batch = Session().run_many(self.REQUESTS, benchmark="smoke")
        assert isinstance(batch, BatchReport)
        assert list(batch.reports) == ["clean-spatial", "overflow-spatial",
                                       "uaf-temporal", "clean-none"]
        assert batch["overflow-spatial"].trap_kind == "spatial_violation"
        assert batch["uaf-temporal"].trap_kind == "temporal_violation"
        assert batch["clean-none"].ok

    def test_parallel_matches_serial(self):
        serial = Session().run_many(self.REQUESTS)
        parallel = Session().run_many(self.REQUESTS, jobs=2)
        for name, report in serial.reports.items():
            twin = parallel[name]
            assert isinstance(twin, RunReport)
            assert twin.exit_code == report.exit_code
            assert twin.output == report.output
            assert str(twin.trap) == str(report.trap)
            assert twin.stats.cost == report.stats.cost

    def test_batch_json_is_bench_v2(self):
        batch = Session().run_many(self.REQUESTS, benchmark="smoke")
        doc = batch.to_json()
        assert doc["schema"] == "bench-v2"
        assert doc["benchmark"] == "smoke"
        assert doc["config"] == "mixed"
        assert set(doc["workloads"]) == set(batch.reports)
        assert doc["geomean"] > 0

    def test_uniform_profile_batch_records_config(self):
        batch = Session().run_many([("a", CLEAN, "spatial"),
                                    ("b", OVERFLOW, "spatial")])
        assert batch.to_json()["config"] == "spatial"

    def test_duplicate_run_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate run names"):
            Session().run_many([("same", CLEAN, "none"),
                                ("same", OVERFLOW, "spatial")])

    def test_per_request_optimize_matches_across_paths(self):
        """A request-level optimize override must produce the same cost
        serially (cached path) and in workers (recompute path)."""
        request = RunRequest("raw", CLEAN, "spatial", optimize=False)
        serial = Session().run_many([request])["raw"]
        parallel = Session().run_many([request, ("other", CLEAN, "none")],
                                      jobs=2)["raw"]
        assert serial.stats.cost == parallel.stats.cost
        optimized = Session().run(CLEAN, profile="spatial")
        assert serial.stats.cost > optimized.stats.cost

    def test_bench_diff_consumes_batch_reports(self, tmp_path):
        """The recorded batch document is directly diffable by
        scripts/bench_diff.py (the bench-v2 contract)."""
        import importlib.util
        import pathlib

        script = pathlib.Path(__file__).parents[2] / "scripts" / "bench_diff.py"
        spec = importlib.util.spec_from_file_location("bench_diff", script)
        bench_diff = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_diff)

        batch = Session().run_many([("a", CLEAN, "spatial")])
        path = batch.write(tmp_path / "BENCH_api.json")
        report = bench_diff.load(path)
        values = bench_diff.normalized_values(report)
        assert values["a"] == float(batch["a"].stats.cost)


class TestEngineOverride:
    def test_session_run_accepts_engine_override(self):
        session = Session(engine="compiled")
        interp = session.run(CLEAN, engine="interp")
        default = session.run(CLEAN)
        assert interp.engine == "interp"
        assert default.engine == "compiled"
        assert interp.stats.cost == default.stats.cost


class TestRunSource:
    def test_one_shot_form_matches_session(self):
        one_shot = run_source(CLEAN, profile="spatial")
        cached = Session().run(CLEAN, profile="spatial")
        assert one_shot.exit_code == cached.exit_code
        assert one_shot.stats.cost == cached.stats.cost

    def test_engine_override(self):
        interp = run_source(CLEAN, engine="interp")
        compiled = run_source(CLEAN, engine="compiled")
        assert interp.engine == "interp"
        assert compiled.engine == "compiled"
        assert interp.stats.cost == compiled.stats.cost


class TestImageRelease:
    def test_finished_runs_do_not_keep_their_images(self):
        """A finished machine is a reference cycle (machine, libc,
        runtime, engine), so only the cycle collector frees it; the
        one-shot run paths free its heap, stack and globals first."""
        compiled = compile_source(CLEAN, "spatial")
        run_compiled(compiled, "spatial")
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(3):
                run_compiled(compiled, "spatial")
                compiled.run()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
            gc.collect()
        assert held < DEFAULT_HEAP_SIZE + DEFAULT_STACK_SIZE
