"""Session ↔ store integration: the two-level cache, the equivalence
acceptance criterion (a store hit is bit-identical to a fresh compile
for every registered policy on both engines), corruption recovery
through the facade, and batch workers sharing warm artifacts."""

import os

import pytest

from repro.api import (
    ENGINES,
    PROFILES,
    DEFAULT_CACHE_ENTRIES,
    RunRequest,
    Session,
    open_store,
    resolve_store,
)
from repro.store import ArtifactStore, StoreWarning

from storeutil import PROGRAM

#: Out-of-bounds write: checking profiles trap, permissive ones do not
#: — either way the behaviour must survive the store round trip.
OVERFLOW = r'''
int main(void) {
    int a[4];
    int i;
    for (i = 0; i <= 4; i++) a[i] = i;
    printf("done %d\n", a[2]);
    return 0;
}
'''


def comparable_row(report):
    """Everything deterministic in a report: the bench-v2 row minus
    host wallclock and cache provenance."""
    row = report.to_json()
    row.pop("wallclock_seconds")
    row.pop("cache", None)
    return row


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
def test_store_hit_is_bit_identical_to_fresh_compile(tmp_path,
                                                     profile_name):
    """The acceptance criterion: outputs, traps and cost statistics all
    agree between a fresh compile and a store round trip, for this
    policy on both engines."""
    store_dir = str(tmp_path / "store")
    for source in (PROGRAM, OVERFLOW):
        fresh = Session(store_dir=store_dir)
        warm = Session(store_dir=store_dir)
        for engine in ENGINES:
            baseline = fresh.run(source, profile=profile_name,
                                 engine=engine)
            replayed = warm.run(source, profile=profile_name,
                                engine=engine)
            assert replayed.cache["origin"] in ("store", "memory")
            assert comparable_row(replayed) == comparable_row(baseline)
        # The warm session really did read from disk at least once.
        assert warm.store.stats.hits >= 1
        assert warm.store.stats.misses == 0


class TestTwoLevelCache:
    def test_origin_transitions(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = Session(store_dir=store_dir)
        assert first.run(PROGRAM).cache["origin"] == "compile"
        assert first.run(PROGRAM).cache["origin"] == "memory"
        second = Session(store_dir=store_dir)
        assert second.run(PROGRAM).cache["origin"] == "store"
        assert second.run(PROGRAM).cache["origin"] == "memory"

    def test_report_cache_counters_shape(self, tmp_path):
        session = Session(store_dir=str(tmp_path / "store"))
        report = session.run(PROGRAM)
        cache = report.cache
        assert cache["origin"] == "compile"
        assert cache["memory"]["misses"] == 1
        assert cache["store"]["puts"] == 1
        assert "cache" in report.to_json()

    def test_no_store_configured(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        session = Session()
        assert session.store is None
        report = session.run(PROGRAM)
        assert report.cache["origin"] == "compile"
        assert report.cache["store"] is None

    def test_sessionless_reports_omit_cache(self):
        from repro.api import run_source

        report = run_source(PROGRAM, profile="spatial")
        assert report.cache is None
        assert "cache" not in report.to_json()

    def test_clear_drops_memory_not_disk(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(store_dir=store_dir)
        session.run(PROGRAM)
        session.clear()
        assert session.cached_programs == 0
        assert session.run(PROGRAM).cache["origin"] == "store"


class TestBoundedSessionCache:
    def sources(self, count):
        return [f"int main(void) {{ return {index}; }}"
                for index in range(count)]

    def test_default_bound(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        counters = Session().cache_counters()["memory"]
        assert counters["max_entries"] == DEFAULT_CACHE_ENTRIES

    def test_lru_bound_enforced(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        session = Session(cache_entries=2)
        for source in self.sources(3):
            session.compile(source, profile="spatial")
        assert session.cached_programs == 2
        counters = session.cache_counters()["memory"]
        assert counters == {"entries": 2, "hits": 0, "misses": 3,
                            "evictions": 1, "max_entries": 2}

    def test_evicted_entry_recompiles(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        session = Session(cache_entries=1)
        first, second = self.sources(2)
        session.compile(first, profile="spatial")
        session.compile(second, profile="spatial")
        _, origin = session.lookup(first, profile="spatial")
        assert origin == "compile"
        assert session.cache_counters()["memory"]["evictions"] == 2

    def test_recency_refresh_on_hit(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        session = Session(cache_entries=2)
        first, second, third = self.sources(3)
        session.compile(first, profile="spatial")
        session.compile(second, profile="spatial")
        session.compile(first, profile="spatial")  # refresh
        session.compile(third, profile="spatial")  # evicts `second`
        _, origin = session.lookup(first, profile="spatial")
        assert origin == "memory"


class TestEnvResolution:
    def test_env_var_enables_the_store(self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_STORE", store_dir)
        session = Session()
        assert session.store is not None
        session.run(PROGRAM)
        assert os.path.isdir(os.path.join(store_dir, "objects"))

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
        assert resolve_store(str(tmp_path / "flag")) \
            == str(tmp_path / "flag")

    def test_empty_flag_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
        assert resolve_store("") is None

    def test_empty_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "")
        assert resolve_store() is None

    def test_open_store_helper(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert open_store() is None
        store = open_store(str(tmp_path / "store"), max_entries=7)
        assert isinstance(store, ArtifactStore)
        assert store.max_entries == 7

    def test_unopenable_store_degrades_with_warning(self, tmp_path):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("occupied")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            session = Session(store_dir=str(blocker))
        assert session.store is None
        assert session.run(PROGRAM).exit_code == 84


class TestCorruptionThroughTheFacade:
    def test_corrupt_entry_recompiles_transparently(self, tmp_path):
        store_dir = str(tmp_path / "store")
        Session(store_dir=store_dir).run(PROGRAM)
        store = ArtifactStore(store_dir)
        (name,) = os.listdir(store.objects_dir)
        path = os.path.join(store.objects_dir, name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)

        session = Session(store_dir=store_dir)
        with pytest.warns(StoreWarning, match="quarantined"):
            report = session.run(PROGRAM)
        assert report.cache["origin"] == "compile"
        assert report.cache["store"]["corrupt"] == 1
        assert report.exit_code == 84
        # The recompile re-warmed the store: next session hits again.
        assert Session(store_dir=store_dir).run(PROGRAM) \
            .cache["origin"] == "store"


class TestFlightLocks:
    def test_cold_compiles_leave_no_lock_files(self, tmp_path):
        """Each cold compile removes its flight-lock file, also when
        the compile fails, so a bounded store does not grow one lock
        file per distinct program ever compiled."""
        from repro.frontend.errors import FrontendError

        session = Session(store_dir=str(tmp_path / "store"))
        session.store.max_entries = 5
        for index in range(40):
            session.run(f"int main(void) {{ return {index}; }}")
        with pytest.raises(FrontendError):
            session.run("int main(void) { return undeclared; }")
        assert os.listdir(session.store.locks_dir) == []
        assert session.store.stats_report()["entries"] == 5


class TestBatchWorkersShareTheStore:
    def items(self):
        return [(f"job{index}",
                 f"int main(void) {{ return {40 + index}; }}", "spatial")
                for index in range(3)]

    def test_parallel_batch_warms_and_reuses(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = Session(store_dir=store_dir)
        batch = cold.run_many(self.items(), jobs=2)
        assert [report.exit_code for report in batch] == [40, 41, 42]
        assert ArtifactStore(store_dir).stats_report()["entries"] == 3

        warm = Session(store_dir=store_dir)
        replay = warm.run_many(self.items(), jobs=2)
        for report in replay:
            assert report.cache["origin"] == "store"
            assert report.cache["store"]["hits"] >= 1
        assert [report.exit_code for report in replay] == [40, 41, 42]

    def test_serial_batch_uses_the_session_cache(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(store_dir=store_dir)
        batch = session.run_many(self.items(), jobs=1)
        for report in batch:
            assert report.cache["origin"] == "compile"
        replay = session.run_many(self.items(), jobs=1)
        for report in replay:
            assert report.cache["origin"] == "memory"

    def test_explicit_request_store_dir_survives_resolution(self,
                                                            tmp_path):
        request = RunRequest(name="r", source=PROGRAM, profile="spatial",
                             store_dir=str(tmp_path / "mine"))
        resolved = request.resolved(True, True, "compiled",
                                    store_dir=str(tmp_path / "other"))
        assert resolved.store_dir == str(tmp_path / "mine")
