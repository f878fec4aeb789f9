"""ArtifactStore behaviour: hits, quarantine, eviction, a leftover
index file, maintenance ops, and every in-process injected fault
class."""

import json
import os
import warnings

import pytest

from repro.api import ProtectionProfile, compile_source
from repro.harness import faults
from repro.store import ArtifactStore, StoreWarning, compute_key
from repro.store.store import ENTRY_SUFFIX

from storeutil import PROGRAM

SPATIAL = ProtectionProfile.from_name("spatial")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def compiled():
    return compile_source(PROGRAM, profile=SPATIAL)


def put_one(store, compiled, source=PROGRAM):
    assert store.save(source, SPATIAL, True, compiled)
    return compute_key(source, SPATIAL, True)


class TestPutGet:
    def test_round_trip(self, store, compiled):
        key = put_one(store, compiled)
        clone = store.load(PROGRAM, SPATIAL, True)
        assert clone is not None
        assert clone.run().exit_code == compiled.run().exit_code
        assert store.stats.puts == 1 and store.stats.hits == 1
        assert os.path.exists(store.entry_path(key))

    def test_miss_on_empty_store(self, store):
        assert store.load(PROGRAM, SPATIAL, True) is None
        assert store.stats.misses == 1

    def test_fresh_instance_sees_the_entry(self, store, compiled):
        put_one(store, compiled)
        reopened = ArtifactStore(store.root)
        assert reopened.load(PROGRAM, SPATIAL, True) is not None

    def test_optimize_level_is_part_of_the_address(self, store, compiled):
        put_one(store, compiled)
        assert store.load(PROGRAM, SPATIAL, False) is None


class TestCorruptionQuarantine:
    def corrupt_and_get(self, store, compiled, mutate):
        key = put_one(store, compiled)
        path = store.entry_path(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(mutate(blob))
        with pytest.warns(StoreWarning, match="quarantined"):
            result = store.load(PROGRAM, SPATIAL, True)
        return key, result

    def assert_quarantined(self, store, key, result):
        assert result is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(store.entry_path(key))
        assert len(store.quarantined()) == 1
        # The quarantined name carries the key and the failure reason.
        (name,) = store.quarantined()
        assert name.startswith(key)

    def test_truncation(self, store, compiled):
        key, result = self.corrupt_and_get(store, compiled,
                                           lambda blob: blob[:len(blob) // 2])
        self.assert_quarantined(store, key, result)

    def test_bit_flip(self, store, compiled):
        def flip(blob):
            data = bytearray(blob)
            data[-20] ^= 0x10
            return bytes(data)
        key, result = self.corrupt_and_get(store, compiled, flip)
        self.assert_quarantined(store, key, result)

    def test_foreign_bytes(self, store, compiled):
        key, result = self.corrupt_and_get(store, compiled,
                                           lambda blob: b"not an entry")
        self.assert_quarantined(store, key, result)

    def test_recompile_after_quarantine_repopulates(self, store, compiled):
        key, _ = self.corrupt_and_get(store, compiled,
                                      lambda blob: blob[:32])
        put_one(store, compiled)
        assert store.load(PROGRAM, SPATIAL, True) is not None


class TestInjectedWriteFaults:
    def test_torn_write_detected_on_read(self, store, compiled):
        faults.install("torn_write")
        key = put_one(store, compiled)  # the write itself "succeeds"
        with pytest.warns(StoreWarning, match="quarantined"):
            assert store.load(PROGRAM, SPATIAL, True) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(store.entry_path(key))

    def test_bitflip_detected_on_read(self, store, compiled):
        faults.install("bitflip")
        put_one(store, compiled)
        with pytest.warns(StoreWarning, match="quarantined"):
            assert store.load(PROGRAM, SPATIAL, True) is None
        assert store.stats.corrupt == 1

    def test_eperm_degrades(self, store, compiled):
        faults.install("eperm")
        with pytest.warns(StoreWarning, match="not persisted"):
            assert not store.save(PROGRAM, SPATIAL, True, compiled)
        assert store.stats.write_errors == 1
        # The store keeps working afterwards.
        assert store.save(PROGRAM, SPATIAL, True, compiled)

    def test_disk_full_degrades(self, store, compiled):
        faults.install("disk_full")
        with pytest.warns(StoreWarning, match="not persisted"):
            assert not store.save(PROGRAM, SPATIAL, True, compiled)
        assert store.stats.write_errors == 1
        assert store.load(PROGRAM, SPATIAL, True) is None

    def test_unpicklable_payload_degrades(self, store):
        with pytest.warns(StoreWarning, match="does not pickle"):
            assert not store.put("a" * 64, lambda: None)
        assert store.stats.write_errors == 1


class TestEviction:
    def entries(self, store):
        return sorted(name for name in os.listdir(store.objects_dir)
                      if name.endswith(ENTRY_SUFFIX))

    def test_entry_count_bound(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path / "store", max_entries=3)
        for index in range(5):
            store.save(f"// v{index}\n" + PROGRAM, SPATIAL, True, compiled)
        assert len(self.entries(store)) == 3
        assert store.stats.evictions == 2

    def test_lru_order_respects_recency(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path / "store", max_entries=2)
        first = f"// a\n{PROGRAM}"
        second = f"// b\n{PROGRAM}"
        store.save(first, SPATIAL, True, compiled)
        store.save(second, SPATIAL, True, compiled)
        assert store.load(first, SPATIAL, True) is not None  # refresh a
        store.save(f"// c\n{PROGRAM}", SPATIAL, True, compiled)
        assert store.load(first, SPATIAL, True) is not None
        assert store.load(second, SPATIAL, True) is None  # b was LRU

    def test_byte_size_bound(self, tmp_path, compiled):
        store = ArtifactStore(tmp_path / "store")
        key = put_one(store, compiled)
        size = os.path.getsize(store.entry_path(key))
        bounded = ArtifactStore(tmp_path / "store2",
                                max_bytes=int(size * 2.5))
        for index in range(4):
            bounded.save(f"// v{index}\n" + PROGRAM, SPATIAL, True, compiled)
        assert len(self.entries(bounded)) <= 2
        assert bounded.stats.evictions >= 2


#: ``index.json`` files an older layout of the store may have left.
LEFTOVER_INDEXES = {
    "torn": '{"schema": "store-index-v1", "entr',
    "foreign-schema": json.dumps({"schema": "somebody-else"}),
    "list-entry": json.dumps({"schema": "store-index-v1", "clock": 3,
                              "entries": {"a" * 64: [1, 2]}}),
}


class TestLeftoverIndex:
    def exercise(self, root, compiled):
        """Put, serve from a fresh instance, evict, report and gc."""
        store = ArtifactStore(root, max_entries=2)
        first = put_one(store, compiled)
        reopened = ArtifactStore(root, max_entries=2)
        served = reopened.load(PROGRAM, SPATIAL, True) is not None
        for index in range(2):
            reopened.save(f"// v{index}\n" + PROGRAM, SPATIAL, True,
                          compiled)
        report = reopened.stats_report()
        del report["root"]
        return (served, os.path.exists(reopened.entry_path(first)),
                report, reopened.gc())

    @pytest.mark.parametrize("text", list(LEFTOVER_INDEXES.values()),
                             ids=list(LEFTOVER_INDEXES))
    def test_leftover_index_is_ignored(self, tmp_path, compiled, text):
        """The store serves, puts, evicts, reports and runs gc as if
        the file were absent, and leaves it alone."""
        root = tmp_path / "store"
        root.mkdir()
        index = root / "index.json"
        index.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            seen = self.exercise(root, compiled)
        expected = self.exercise(tmp_path / "plain", compiled)
        assert seen == expected
        assert expected[:2] == (True, False)  # served, then evicted
        assert index.read_text() == text


class TestMaintenance:
    def test_verify_clean_store(self, store, compiled):
        put_one(store, compiled)
        report = store.verify()
        assert (report.checked, report.ok) == (1, 1)
        assert not report.corrupt

    def test_verify_quarantines_and_reports(self, store, compiled):
        key = put_one(store, compiled)
        with open(store.entry_path(key), "r+b") as handle:
            handle.truncate(40)
        report = store.verify()
        assert report.checked == 1 and report.ok == 0
        assert [item[0] for item in report.corrupt] == [key]
        assert store.quarantined()
        # A second verify over the healed store is clean.
        follow_up = store.verify()
        assert follow_up.checked == 0 and not follow_up.corrupt

    def test_gc_sweeps_aged_tmp_files(self, store, compiled):
        put_one(store, compiled)
        orphan = os.path.join(store.objects_dir, "x" * 64 + ".rpa.tmp.999")
        with open(orphan, "wb") as handle:
            handle.write(b"half-written")
        os.utime(orphan, (1, 1))  # ancient
        report = store.gc()
        assert report["tmp_swept"] == 1
        assert not os.path.exists(orphan)

    def test_gc_keeps_young_tmp_files(self, store, compiled):
        orphan = os.path.join(store.objects_dir, "y" * 64 + ".rpa.tmp.999")
        with open(orphan, "wb") as handle:
            handle.write(b"in flight")
        assert store.gc()["tmp_swept"] == 0
        assert os.path.exists(orphan)

    def test_gc_sweeps_aged_lock_files(self, store):
        """The flight-lock files of compiles killed mid-flight go once
        they are old; a young one may belong to a live compile."""
        aged = os.path.join(store.locks_dir, "flight." + "a" * 32 + ".lock")
        young = os.path.join(store.locks_dir, "flight." + "b" * 32 + ".lock")
        for path in (aged, young):
            open(path, "wb").close()
        os.utime(aged, (1, 1))
        assert store.gc()["locks_swept"] == 1
        assert os.listdir(store.locks_dir) == [os.path.basename(young)]

    def test_gc_enforces_override_bounds(self, store, compiled):
        for index in range(4):
            store.save(f"// v{index}\n" + PROGRAM, SPATIAL, True, compiled)
        report = store.gc(max_entries=1)
        assert report["evicted"] == 3
        assert store.stats_report()["entries"] == 1

    def test_gc_sweep_corrupt(self, store, compiled):
        key = put_one(store, compiled)
        with open(store.entry_path(key), "wb") as handle:
            handle.write(b"junk")
        store.verify()
        assert store.quarantined()
        report = store.gc(sweep_corrupt=True)
        assert report["corrupt_swept"] == 1
        assert not store.quarantined()

    def test_stats_report_shape(self, store, compiled):
        put_one(store, compiled)
        report = store.stats_report()
        assert report["entries"] == 1
        assert report["total_bytes"] > 0
        assert report["counters"]["puts"] == 1
        json.dumps(report)  # JSON-able for the CLI

    def test_stats_report_ignores_other_live_stores(self, tmp_path,
                                                    compiled):
        """Another store's traffic must not leak into this report —
        the obs-registry overlay folds worker *deltas*, not every
        repro_store_* source alive in the process."""
        busy = ArtifactStore(tmp_path / "busy")
        put_one(busy, compiled)
        quiet = ArtifactStore(tmp_path / "quiet")
        counters = quiet.stats_report()["counters"]
        assert counters["puts"] == 0 and counters["hits"] == 0

    def test_stats_report_folds_merged_worker_deltas(self, store,
                                                     compiled):
        from repro.obs.metrics import default_registry

        put_one(store, compiled)
        default_registry().merge({"repro_store_hits": 2,
                                  "repro_other_total": 9})
        try:
            counters = store.stats_report()["counters"]
            assert counters["hits"] == 2 and counters["puts"] == 1
            assert "other_total" not in counters
        finally:
            default_registry().reset()

