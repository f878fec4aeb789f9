"""Hostile files at two entry points: the artifact store and the fuzz
corpus.

Every input a disk can hold — random bytes, torn or bit-flipped
entries, empty files, a directory where an entry or a lock file
belongs, stray tmp files, a leftover ``index.json`` of any content,
any JSON or bytes as ``corpus.json`` or a finding's ``case.json`` —
must end in a typed outcome.  API calls return a miss, a quarantine or
a :class:`~repro.store.StoreWarning` degradation and never raise; the
CLI exits 0 (or 1 from ``cache verify`` on corruption) without a
traceback.
"""

import functools
import io
import json
import os
import struct
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import Session, compile_source
from repro.api.profiles import as_profile
from repro.cli import main
from repro.fuzz.corpus import SCHEMA, Corpus
from repro.store import (MAGIC, ArtifactStore, StoreWarning,
                         cache_key_text, compute_key)

_SETTINGS = dict(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

PROGRAM = r'''
int main(void) {
    int a[4];
    int i;
    int sum = 0;
    for (i = 0; i < 4; i++) a[i] = i * 5;
    for (i = 0; i < 4; i++) sum += a[i];
    printf("sum %d\n", sum);
    return sum;
}
'''
PROFILE = as_profile("spatial")
KEY = compute_key(PROGRAM, PROFILE, True)
KEY_TEXT = cache_key_text(PROFILE, True)

#: Any JSON document, small.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=8)

#: What lies at the entry's path: ``(kind, *arguments)``, laid out
#: against a valid entry by :func:`plant_store`.
ENTRY_SHAPES = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=256)),
    st.tuples(st.just("prefix"), st.integers(min_value=0)),
    st.tuples(st.just("flip"), st.integers(min_value=0),
              st.integers(min_value=0, max_value=7)),
    st.just(("empty",)),
    st.just(("directory",)),
)

#: A leftover ``index.json`` of an older layout: absent, any bytes,
#: any JSON, or the old schema with arbitrary entries.
LEFTOVER_INDEXES = st.one_of(
    st.none(),
    st.binary(max_size=128),
    JSON.map(json.dumps),
    st.fixed_dictionaries({
        "schema": st.just("store-index-v1"),
        "clock": JSON,
        "entries": st.dictionaries(st.text(max_size=8), JSON, max_size=3),
    }).map(json.dumps),
)

STORE_LAYOUTS = st.fixed_dictionaries({
    "entry": ENTRY_SHAPES,
    "others": st.lists(st.binary(max_size=64), max_size=2),
    "tmp": st.lists(st.tuples(st.binary(max_size=64), st.booleans()),
                    max_size=2),
    "index": LEFTOVER_INDEXES,
    "lock_directory": st.booleans(),
})

#: JSON nested past the decoder's recursion limit.
DEEP_JSON = "[" * 100_000

#: The old index schema with one list-valued entry, and an entry whose
#: well-framed header is :data:`DEEP_JSON`.
LIST_VALUED_INDEX = {
    "entry": ("prefix", 10**9), "others": [], "tmp": [],
    "index": json.dumps({"schema": "store-index-v1", "clock": 3,
                         "entries": {"a" * 64: [1, 2]}}),
    "lock_directory": False,
}
DEEP_HEADER = dict(LIST_VALUED_INDEX, index=None, entry=(
    "bytes", MAGIC + struct.pack(">I", len(DEEP_JSON)) + DEEP_JSON.encode()))


@functools.lru_cache(maxsize=None)
def valid_entry():
    """``(compiled program, entry bytes, payload digest)`` of one good
    store entry for :data:`PROGRAM`."""
    compiled = compile_source(PROGRAM, profile=PROFILE)
    with tempfile.TemporaryDirectory() as scratch:
        store = ArtifactStore(scratch)
        assert store.save(PROGRAM, PROFILE, True, compiled)
        with open(store.entry_path(KEY), "rb") as handle:
            blob = handle.read()
        return compiled, blob, store.payload_sha256(KEY)


def write(path, data):
    with open(path, "wb") as handle:
        handle.write(data if isinstance(data, bytes) else data.encode())


def plant_store(root, layout):
    """Lay ``layout`` out as a store directory at ``root``."""
    _, blob, _ = valid_entry()
    store = ArtifactStore(root)
    kind, *arguments = layout["entry"]
    path = store.entry_path(KEY)
    if kind == "directory":
        os.mkdir(path)
    elif kind == "bytes":
        write(path, arguments[0])
    elif kind == "prefix":
        write(path, blob[:arguments[0] % len(blob)])
    elif kind == "flip":
        data = bytearray(blob)
        data[arguments[0] % len(blob)] ^= 1 << arguments[1]
        write(path, bytes(data))
    else:
        write(path, b"")
    for number, data in enumerate(layout["others"]):
        write(store.entry_path(f"{number:064x}"), data)
    for number, (data, aged) in enumerate(layout["tmp"]):
        tmp = f"{store.entry_path(KEY)}.tmp.{number}"
        write(tmp, data)
        if aged:
            os.utime(tmp, (1, 1))
    if layout["index"] is not None:
        write(os.path.join(root, "index.json"), layout["index"])
    if layout["lock_directory"]:
        os.mkdir(os.path.join(store.locks_dir,
                              "flight." + KEY[:32] + ".lock"))


def only_store_warnings(caught):
    return [str(item.message) for item in caught
            if not issubclass(item.category, StoreWarning)]


@settings(**_SETTINGS)
@given(layout=STORE_LAYOUTS)
@example(layout=LIST_VALUED_INDEX)
@example(layout=DEEP_HEADER)
def test_store_api_answers_hostile_files(layout):
    compiled, _, digest = valid_entry()
    with tempfile.TemporaryDirectory() as scratch, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plant_store(scratch, layout)
        store = ArtifactStore(scratch, max_entries=2)
        json.dumps(store.stats_report())
        if store.get(KEY, key_text=KEY_TEXT) is not None:
            # Only bits no check covers (a label, a timestamp) flipped.
            assert store.payload_sha256(KEY) == digest
        report = store.verify()
        assert report.checked == report.ok + len(report.corrupt)
        landed = store.put(KEY, compiled, key_text=KEY_TEXT,
                           label=PROFILE.label)
        assert landed == (layout["entry"][0] != "directory")
        if landed:
            assert store.get(KEY, key_text=KEY_TEXT) is not None
        assert set(store.gc()) >= {"tmp_swept", "evicted"}
        report = store.stats_report()
        assert report["entries"] <= 2
        json.dumps(report)
    assert only_store_warnings(caught) == []


@settings(**_SETTINGS)
@given(layout=STORE_LAYOUTS)
@example(layout=LIST_VALUED_INDEX)
@example(layout=DEEP_HEADER)
def test_session_runs_on_a_hostile_store(layout):
    with tempfile.TemporaryDirectory() as scratch, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plant_store(scratch, layout)
        report = Session(store_dir=scratch).run(PROGRAM, profile="spatial")
    assert (report.exit_code, report.output) == (30, "sum 30\n")
    assert report.cache["origin"] in ("store", "compile")
    assert only_store_warnings(caught) == []


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StoreWarning)
        code = main(argv, out, err)
    assert "Traceback" not in err.getvalue()
    return code


@settings(**_SETTINGS)
@given(layout=STORE_LAYOUTS)
@example(layout=LIST_VALUED_INDEX)
@example(layout=DEEP_HEADER)
def test_cache_cli_answers_hostile_files(layout):
    with tempfile.TemporaryDirectory() as scratch:
        plant_store(scratch, layout)
        for argv, allowed in ((["cache", "stats"], {0}),
                              (["cache", "stats", "--json"], {0}),
                              (["cache", "verify"], {0, 1}),
                              (["cache", "gc"], {0}),
                              (["cache", "gc", "--json"], {0})):
            assert run_cli(argv + ["--store", scratch]) in allowed, argv


#: ``corpus.json``: any bytes, any JSON, or the right schema around
#: arbitrary ``judged`` and ``meta`` values.
CHECKPOINTS = st.one_of(
    st.binary(max_size=128),
    JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"schema": st.just(SCHEMA)},
        optional={"judged": JSON | st.dictionaries(st.text(max_size=8),
                                                   JSON, max_size=3),
                  "meta": JSON}).map(json.dumps),
)

#: A finding's ``case.json``: any bytes, any JSON, or an object whose
#: listed fields have arbitrary types.
CASES = st.one_of(
    st.binary(max_size=64),
    JSON.map(json.dumps),
    st.dictionaries(st.sampled_from(["id", "kind", "policy", "detail",
                                     "original_lines", "minimized_lines"]),
                    JSON, max_size=6).map(json.dumps),
)


@settings(**_SETTINGS)
@given(checkpoint=st.none() | CHECKPOINTS, cases=st.lists(CASES, max_size=3))
@example(checkpoint="[]", cases=[])
@example(checkpoint=json.dumps({"schema": SCHEMA, "judged": [1]}), cases=[])
@example(checkpoint=json.dumps({"schema": SCHEMA,
                                "judged": {"clean:0": 5}}), cases=[])
@example(checkpoint=None, cases=["[]", json.dumps({"detail": 7})])
@example(checkpoint=DEEP_JSON, cases=[DEEP_JSON])
def test_corpus_answers_hostile_files(checkpoint, cases):
    with tempfile.TemporaryDirectory() as scratch:
        if checkpoint is not None:
            write(os.path.join(scratch, "corpus.json"), checkpoint)
        for number, case in enumerate(cases):
            case_dir = os.path.join(scratch, "findings", f"case{number}")
            os.makedirs(case_dir)
            write(os.path.join(case_dir, "case.json"), case)
        corpus = Corpus(scratch)
        summary = corpus.summary()
        assert all(isinstance(value, int) for value in summary.values())
        findings = list(corpus.iter_findings())
        assert len(findings) == len(cases)
        assert all(isinstance(case, dict) for case in findings)
        for argv in (["fuzz", "corpus", "--corpus", scratch],
                     ["fuzz", "corpus", "--corpus", scratch, "--json"]):
            assert run_cli(argv) == 0, argv
