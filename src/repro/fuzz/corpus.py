"""The campaign's on-disk state: corpus checkpoint + minimized findings.

Layout of a corpus directory::

    corpus.json             checkpoint (atomically replaced, never torn)
    programs/<sha12>.c      content-addressed program sources
    findings/<id>/
        case.json           bugbench-style metadata for the finding
        original.c          the full reproducer as generated
        minimized.c         the delta-debugged minimal reproducer

``corpus.json`` maps every judged seed key (``clean:17``,
``use_after_free:42``, ...) to its verdict, so a campaign that is
``kill -9``'d mid-run resumes exactly where it stopped: already-judged
seeds are skipped, the in-flight seed is re-run.  The checkpoint is
written with ``tmpfile + os.replace`` — a reader never observes a
half-written file — and an unreadable checkpoint (disk torn some other
way, or a document of the wrong shape) degrades to an empty corpus
instead of wedging the campaign.  A ``case.json`` that is unreadable or
not an object is listed as an ``unreadable case.json`` stub.
"""

import hashlib
import json
import os
import time

SCHEMA = "fuzz-corpus-v1"
CASE_SCHEMA = "fuzz-case-v1"


def source_sha(source):
    return hashlib.sha256(source.encode()).hexdigest()[:12]


def _atomic_write_json(path, document):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class Corpus:
    """A corpus directory.  Creating one loads any existing checkpoint;
    ``record`` + ``save`` keep it current."""

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.programs_dir = os.path.join(self.root, "programs")
        self.findings_dir = os.path.join(self.root, "findings")
        os.makedirs(self.programs_dir, exist_ok=True)
        os.makedirs(self.findings_dir, exist_ok=True)
        self.checkpoint_path = os.path.join(self.root, "corpus.json")
        #: seed key -> judged record (verdict, sha, runs, discrepancies).
        self.judged = {}
        self.meta = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.checkpoint_path):
            return
        try:
            with open(self.checkpoint_path) as handle:
                document = json.load(handle)
            if not isinstance(document, dict):
                raise ValueError(f"checkpoint is a {type(document).__name__}")
            if document.get("schema") != SCHEMA:
                raise ValueError(f"unknown schema {document.get('schema')!r}")
            judged = document.get("judged", {})
            meta = document.get("meta", {})
            if not (isinstance(judged, dict) and isinstance(meta, dict)
                    and all(isinstance(record, dict)
                            for record in judged.values())):
                raise ValueError("judged, meta and every judged record "
                                 "must be objects")
            self.judged = judged
            self.meta = meta
        except (OSError, ValueError, RecursionError) as error:
            # A torn/foreign checkpoint must not wedge the campaign.
            self.judged = {}
            self.meta = {"recovered_from": f"{type(error).__name__}: {error}"}

    # -- programs ------------------------------------------------------

    def add_program(self, source):
        """Store ``source`` content-addressed; returns its sha12."""
        sha = source_sha(source)
        path = os.path.join(self.programs_dir, f"{sha}.c")
        if not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(source)
        return sha

    def program_path(self, sha):
        return os.path.join(self.programs_dir, f"{sha}.c")

    # -- judged seeds --------------------------------------------------

    def is_judged(self, seed_key):
        return seed_key in self.judged

    def record(self, seed_key, judgment, sha, extra=None):
        """Record one seed's judgment and checkpoint immediately — the
        crash-consistency contract is "every judged seed survives"."""
        entry = {
            "sha": sha,
            "verdict": judgment.verdict,
            "runs": judgment.runs,
            "discrepancies": [d.to_json() for d in judgment.discrepancies],
            "infra": list(judgment.infra),
        }
        if extra:
            entry.update(extra)
        self.judged[seed_key] = entry
        self.save()
        return entry

    def save(self):
        _atomic_write_json(self.checkpoint_path, {
            "schema": SCHEMA,
            "meta": self.meta,
            "judged": self.judged,
        })

    # -- findings ------------------------------------------------------

    def add_finding(self, finding_id, discrepancy, original, minimized,
                    seed_key, extra=None):
        """Register a minimized reproducer as a bugbench-style case
        directory; returns its path.  ``finding_id`` collisions get a
        numeric suffix rather than clobbering an older case."""
        case_id = finding_id
        counter = 1
        while os.path.exists(os.path.join(self.findings_dir, case_id)):
            counter += 1
            case_id = f"{finding_id}-{counter}"
        case_dir = os.path.join(self.findings_dir, case_id)
        os.makedirs(case_dir)
        with open(os.path.join(case_dir, "original.c"), "w") as handle:
            handle.write(original)
        with open(os.path.join(case_dir, "minimized.c"), "w") as handle:
            handle.write(minimized)
        case = {
            "schema": CASE_SCHEMA,
            "id": case_id,
            "seed": seed_key,
            "kind": discrepancy.kind,
            "policy": discrepancy.policy,
            "expected_class": discrepancy.expected_class,
            "reference_policy": discrepancy.reference_policy,
            "configs": list(discrepancy.configs),
            "detail": discrepancy.detail,
            "original_sha": source_sha(original),
            "minimized_sha": source_sha(minimized),
            "original_lines": original.count("\n"),
            "minimized_lines": minimized.count("\n"),
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        if extra:
            case.update(extra)
        _atomic_write_json(os.path.join(case_dir, "case.json"), case)
        return case_dir

    def iter_findings(self):
        """Yield every finding's ``case.json`` document, sorted by id."""
        if not os.path.isdir(self.findings_dir):
            return
        for name in sorted(os.listdir(self.findings_dir)):
            case_path = os.path.join(self.findings_dir, name, "case.json")
            if not os.path.exists(case_path):
                continue
            try:
                with open(case_path) as handle:
                    case = json.load(handle)
            except (OSError, ValueError, RecursionError):
                case = None
            yield (case if isinstance(case, dict)
                   else {"id": name, "error": "unreadable case.json"})

    # -- reporting -----------------------------------------------------

    def summary(self):
        counts = {"clean": 0, "discrepancy": 0, "infra": 0}
        for entry in self.judged.values():
            verdict = entry.get("verdict")
            if not isinstance(verdict, str):
                verdict = "infra"
            counts[verdict] = counts.get(verdict, 0) + 1
        counts["judged"] = len(self.judged)
        counts["findings"] = sum(1 for _ in self.iter_findings())
        return counts
