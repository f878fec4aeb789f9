"""Reduce ``REPRO_TRACE`` JSON-lines into per-layer numbers.

A span's *self time* is its duration minus the time its direct children
cover.  Layers are named after the ``src/repro`` modules; the span
names the program (and this benchmark) emits map onto them through
:data:`SPAN_LAYERS`.  Nothing here hides a residual: time a root span
spends outside every child is reported under its own ``*_untraced_ms``
name by the workload that owns the root.

A unit-of-work span (:data:`~perfbench.common.ROOT_SPANS`) is always a
root.  The serve daemon keeps its span stack per thread while asyncio
interleaves requests on one thread, so a ``serve.request`` records
whichever request was still open as its parent; that link is ignored.
"""

import json

from .common import ROOT_SPANS

#: Span name -> per-layer metric its self time feeds.  ``stage.post-
#: optimize`` is split by opt level by the caller (``-O2`` runs the
#: prove pass inside it).
SPAN_LAYERS = {
    "stage.parse": "frontend.parse_ms",
    "stage.typecheck": "frontend.typecheck_ms",
    "stage.lower": "lower.lower_ms",
    "stage.optimize": "opt.optimize_ms",
    "stage.instrument": "softbound.instrument_ms",
    "stage.post-optimize": "opt.post_optimize_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "vm.run": "vm.run_ms",
    "bench.run": "vm.run_ms",
    "bench.instantiate": "vm.instantiate_ms",
    "task.api_run": "harness.task_untraced_ms",
    "serve.compile": "serve.compile_ms",
}


class Trace:
    """The spans of one traced phase, indexed for reduction."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {span["span"]: span for span in self.spans}
        self.children = {}
        for span in self.spans:
            if span["name"] in ROOT_SPANS:
                span.pop("parent", None)
            parent = span.get("parent")
            if parent in self.by_id:
                self.children.setdefault(parent, []).append(span)

    @classmethod
    def load(cls, paths, since=None, until=None):
        """Read every line of ``paths``; keep spans that started inside
        ``[since, until]`` (wall-clock seconds) when a window is given.
        A truncated last line (a writer killed mid-write) is skipped."""
        spans = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        span = json.loads(line)
                    except ValueError:
                        continue
                    if since is not None and span["ts"] < since:
                        continue
                    if until is not None and span["ts"] > until:
                        continue
                    spans.append(span)
        return cls(spans)

    def named(self, name):
        return [span for span in self.spans if span["name"] == name]

    def child_seconds(self, span):
        return sum(child["dur"]
                   for child in self.children.get(span["span"], ()))

    def self_seconds(self, span):
        return max(span["dur"] - self.child_seconds(span), 0.0)

    def self_totals(self, level_of=None):
        """Per-layer self seconds summed over the trace.  ``level_of``
        maps a span to its compile's opt level (or None) so ``-O2``
        post-optimize time lands on ``opt.post_optimize_o2_ms``."""
        totals = {}
        for span in self.spans:
            layer = SPAN_LAYERS.get(span["name"])
            if layer is None:
                continue
            if layer == "opt.post_optimize_ms" and level_of is not None \
                    and level_of(span) == 2:
                layer = "opt.post_optimize_o2_ms"
            totals[layer] = totals.get(layer, 0.0) + self.self_seconds(span)
        return totals

    def root_of(self, span):
        while span.get("parent") in self.by_id:
            span = self.by_id[span["parent"]]
        return span

    def orphans(self):
        """Spans no request or task owns: a parent id that is not in the
        trace, or no parent and not a unit-of-work root."""
        count = 0
        for span in self.spans:
            parent = span.get("parent")
            if parent is None:
                count += span["name"] not in ROOT_SPANS
            elif parent not in self.by_id:
                count += 1
        return count

    def coverage(self, roots):
        """Share of the named roots' time their direct children cover."""
        total = covered = 0.0
        for span in self.spans:
            if span["name"] in roots and span.get("parent") is None:
                total += span["dur"]
                covered += min(self.child_seconds(span), span["dur"])
        return covered / total if total else 0.0
