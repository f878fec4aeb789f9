"""Structured tracer: nestable spans emitted as JSON-lines.

One line per finished span::

    {"name": "stage.optimize", "span": "12345:3", "parent": "12345:1",
     "ts": 1723020000.123, "dur": 0.0042, "pid": 12345,
     "attrs": {"function_count": 4}}

``ts`` is the span's start (``time.time()``), ``dur`` its wallclock
duration in seconds, ``span``/``parent`` are ``pid:seq`` identifiers so
lines from pool workers interleave without colliding.  Attributes are
JSON-safe scalars supplied at ``start_span`` or ``finish`` time; VM
spans add instruction costs there.

Enable with ``REPRO_TRACE=path`` in the environment or
:func:`enable_tracing` (the CLI's ``--trace PATH``).  Enabling also
exports ``REPRO_TRACE`` so pool workers inherit the sink and append to
the same file — lines are written atomically (single ``write`` of one
line, opened with ``O_APPEND`` semantics) so concurrent writers never
shear.  When disabled, :func:`tracer` returns a shared null object
whose ``span``/``start_span`` hand back no-op spans: the cost at an
instrumented call site is one method call, no allocation.

Nesting is tracked per context (a :class:`contextvars.ContextVar`), so
concurrent asyncio tasks on one event-loop thread each nest under their
own spans, as threads do; ``span()`` is a context manager,
``start_span``/``finish`` the explicit form for spans that outlive a
scope (parallel task lifetimes).  A forked child starts with its own
pid stamp, sequence and an empty span stack, so its span ids never
repeat the parent's.
"""

import contextvars
import json
import os
import threading
import time


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs):
        return self

    def finish(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _NullTracer:
    __slots__ = ()
    enabled = False
    path = None

    def span(self, name, **attrs):
        return NULL_SPAN

    def start_span(self, name, **attrs):
        return NULL_SPAN

    def summary(self):
        return {}

NULL_TRACER = _NullTracer()


class Span:
    __slots__ = ("tracer", "name", "span_id", "parent_id", "ts",
                 "attrs", "_t0", "_done")

    def __init__(self, tracer, name, span_id, parent_id, attrs):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.ts = time.time()
        self._t0 = time.perf_counter()
        self._done = False

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs):
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        self.tracer._finish(self, time.perf_counter() - self._t0)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.finish()
        return False


class Tracer:
    """JSON-lines span emitter with per-context nesting."""

    enabled = True

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._summary = {}
        self._reset_identity()

    def _reset_identity(self):
        """Fresh lock, pid stamp, sequence and span stack (at start, and
        in a forked child, whose inherited ones belong to the parent)."""
        self._lock = threading.Lock()
        self._seq = 0
        self._pid = os.getpid()
        self._stack = contextvars.ContextVar("repro.obs.trace.stack",
                                             default=())

    def _next_id(self):
        with self._lock:
            self._seq += 1
            return "%d:%d" % (self._pid, self._seq)

    def start_span(self, name, **attrs):
        stack = self._stack.get()
        parent = stack[-1].span_id if stack else None
        span = Span(self, name, self._next_id(), parent, attrs)
        self._stack.set(stack + (span,))
        return span

    def span(self, name, **attrs):
        return self.start_span(name, **attrs)

    def _finish(self, span, dur):
        stack = self._stack.get()
        # Out-of-order finishes (explicit start_span held across scopes)
        # just remove the span wherever it sits.
        if span in stack:
            self._stack.set(tuple(s for s in stack if s is not span))
        line = {
            "name": span.name,
            "span": span.span_id,
            "ts": round(span.ts, 6),
            "dur": round(dur, 6),
            "pid": self._pid,
        }
        if span.parent_id is not None:
            line["parent"] = span.parent_id
        if span.attrs:
            line["attrs"] = span.attrs
        text = json.dumps(line, sort_keys=True, default=str) + "\n"
        with self._lock:
            self._fh.write(text)
            self._fh.flush()
            cell = self._summary.setdefault(span.name, [0, 0.0])
            cell[0] += 1
            cell[1] += dur

    def summary(self):
        """Per-span-name ``{count, total_s}`` totals for this process."""
        with self._lock:
            return {name: {"count": c, "total_s": round(t, 6)}
                    for name, (c, t) in sorted(self._summary.items())}

    def close(self):
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass


class StageTracer:
    """Toolchain observer (duck-typed): one span per pipeline stage.

    ``Toolchain.__init__`` appends one of these when tracing is active;
    spans are named ``stage.<name>`` and nest under whatever span is
    open at compile time (a parallel task, a fuzz seed)."""

    def __init__(self):
        self._open = {}

    def before_stage(self, stage, payload):
        self._open[stage] = _tracer.start_span("stage." + stage)

    def after_stage(self, stage, artifact):
        span = self._open.pop(stage, None)
        if span is not None:
            span.finish()


_tracer = NULL_TRACER


def tracer():
    return _tracer


def tracing_enabled():
    return _tracer.enabled


def enable_tracing(path):
    """Start emitting spans to ``path`` (JSON-lines, appended).  Also
    exports ``REPRO_TRACE`` so pool workers inherit the sink."""
    global _tracer
    if _tracer.enabled:
        if _tracer.path == str(path):
            return _tracer
        _tracer.close()
    _tracer = Tracer(path)
    os.environ["REPRO_TRACE"] = str(path)
    return _tracer


def disable_tracing():
    global _tracer
    if _tracer.enabled:
        _tracer.close()
    _tracer = NULL_TRACER
    os.environ.pop("REPRO_TRACE", None)


def _auto_enable():
    path = os.environ.get("REPRO_TRACE")
    if path:
        enable_tracing(path)


def _reset_in_child():
    if _tracer.enabled:
        _tracer._reset_identity()


os.register_at_fork(after_in_child=_reset_in_child)
_auto_enable()
