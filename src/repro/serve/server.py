"""The serve daemon's asyncio HTTP front-end.

A deliberately small HTTP/1.1 server (standard library only, one
request per connection) in front of a warm
:class:`~repro.harness.pool.IsolatedPool`.  The wire contract:

* ``POST /run`` — compile (cached) and execute the posted
  C source under a registered protection profile; the response body is
  the :meth:`RunReport.to_json() <repro.api.reports.RunReport.to_json>`
  row, bit-identical to ``python -m repro run --json`` apart from host
  wallclock and the cache/obs blocks.
* ``POST /check`` — ``/run`` with the profile defaulting to
  ``spatial`` (``"temporal": true`` selects ``temporal``), the CLI
  ``check`` shorthand.
* ``POST /compile`` — compile and warm the caches without running;
  returns the artifact key and cache origin.
* ``GET /metrics`` — JSON snapshot of the ``repro_serve_*`` (and all
  other) metric series plus derived latency quantiles.
* ``GET /healthz`` — liveness: worker pids, queue depth, uptime.

The HTTP status mapping mirrors the CLI exit-code contract
deterministically (the ``X-Repro-Exit-Code`` header carries the exact
code): 0→200, 2/3 (detected violation — the request *succeeded at
detecting*, but the program is hostile)→403, 4 (compile/link
error)→422, 5 (VM trap incl. exhausted instruction budget)→500,
64→400.  One refinement over the raw exit code: a program that runs to
completion is 200 *whatever its own exit status was* (the CLI passes
that through as its exit code; HTTP reports it in the body's
``exit_code`` instead) — the trap field, not the number, decides.  Serve-level degradations use their own statuses: 503 when the
admission queue sheds the request, 504 when the wallclock deadline
kills a hung worker, 500 when a request kills its worker twice.  The
front door answers a malformed request 400, one not received within
:data:`REQUEST_READ_SECONDS` 408, and one with an over-long line or
more than :data:`MAX_HEADERS` header lines 431.
"""

import asyncio
import base64
import binascii
import json
import threading
import time

from ..api.env import resolve_engine, resolve_serve, resolve_store
from ..api.profiles import PROFILES, UsageError
from ..harness.pool import CRASH, OK, TIMEOUT, IsolatedPool
from ..obs.metrics import default_registry, histogram_quantile
from ..obs.trace import tracer
from .qos import AdmissionError, QosPolicy
from .workers import serve_task

#: Request bodies past this are rejected 413 before JSON parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds a client gets to deliver its whole request (request line,
#: headers and body); a slower one is answered 408.
REQUEST_READ_SECONDS = 10.0
#: Header lines one request may carry; one more is answered 431.
MAX_HEADERS = 100


class HeaderTooLarge(Exception):
    """A request or header line longer than the stream's line limit
    (asyncio's 64 KiB default), or more than :data:`MAX_HEADERS`
    header lines; answered 431."""


class RequestTimeout(Exception):
    """The request did not arrive within :data:`REQUEST_READ_SECONDS`;
    answered 408."""


#: CLI exit code → HTTP status (the deterministic mapping; see module
#: docstring for the rationale per row).
STATUS_FOR_EXIT = {0: 200, 2: 403, 3: 403, 4: 422, 5: 500, 64: 400}

#: CLI exit code → requests_total outcome label.
OUTCOME_FOR_EXIT = {0: "ok", 2: "spatial", 3: "temporal",
                    4: "compile_error", 5: "trap", 64: "usage_error"}

#: The JSON fields one request may carry (anything else is a 400 —
#: a typo like "profle" must never silently run unprotected).
REQUEST_FIELDS = frozenset((
    "name", "source", "profile", "opt", "input", "input_b64", "entry",
    "engine", "budget", "temporal", "test_fault",
))

_LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                    1.0, 2.5, 5.0, 10.0, 30.0)


def validate_request(doc, route="/run", qos=None, allow_test_faults=False):
    """Validate one decoded request document into a worker payload.

    Raises :class:`~repro.api.profiles.UsageError` (→ 400) on any
    malformed field; the error message names the field so clients can
    fix the request without reading server logs.
    """
    qos = qos if qos is not None else QosPolicy()
    if not isinstance(doc, dict):
        raise UsageError("request body must be a JSON object")
    unknown = sorted(set(doc) - REQUEST_FIELDS)
    if unknown:
        raise UsageError(f"unknown request field(s): {', '.join(unknown)}; "
                         f"allowed: {', '.join(sorted(REQUEST_FIELDS))}")
    source = doc.get("source")
    if not isinstance(source, str) or not source.strip():
        raise UsageError("'source' must be a non-empty string of C code")
    if route == "/check":
        if "profile" in doc:
            raise UsageError("/check selects the profile itself "
                             "(spatial, or temporal with 'temporal': "
                             "true); POST /run to pick one")
        profile = "temporal" if doc.get("temporal") else "spatial"
    else:
        if "temporal" in doc:
            raise UsageError("'temporal' is a /check field; "
                             "on /run pass 'profile' explicitly")
        profile = doc.get("profile", "none")
        if not isinstance(profile, str) or profile not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise UsageError(f"unknown profile {profile!r}; "
                             f"registered: {known}")
    opt = doc.get("opt", True)
    if not isinstance(opt, bool):
        raise UsageError(f"'opt' must be a boolean, got {opt!r}")
    name = doc.get("name", "request")
    if not isinstance(name, str):
        raise UsageError(f"'name' must be a string, got {name!r}")
    entry = doc.get("entry", "main")
    if not isinstance(entry, str):
        raise UsageError(f"'entry' must be a string, got {entry!r}")
    if "input" in doc and "input_b64" in doc:
        raise UsageError("pass 'input' (text) or 'input_b64' (base64 "
                         "bytes), not both")
    if "input" in doc:
        if not isinstance(doc["input"], str):
            raise UsageError("'input' must be a string (use 'input_b64' "
                             "for binary)")
        input_data = doc["input"].encode("utf-8")
    elif "input_b64" in doc:
        try:
            input_data = base64.b64decode(doc["input_b64"], validate=True)
        except (TypeError, ValueError, binascii.Error):
            raise UsageError("'input_b64' is not valid base64") from None
    else:
        input_data = b""
    engine = doc.get("engine")
    if engine is not None:
        try:
            engine = resolve_engine(engine)
        except ValueError as error:
            raise UsageError(str(error)) from None
    budget = qos.resolve_budget(doc.get("budget"))
    payload = {
        "mode": "compile" if route == "/compile" else "run",
        "name": name,
        "source": source,
        "profile": profile,
        "opt": opt,
        "input": input_data,
        "entry": entry,
        "engine": engine,
        "budget": budget,
    }
    fault = doc.get("test_fault")
    if fault is not None:
        if not allow_test_faults:
            raise UsageError("'test_fault' requires the daemon to run "
                             "with --allow-test-faults")
        if fault not in ("hang", "exit"):
            raise UsageError(f"unknown test_fault {fault!r}; "
                             f"choose 'hang' or 'exit'")
        payload["test_fault"] = fault
    return payload


class ServeDaemon:
    """One daemon: config + QoS + warm pool + HTTP front-end.

    ``start()`` binds the socket (port 0 → OS-assigned; read ``.port``
    after) and spawns the workers; ``serve_forever()`` blocks in the
    event loop; ``aclose()`` drains: stop accepting, wait for in-flight
    requests up to the QoS deadline, then close the pool.
    """

    def __init__(self, config=None, qos=None, store_dir=None, engine=None,
                 allow_test_faults=False):
        self.config = config if config is not None else resolve_serve()
        self.qos = qos if qos is not None else QosPolicy(
            queue_limit=self.config.queue)
        self.store_dir = resolve_store(store_dir)
        self.engine = engine
        self.allow_test_faults = allow_test_faults
        self.pool = IsolatedPool(jobs=self.config.workers,
                                 task_timeout=self.qos.deadline_seconds)
        self.port = None
        self._server = None
        self._started = time.monotonic()
        self._inflight = set()
        registry = default_registry()
        # The pool's width, queue, in-flight and worker-lifecycle
        # numbers as repro_serve_* series (weakref'd to the pool).
        registry.register_source("repro_serve_", self.pool,
                                 IsolatedPool.counters)
        self._registry = registry
        self._latency = registry.histogram("repro_serve_request_seconds",
                                           buckets=_LATENCY_BUCKETS)
        self._requests = lambda outcome: registry.counter(
            "repro_serve_requests_total", {"outcome": outcome})
        self._origins = lambda origin: registry.counter(
            "repro_serve_cache_origin_total", {"origin": origin})

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        return self

    def ready_line(self):
        return (f"serve: listening on http://{self.config.host}:{self.port} "
                f"(workers={self.config.workers} "
                f"queue={self.qos.queue_limit} "
                f"store={self.store_dir or 'off'})")

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self):
        """Graceful drain: refuse new connections, give in-flight
        requests one deadline to finish, then tear the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [future for future in self._inflight if not future.done()]
        if pending:
            await asyncio.wait(
                [asyncio.wrap_future(f) for f in pending],
                timeout=self.qos.deadline_seconds)
        self.pool.close()

    async def run(self, stdout=None):
        """The blocking CLI shape: start, announce, serve until
        cancelled (Ctrl-C), always drain on the way out."""
        await self.start()
        if stdout is not None:
            stdout.write(self.ready_line() + "\n")
            stdout.flush()
        try:
            await self.serve_forever()
        finally:
            await self.aclose()

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            try:
                status, body, headers = await self._dispatch(reader)
            except UsageError as error:
                status, body, headers = 400, {"error": str(error)}, {}
            except HeaderTooLarge as error:
                status, body, headers = 431, {"error": str(error)}, {}
            except RequestTimeout as error:
                status, body, headers = 408, {"error": str(error)}, {}
            except AdmissionError as error:
                status, body = 503, {"error": str(error)}
                headers = {"Retry-After": "1"}
            except Exception as error:  # noqa: BLE001 — the front door
                status, body = 500, {"error": f"internal error: {error}"}
                headers = {}
            await self._write_response(writer, status, body, headers)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_line(reader):
        try:
            return await reader.readline()
        except ValueError:  # asyncio's LimitOverrunError, re-raised
            raise HeaderTooLarge("request line or header line too long") \
                from None

    async def _read_request(self, reader):
        request_line = await self._read_line(reader)
        if not request_line:
            raise UsageError("empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise UsageError("malformed request line")
        method, target, _version = parts
        headers = {}
        for count in range(MAX_HEADERS + 1):
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                raise HeaderTooLarge(f"more than {MAX_HEADERS} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if method == "POST":
            try:
                length = int(headers.get("content-length", ""))
            except ValueError:
                raise UsageError("POST requires Content-Length") from None
            if length < 0:
                raise UsageError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:
                raise UsageError(f"request body {length} bytes exceeds the "
                                 f"{MAX_BODY_BYTES} byte bound")
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise UsageError(
                    f"request body ended after {len(error.partial)} of "
                    f"{length} bytes") from None
        return method, target.partition("?")[0], body

    async def _write_response(self, writer, status, body, headers=None):
        reason = {200: "OK", 400: "Bad Request", 403: "Forbidden",
                  404: "Not Found", 405: "Method Not Allowed",
                  408: "Request Timeout", 422: "Unprocessable Entity",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error",
                  503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "Response")
        blob = json.dumps(body, sort_keys=True).encode("utf-8") + b"\n"
        lines = [f"HTTP/1.1 {status} {reason}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(blob)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + blob)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(self, reader):
        try:
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), REQUEST_READ_SECONDS)
        except asyncio.TimeoutError:
            raise RequestTimeout(f"request not received within "
                                 f"{REQUEST_READ_SECONDS:g}s") from None
        if method == "GET":
            if path == "/metrics":
                return 200, self._metrics_body(), {}
            if path == "/healthz":
                return 200, self._healthz_body(), {}
            if path in ("/run", "/check", "/compile"):
                return 405, {"error": f"{path} takes POST"}, {}
            return 404, {"error": f"unknown path {path}"}, {}
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}, {}
        if path in ("/metrics", "/healthz"):
            return 405, {"error": f"{path} takes GET"}, {}
        if path not in ("/run", "/check", "/compile"):
            return 404, {"error": f"unknown path {path}; "
                                  f"POST /run, /check or /compile"}, {}
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise UsageError(f"request body is not valid JSON: "
                             f"{error}") from None
        payload = validate_request(doc, route=path, qos=self.qos,
                                   allow_test_faults=self.allow_test_faults)
        if payload["engine"] is None:
            payload["engine"] = self.engine
        payload["store_dir"] = self.store_dir
        return await self._execute(path, payload)

    async def _execute(self, path, payload):
        self.qos.admit(self.pool.queue_depth)
        started = time.monotonic()
        span = tracer().start_span("serve.request", route=path,
                                   program=payload["name"],
                                   profile=payload["profile"])
        future = self.pool.submit(serve_task(payload))
        self._inflight.add(future)
        try:
            outcome = await asyncio.wrap_future(future)
        finally:
            self._inflight.discard(future)
        self._latency.observe(time.monotonic() - started)
        if outcome.status == OK:
            result = outcome.value
            exit_code = result["cli_exit"]
            if "error" not in result \
                    and result["row"].get("trap") is None:
                # Ran to completion: HTTP 200 whatever the program's own
                # exit code was (it is in the body; the CLI passes it
                # through as *its* exit status, which is why the status
                # map keys on the trap, not the exit code alone).
                status, label = 200, "ok"
            else:
                status = STATUS_FOR_EXIT.get(exit_code, 500)
                label = OUTCOME_FOR_EXIT.get(exit_code, "trap")
            self._requests(label).inc()
            origin = result.get("origin") or (
                (result["row"].get("cache") or {}).get("origin")
                if "row" in result else None)
            if origin:
                self._origins(origin).inc()
            span.finish(status=status, outcome=label, origin=origin,
                        attempts=outcome.attempts)
            headers = {"X-Repro-Exit-Code": str(exit_code),
                       "X-Repro-Worker-Pid": str(result.get("pid", ""))}
            if "error" in result:
                return status, {"error": result["error"]}, headers
            return status, result["row"], headers
        if outcome.status == TIMEOUT:
            self._requests("deadline").inc()
            span.finish(status=504, outcome="deadline")
            return 504, {"error": outcome.error}, {}
        if outcome.status == CRASH:
            self._requests("crash").inc()
            span.finish(status=500, outcome="crash")
            return 500, {"error": outcome.error}, {}
        self._requests("error").inc()
        span.finish(status=500, outcome="error")
        return 500, {"error": f"worker exception: {outcome.error!r}"}, {}

    # -- introspection bodies ------------------------------------------

    def _metrics_body(self):
        snapshot = self._registry.snapshot()
        derived = {}
        for quantile in (0.5, 0.99):
            value = histogram_quantile(snapshot,
                                       "repro_serve_request_seconds",
                                       quantile)
            if value is not None:
                derived[f"request_seconds_p{int(quantile * 100)}"] = value
        return {"schema": "repro-metrics-v1", "series": snapshot,
                "derived": derived}

    def _healthz_body(self):
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "workers": self.config.workers,
            "worker_pids": self.pool.worker_pids(),
            "queue_depth": self.pool.queue_depth,
            "queue_limit": self.qos.queue_limit,
            "deadline_seconds": self.qos.deadline_seconds,
            "default_budget": self.qos.default_budget,
            "store": self.store_dir,
            "profiles": sorted(PROFILES),
        }


class BackgroundDaemon:
    """A daemon on a background thread, for tests and in-process drills.

    ::

        with BackgroundDaemon(config=..., qos=...) as daemon:
            urllib.request.urlopen(f"http://127.0.0.1:{daemon.port}/healthz")
    """

    def __init__(self, **kwargs):
        self.daemon = ServeDaemon(**kwargs)
        self._loop = None
        self._thread = None

    @property
    def port(self):
        return self.daemon.port

    def __enter__(self):
        started = threading.Event()
        failure = []

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.daemon.start())
            except BaseException as error:  # noqa: BLE001 — report to starter
                failure.append(error)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(target=runner, name="serve-daemon",
                                        daemon=True)
        self._thread.start()
        if not started.wait(timeout=60):
            raise RuntimeError("serve daemon failed to start in 60s")
        if failure:
            raise failure[0]
        return self

    def __exit__(self, *exc_info):
        if self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(self.daemon.aclose(),
                                                      self._loop)
            try:
                future.result(timeout=30)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
