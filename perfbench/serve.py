"""``serve-warm``: warm traffic against ``python -m repro serve``.

The daemon runs as a subprocess with two workers and a fresh
``REPRO_STORE``.  Set-up boots it and sends one cold pass of the seeded
``serve.loadgen.build_mix`` traffic (servers under none/spatial/full,
attacks, BugBench, malformed requests).  The timed region then sends
warm traffic from this one process over at most two connections:

* an open loop at :data:`OPEN_RATE` requests/s, each request timed from
  when it was due (latency), and
* a closed loop of two connections (capacity, reported as
  ``cells_per_s``),

both in one-second slices, normalised to the reference host speed by a
kernel timed between slices (:mod:`perfbench.calibrate`).

Nothing is compiled in the timed region, so it measures admission,
queueing, IPC, the worker cache hit path and machine instantiation.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from .calibrate import HostClock
from .common import (E2E_RATIOS, Result, TraceSink, geomean_ratio, median,
                     share, tail, vm_hwm_mb)
from .layers import Counts, probe_programs, report_layers, trace_path
from .reduce import Trace

WORKERS = 2
CONNECTIONS = 2
SETUP_REPEATS = 3
#: Offered load of the open loop, requests/s: about half the 55-70
#: requests/s the closed loop measures on a 2-vCPU Xeon VM.  Near
#: capacity, queueing would turn a slightly slower host into a much
#: slower request, which no host-speed correction can undo.
OPEN_RATE = 30.0
#: Both loops run in slices this long; between slices, with no request
#: in flight, the host clock (:mod:`perfbench.calibrate`) ticks, so
#: every latency and the capacity are at the reference host speed.
SLICE_S = 1.0
#: A warm request mostly faults in a fresh machine's image, so the host
#: clock here also times faulting in this much fresh memory.
FAULT_BYTES = 8 << 20
#: Share of the timed region given to the open loop (the rest is the
#: closed-loop capacity phase).
OPEN_SHARE = 0.6
#: Passes over the mix after the cold one, in set-up.
WARM_PASSES = 4
CLIENT_TIMEOUT = 60.0
#: Statuses that mean the service, not the program, failed.
SERVICE_FAILURES = (0, 503, 504)


class Daemon:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, store_dir, trace_file=None):
        env = dict(os.environ, REPRO_STORE=store_dir)
        if trace_file:
            env["REPRO_TRACE"] = trace_file
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True, start_new_session=True)
        ready = self.proc.stdout.readline()
        if "listening on" not in ready:
            self.close()
            raise RuntimeError(f"serve daemon did not start: {ready!r}")
        self.port = int(ready.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        self.worker_pids = get_json(self.port, "/healthz")["worker_pids"]

    def peak_rss_mb(self):
        return sum(vm_hwm_mb(pid)
                   for pid in [self.proc.pid] + self.worker_pids)

    def close(self):
        """SIGINT (graceful drain), then SIGKILL the whole group if
        anything is left; returns once the daemon and workers are gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        while any(os.path.exists(f"/proc/{pid}") for pid in self.worker_pids):
            if time.monotonic() > deadline:
                raise RuntimeError("serve workers outlived their daemon")
            time.sleep(0.05)


def get_json(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def encode(item):
    if isinstance(item.doc, (bytes, bytearray)):
        return bytes(item.doc)
    return json.dumps(item.doc, sort_keys=True).encode("utf-8")


def send(port, item, body):
    """POST one traffic item; returns ``(status, row or None)``, status 0
    for a transport error."""
    from repro.obs.trace import tracer

    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        with tracer().span("bench.request", program=item.name):
            connection.request("POST", item.route, body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            status, payload = response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, None
    finally:
        connection.close()
    try:
        row = json.loads(payload)
    except ValueError:
        row = None
    return status, row


def judge(item, status, row):
    """The item's own oracle: an expected status, and every expected
    output fragment.  Shed (503), deadline (504) and transport failures
    never pass."""
    if status in SERVICE_FAILURES or status not in item.expect_status:
        return False
    if item.expect_fragments:
        output = (row or {}).get("output") or ""
        return all(fragment in output for fragment in item.expect_fragments)
    return True


class Traffic:
    """The seeded request stream plus everything observed about it."""

    def __init__(self, seed):
        from repro.serve.loadgen import build_mix

        self.mix = build_mix(seed=seed)
        self.bodies = [encode(item) for item in self.mix]
        self.cursor = 0
        self.lock = threading.Lock()
        self.samples = []   # (item, status, row, seconds)

    def next_index(self):
        with self.lock:
            index = self.cursor % len(self.mix)
            self.cursor += 1
            return index

    def record(self, result, index, status, row, seconds):
        item = self.mix[index]
        ok = judge(item, status, row)
        with self.lock:
            result.check(ok, f"{item.name}: status {status} not in "
                             f"{item.expect_status} or output wrong")
            self.samples.append((item, status, row, seconds))


def cold_pass(port, traffic, result):
    """Set-up traffic: one pass over the mix in order (compiles every
    program once), then :data:`WARM_PASSES` more over both connections,
    so every worker holds every program in its cache and has run it."""
    for index in range(len(traffic.mix)):
        start = time.perf_counter()
        status, row = send(port, traffic.mix[index],
                           traffic.bodies[index])
        traffic.record(result, index, status, row,
                       time.perf_counter() - start)
    remaining = [WARM_PASSES * len(traffic.mix)]

    def client():
        while True:
            with traffic.lock:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
            index = traffic.next_index()
            start = time.perf_counter()
            status, row = send(port, traffic.mix[index],
                               traffic.bodies[index])
            traffic.record(result, index, status, row,
                           time.perf_counter() - start)

    run_threads(client)


def closed_loop(port, traffic, seconds, result):
    """Two connections, each sending its next request as soon as the
    previous one answered, in :data:`SLICE_S` slices with the host clock
    ticking between them.  Returns completed requests per normalised
    second."""
    clock = HostClock(fault_bytes=FAULT_BYTES)
    done = [0]
    normalised = 0.0
    for _ in range(max(round(seconds / SLICE_S), 1)):
        start = time.perf_counter()
        stop = start + SLICE_S

        def client():
            while time.perf_counter() < stop:
                index = traffic.next_index()
                began = time.perf_counter()
                status, row = send(port, traffic.mix[index],
                                   traffic.bodies[index])
                traffic.record(result, index, status, row,
                               time.perf_counter() - began)
                with traffic.lock:
                    done[0] += 1

        run_threads(client)
        normalised += clock.normalise(time.perf_counter() - start)
    return done[0] / normalised


def open_loop(port, traffic, seconds, result):
    """Requests due every ``1 / OPEN_RATE`` s for ``seconds``, sent over
    at most two connections, in :data:`SLICE_S` slices; between slices,
    with nothing in flight, the host clock ticks, and each latency is
    divided by the host's slowness around its slice.  Each latency runs
    from the due time, so a stall also charges the requests queued
    behind it; ``late`` is how far the generator itself overslept a free
    connection's due time.  Returns the (latency, late) pairs."""
    clock = HostClock(fault_bytes=FAULT_BYTES)
    out = []
    for _ in range(max(round(seconds / SLICE_S), 1)):
        timings = open_slice(port, traffic, round(SLICE_S * OPEN_RATE),
                             result)
        slowness = clock.close_unit()
        out.extend((latency / slowness, late) for latency, late in timings)
    return out


def open_slice(port, traffic, count, result):
    """``count`` requests of the open loop, the first due now."""
    start = time.perf_counter()
    next_slot = [0]
    lock = threading.Lock()
    out = []

    def sender():
        while True:
            with lock:
                slot = next_slot[0]
                next_slot[0] += 1
            if slot >= count:
                return
            due = start + slot / OPEN_RATE
            free = time.perf_counter()
            if due > free:
                time.sleep(due - free)
            began = time.perf_counter()
            index = traffic.next_index()
            status, row = send(port, traffic.mix[index],
                               traffic.bodies[index])
            ended = time.perf_counter()
            traffic.record(result, index, status, row, ended - due)
            with lock:
                out.append((ended - due, began - max(due, free)))

    run_threads(sender)
    return out


def run_threads(target):
    threads = [threading.Thread(target=target, name=f"client-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def boot(seed, work_dir, result, trace_file=None):
    """Set-up: a daemon on a fresh store plus one cold pass."""
    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    daemon = Daemon(store, trace_file=trace_file)
    try:
        traffic = Traffic(seed)
        cold_pass(daemon.port, traffic, result)
    except BaseException:
        daemon.close()
        raise
    return daemon, traffic


def server_costs(samples):
    """``{(server, profile, 1): cost}`` from the server items' rows."""
    costs = {}
    for item, status, row, _ in samples:
        if item.category == "server" and status == 200 and row:
            program, _, profile = item.name.rpartition("-")
            costs[(program, profile, 1)] = row["stats"]["cost"]
    return costs


def run(seed, seconds, trace, work_dir):
    result = Result("serve-warm")
    setup_times = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close()
                daemon = None
            start = time.perf_counter()
            daemon, traffic = boot(seed, work_dir, result)
            setup_times.append(time.perf_counter() - start)
        budget = seconds / 2 if trace else seconds
        timings = open_loop(daemon.port, traffic, budget * OPEN_SHARE, result)
        capacity = closed_loop(daemon.port, traffic,
                               budget * (1 - OPEN_SHARE), result)
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.close()
    if not trace:
        latencies = [latency for latency, _ in timings]
        result.set("setup_s", median(setup_times), "s")
        result.set("peak_rss_mb", peak_rss, "MiB")
        result.set("cells_per_s", capacity, "1/s")
        result.set("latency_p50_ms", median(latencies) * 1e3, "ms")
        percentile, value = tail(latencies)
        result.set("latency_tail_ms", value * 1e3, "ms")
        costs = server_costs(traffic.samples)
        servers = sorted({key[0] for key in costs})
        for metric, cell in E2E_RATIOS.items():
            result.set(metric, geomean_ratio(costs, cell, servers), "x")
        result.note(f"open loop: {len(latencies)} requests at {OPEN_RATE:g}/s "
                    f"over {CONNECTIONS} connections, tail is "
                    f"p{percentile:.1f}; closed loop: {capacity:.1f} req/s")
        return result
    report_layers(result, traced_layers(seed, seconds / 2, work_dir, result,
                                        capacity))
    return result


def traced_layers(seed, seconds, work_dir, result, untraced_capacity):
    """The same timed phases against a daemon booted with
    ``REPRO_TRACE``, reduced to the per-layer split."""
    path = trace_path(work_dir, "serve")
    with TraceSink(path) as sink:
        daemon, traffic = boot(seed, work_dir, result, trace_file=path)
        try:
            before = get_json(daemon.port, "/metrics")["series"]
            first = len(traffic.samples)
            since = time.time()
            timings = open_loop(daemon.port, traffic, seconds * OPEN_SHARE,
                                result)
            capacity = closed_loop(daemon.port, traffic,
                                   seconds * (1 - OPEN_SHARE), result)
            until = time.time()
            after = get_json(daemon.port, "/metrics")["series"]
        finally:
            daemon.close()
    spans = Trace.load(sink.paths(), since=since, until=until)
    samples = traffic.samples[first:]
    return serve_layers(spans, samples, timings, before, after, capacity,
                        untraced_capacity)


def origin_counts(series):
    prefix = "repro_serve_cache_origin_total{origin="
    return {key[len(prefix):-1]: value for key, value in series.items()
            if key.startswith(prefix)}


def serve_layers(spans, samples, timings, before, after, capacity,
                 untraced_capacity):
    from repro.api import Toolchain

    requests = spans.named("serve.request")
    count = max(len(requests), 1)

    def per_request_ms(name):
        return sum(span["dur"] for span in spans.named(name)) * 1e3 / count

    counts = Counts()
    run_seconds = 0.0
    cached = 0
    for item, status, row, _ in samples:
        if row and row.get("stats"):
            counts.add_run(row["stats"])
            counts.add_compile(row.get("check_opt_stats"))
            run_seconds += row.get("wallclock_seconds", 0.0)
            cached += (row.get("cache") or {}).get("origin") != "compile"
    layers = counts.values()
    for metric, total in spans.self_totals().items():
        layers[metric] = total * 1e3 / count
    # Malformed requests are answered before serve.request starts.
    client = [span for span in spans.named("bench.request")
              if not span["attrs"]["program"].startswith("malformed-")]
    layers["serve.client_ms"] = share(sum(s["dur"] for s in client),
                                      len(client)) * 1e3
    layers["serve.request_ms"] = per_request_ms("serve.request")
    layers["serve.frontend_ms"] = (layers["serve.client_ms"]
                                   - layers["serve.request_ms"])
    layers["serve.compile_ms"] = per_request_ms("serve.compile")
    layers["serve.run_ms"] = per_request_ms("vm.run")
    layers["serve.untraced_ms"] = (layers["serve.request_ms"]
                                   - layers["serve.compile_ms"]
                                   - layers["serve.run_ms"])
    grown = {origin: value - origin_counts(before).get(origin, 0)
             for origin, value in origin_counts(after).items()}
    layers["serve.memory_hit_ratio"] = share(grown.get("memory", 0),
                                             sum(grown.values()))
    layers["serve.shed_count"] = sum(1 for sample in samples
                                     if sample[1] == 503)
    layers["api.session_cache_hit_ratio"] = share(cached, counts.cells)
    layers["vm.ns_per_instr"] = run_seconds * 1e9 / max(
        counts.vm["vm.instructions"], 1)
    layers["loadgen.late_ms"] = share(sum(late for _, late in timings),
                                      len(timings)) * 1e3
    layers["obs.trace_overhead_pct"] = (untraced_capacity / capacity - 1) * 100
    layers["obs.orphan_spans"] = spans.orphans()
    layers["obs.coverage_ratio"] = spans.coverage(("serve.request",))

    # Direct timings on the mix's programs compiled here: instantiate
    # (charged per request that ran a program), serialization, checks.
    ran = {(item.doc["source"], item.doc.get("profile", "none"))
           for item, _, row, _ in samples if row and row.get("stats")}
    sample = []
    for source, profile in sorted(ran):
        compiled = Toolchain(profile=profile).compile(source)
        counts.add_module(compiled.module)
        sample.append((profile, compiled))
    probe = probe_programs(sample)
    for name in ("store.pickle_ms", "store.unpickle_ms", "store.entry_bytes"):
        layers[name] = probe[name]
    layers["softbound.static_checks"] = counts.values()[
        "softbound.static_checks"]
    layers["vm.instantiate_ms"] = probe["vm.instantiate_ms"] * share(
        counts.cells, len(samples))
    return layers
