"""The worker side of the serve daemon: one request, compiled and run.

The daemon never compiles or runs untrusted C in its own process: every
request is shipped as a :class:`~repro.harness.pool.PoolTask` to one of
the warm, crash-isolated workers of a
:class:`~repro.harness.pool.IsolatedPool` (deadline kill, respawn and
one retry live there), where :func:`execute_serve_request` runs it.

Compiles go through the worker process's
:func:`~repro.api.session.worker_session`, so there are two cache
levels: the session's size-bounded LRU (the same 256-entry bound every
:class:`~repro.api.Session` uses), then the persistent artifact store
(``REPRO_STORE``) all workers share, where a cold key is compiled
**once** per store: the first worker takes the key's flight lock and
compiles while the herd blocks on the lock, re-checks the store, and
loads the bytes the winner wrote.
"""

import os
import time

from ..harness.pool import PoolTask


def serve_task(payload):
    """The pool task that runs one validated request payload."""
    return PoolTask("repro.serve.workers:execute_serve_request", (payload,))


def execute_serve_request(payload):
    """Compile (cached) and run one validated request.

    Runs inside the worker process.  ``payload`` is the dict the server
    validated: ``source``, ``profile`` (registered name), ``opt``,
    ``input`` (bytes), ``entry``, ``engine``, ``budget`` (the resolved
    instruction limit), ``store_dir`` and ``name``.  Returns a plain
    picklable dict: the ``RunReport.to_json()`` row (with a ``cache``
    block), the CLI exit code for the HTTP status mapping, and the
    worker pid (the kill drills target it).
    """
    fault = payload.get("test_fault")
    if fault == "hang":
        # Armed only when the daemon runs with --allow-test-faults: a
        # request wedged outside the VM, for the deadline-kill drill.
        time.sleep(3600)
    elif fault == "exit":
        # Worker suicide mid-request, for the respawn/retry drill.
        os._exit(17)

    from ..api.profiles import as_profile
    from ..api.session import run_compiled, worker_session
    from ..cli import EX_COMPILE, exit_code_for
    from ..frontend.errors import FrontendError
    from ..harness.linker import LinkError
    from ..obs.trace import tracer

    profile = as_profile(payload["profile"])
    optimize = payload.get("opt", True)
    name = payload.get("name", "program")
    source = payload["source"]
    session = worker_session(payload.get("store_dir"))
    try:
        with tracer().span("serve.compile", profile=profile.name,
                           program=name) as span:
            compiled, origin = session.lookup(source, profile,
                                              optimize=optimize)
            span.set(origin=origin)
    except (FrontendError, LinkError) as error:
        return {"error": f"compile error: {error}",
                "cli_exit": EX_COMPILE, "origin": None,
                "pid": os.getpid()}
    if payload.get("mode") == "compile":
        from ..store.format import compute_key

        row = {"name": name, "profile": profile.name, "opt": optimize,
               "origin": origin,
               "key": compute_key(source, profile, optimize),
               "output": session.fingerprint(compiled, source, profile,
                                             optimize)}
        return {"row": row, "cli_exit": 0, "origin": origin,
                "pid": os.getpid()}
    # run_compiled is the same execution path one-shot CLI runs take, so
    # serve responses are bit-identical to `repro run --json` apart from
    # wallclock and the cache block.
    report = run_compiled(compiled, profile=profile, name=name,
                          input_data=payload.get("input", b""),
                          entry=payload.get("entry", "main"),
                          engine=payload.get("engine"),
                          max_instructions=payload["budget"])
    report.cache = dict(session.cache_counters(), origin=origin)
    row = report.to_json()
    # One serve-only extension: the program's stdout.  Clients talking
    # HTTP have no other channel for it; strip "output" (plus the
    # wallclock/cache/obs blocks) to recover the exact CLI --json row.
    row["output"] = report.output
    return {"row": row, "cli_exit": exit_code_for(report),
            "origin": origin, "pid": os.getpid()}
