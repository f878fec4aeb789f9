"""Centralized engine/jobs resolution (flag > environment > default).

Every entry point that used to parse ``REPRO_ENGINE`` or ``REPRO_JOBS``
itself (the VM, the parallel harness, the CLI) now funnels through this
module, so the precedence rule — an explicit flag wins, then the
environment variable, then the built-in default — is written down
exactly once and tested once.
"""

import os
from dataclasses import dataclass

#: The VM dispatch strategies (the single source of truth;
#: :class:`repro.vm.machine.Machine` validates through here).
ENGINES = ("compiled", "interp")

DEFAULT_ENGINE = "compiled"
DEFAULT_JOBS = 1
#: The persistent artifact store is opt-in: no flag, no env → disabled.
DEFAULT_STORE = None


def resolve_engine(flag=None):
    """Effective VM engine: ``flag`` if given, else ``REPRO_ENGINE``,
    else ``"compiled"``.  An unknown engine name — from either source —
    raises :class:`~repro.api.profiles.UsageError` (a ``ValueError``)
    naming its source, so typos never silently fall back."""
    from .profiles import UsageError

    engine = flag or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
    if engine not in ENGINES:
        source = "" if flag else " (from REPRO_ENGINE)"
        raise UsageError(f"unknown engine {engine!r}{source}; choose from "
                         f"{', '.join(ENGINES)}")
    return engine


def resolve_jobs(flag=None):
    """Effective worker count: an explicit positive ``flag`` wins, else
    the ``REPRO_JOBS`` environment variable, else 1 (serial).  Values
    that are not positive integers fall back to serial rather than
    erroring — an unset/garbled environment must never break a run."""
    if flag is not None and flag > 0:
        return flag
    env = os.environ.get("REPRO_JOBS", "")
    try:
        value = int(env)
    except ValueError:
        return DEFAULT_JOBS
    return value if value > 0 else DEFAULT_JOBS


#: Serve-daemon defaults (:mod:`repro.serve`): loopback only — exposing
#: an untrusted-C execution service beyond localhost is an explicit
#: operator decision, never a default.
DEFAULT_SERVE_HOST = "127.0.0.1"
#: Port 0 asks the OS for a free port (the bound port is printed on the
#: ready line), so tests and CI never collide.
DEFAULT_SERVE_PORT = 0
DEFAULT_SERVE_WORKERS = 2
#: Bound on queued-but-not-running requests; past it the daemon sheds
#: load with 503 instead of queueing unboundedly.
DEFAULT_SERVE_QUEUE = 16


def resolve_store(flag=None):
    """Effective artifact-store directory (:mod:`repro.store`), or
    ``None`` for disabled.  An explicit ``flag`` path wins, then the
    ``REPRO_STORE`` environment variable; an empty value from either
    source means "disabled" — there is no default directory, because a
    persistent cache silently appearing on disk would surprise users."""
    if flag is not None:
        return flag or DEFAULT_STORE
    return os.environ.get("REPRO_STORE", "") or DEFAULT_STORE


def _serve_int(flag, env_var, default, minimum, maximum, what):
    """One serve axis: flag > environment > default, validated to an
    integer in [minimum, maximum].  Unlike :func:`resolve_jobs`, bad
    values are *usage errors* (exit 64), not silent fallbacks — a
    daemon bound to the wrong port or sized to zero workers must never
    start quietly misconfigured."""
    from .profiles import UsageError

    source, value = "flag", flag
    if value is None:
        raw = os.environ.get(env_var, "")
        if raw == "":
            return default
        source, value = env_var, raw
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be an integer, got {value!r} "
                         f"(from {source})") from None
    if not minimum <= value <= maximum:
        raise UsageError(f"{what} must be between {minimum} and {maximum}, "
                         f"got {value} (from {source})")
    return value


@dataclass(frozen=True)
class ResolvedServe:
    """The fully resolved serve-daemon configuration."""

    host: str
    port: int
    workers: int
    queue: int


def resolve_serve(host=None, port=None, workers=None, queue=None):
    """Effective serve-daemon configuration (:mod:`repro.serve`), axis
    by axis with the usual flag > environment > default precedence over
    ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT`` / ``REPRO_SERVE_WORKERS``
    / ``REPRO_SERVE_QUEUE``.  Invalid values raise
    :class:`~repro.api.profiles.UsageError` (the CLI maps it to exit
    status 64)."""
    if host is None:
        host = os.environ.get("REPRO_SERVE_HOST", "") or DEFAULT_SERVE_HOST
    return ResolvedServe(
        host=host,
        port=_serve_int(port, "REPRO_SERVE_PORT", DEFAULT_SERVE_PORT,
                        0, 65535, "serve port"),
        workers=_serve_int(workers, "REPRO_SERVE_WORKERS",
                           DEFAULT_SERVE_WORKERS, 1, 64, "serve workers"),
        queue=_serve_int(queue, "REPRO_SERVE_QUEUE", DEFAULT_SERVE_QUEUE,
                         1, 4096, "serve queue bound"),
    )


@dataclass(frozen=True)
class ResolvedEnv:
    """The fully resolved execution environment for one entry point."""

    engine: str
    jobs: int
    #: Artifact-store directory, or None when the store is disabled.
    store: str = None


def resolve_env(engine=None, jobs=None, store=None):
    """Resolve every axis at once; see :func:`resolve_engine`,
    :func:`resolve_jobs` and :func:`resolve_store` for the per-axis
    precedence."""
    return ResolvedEnv(engine=resolve_engine(engine),
                       jobs=resolve_jobs(jobs),
                       store=resolve_store(store))
