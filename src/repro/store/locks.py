"""The single-flight compile lock.

``Session._compile_cold`` holds ``locks/flight.<key>.lock`` across the
compile of a cold key, so of N processes racing one key exactly one
compiles and the rest load its bytes.  The lock is a POSIX
``fcntl.flock`` advisory lock: the store itself takes none (atomic
``os.replace`` plus payload digests make reads and writes safe
lock-free), so the flight lock guards only duplicate work.  A process
that cannot acquire it within its timeout compiles anyway: liveness
beats dedup.

``flock`` locks die with their holder, so a holder SIGKILL'd
mid-compile releases the lock automatically — the chaos drill pins
that.  The holder removes the lock file once its entry is saved; ``gc``
sweeps the files of holders that died.  On platforms without ``fcntl``
the lock is a no-op that always "acquires": every racer compiles, and
the store still never corrupts.
"""

import os
import time

try:
    import fcntl
except ImportError:  # non-POSIX: degrade to no inter-process locking
    fcntl = None


class FileLock:
    """One advisory lock file, usable as a context manager.

    ``acquire`` polls ``flock(LOCK_EX | LOCK_NB)`` until ``timeout``
    elapses and returns whether the lock was obtained — it never raises
    (a lock file that cannot be opened is a lock not obtained) and
    never blocks past the deadline.  The ``with`` form exposes the
    outcome as the context value::

        with FileLock(path, timeout=2.0) as acquired:
            if acquired: ...   # serialized
            else: ...          # degrade
    """

    def __init__(self, path, timeout=5.0, poll_interval=0.02):
        self.path = path
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._handle = None

    def acquire(self):
        if self._handle is not None:
            return True
        try:
            handle = open(self.path, "a+b")
        except OSError:
            return False
        if fcntl is None:
            self._handle = handle
            return True
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._handle = handle
                return True
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    return False
                time.sleep(self.poll_interval)

    def release(self):
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()
        return False
