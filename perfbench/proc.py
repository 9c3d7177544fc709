"""Child processes of a benchmark run: the program as a user runs it.

Every program invocation is ``python -m repro ...`` in a fresh process
with the checkout's ``src`` on ``PYTHONPATH`` and the caller's
environment otherwise untouched (thread variables included).
``PYTHONUNBUFFERED`` is set so a line the program prints reaches the
benchmark when it is printed; that is how set-up ends are timed.

Peak memory comes from ``wait4``: the kernel reports the largest
resident set of the child and of every descendant it reaped (sweep
pool workers included).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Child:
    """A finished child process."""

    argv: list
    returncode: int
    wall: float
    stdout: str
    stderr: str
    maxrss_mb: float
    #: Seconds from spawn until the first stdout line ``ready`` matched.
    ready: float | None = None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; returns ``(exit code, peak RSS in MB)``."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run(argv: list, *, env: dict, cwd: Path, timeout: float,
        ready: Callable[[str], bool] | None = None) -> Child:
    """Run ``argv`` to completion, streaming stdout so the moment a
    line matching ``ready`` appears can be timed."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            ready_at, lines = None, []
            for raw in proc.stdout:
                line = raw.decode(errors="replace")
                if ready_at is None and ready is not None and ready(line):
                    ready_at = time.perf_counter() - start
                lines.append(line)
            proc.stdout.close()
            code, rss = _reap(proc)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(list(argv), code, wall, "".join(lines), stderr, rss,
                 ready_at)


@dataclass
class Server:
    """A long-running child (``repro serve``) with its first line."""

    proc: subprocess.Popen
    first_line: str
    started: float
    log: object = field(repr=False)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self, sig: int = signal.SIGINT, timeout: float = 30.0
             ) -> tuple[int, float]:
        """Signal the server and reap it; ``(exit code, peak RSS MB)``.

        SIGINT lets ``repro serve`` shut down cleanly (and write its
        trace); a server that ignores it is killed after ``timeout``.
        """
        if self.proc.returncode is None:
            if self.proc.poll() is None:
                self.proc.send_signal(sig)
            killer = threading.Timer(timeout, self.proc.kill)
            killer.start()
            try:
                self.proc.stdout.read()
                self.proc.stdout.close()
                result = _reap(self.proc)
            finally:
                killer.cancel()
                self.log.close()
            return result
        return self.proc.returncode, 0.0


def spawn(argv: list, *, env: dict, cwd: Path, timeout: float) -> Server:
    """Start ``argv`` and wait (at most ``timeout``) for its first
    stdout line."""
    log = tempfile.TemporaryFile(dir=cwd)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                            env=env, cwd=cwd)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline().decode(errors="replace")
    finally:
        killer.cancel()
    if not first:
        proc.kill()
        proc.stdout.close()
        _reap(proc)
        log.seek(0)
        message = log.read().decode(errors="replace")[-2000:]
        log.close()
        raise RuntimeError(f"{' '.join(map(str, argv))} exited before "
                           f"printing: {message}")
    return Server(proc, first, start, log)


def python(*args: str) -> list:
    return [sys.executable, *args]
