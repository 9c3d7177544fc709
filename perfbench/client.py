"""Closed-loop HTTP load for ``repro serve``.

Each connection is one caller that waits for its reply before sending
its next request (a closed loop), over one keep-alive
:class:`http.client.HTTPConnection` — the standard-library client a
caller would use, which writes a request's headers and body in one
send.  The load therefore slows down with the server, and the
latencies are what each caller waited.

A reply is failed unless its status is 200; a broken connection is a
failed reply with status 0, after which the caller reconnects.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Reply:
    status: int
    body: bytes
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass(frozen=True)
class Loop:
    """The replies of one closed loop, in request order."""

    replies: list
    wall: float

    @property
    def failed(self) -> int:
        return sum(not reply.ok for reply in self.replies)

    @property
    def latencies(self) -> list[float]:
        return [reply.seconds for reply in self.replies]


def _send(conn: http.client.HTTPConnection, method: str, path: str,
          body: bytes | None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(address: tuple[str, int], path: str, bodies: list[bytes],
                connections: int, timeout: float = 30.0,
                budget: float = 90.0) -> Loop:
    """POST every body in ``bodies`` to ``path`` from ``connections``
    concurrent closed-loop callers; replies come back in body order.

    Callers stop taking requests once ``budget`` seconds have passed;
    a request never sent counts as a failed reply (status 0)."""
    replies: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    deadline = time.perf_counter() + budget

    def caller() -> None:
        conn = http.client.HTTPConnection(*address, timeout=timeout)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                try:
                    status, data = _send(conn, "POST", path, bodies[index])
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                    conn = http.client.HTTPConnection(*address,
                                                      timeout=timeout)
                replies[index] = Reply(status, data,
                                       time.perf_counter() - start)
        finally:
            conn.close()

    threads = [threading.Thread(target=caller, daemon=True)
               for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()) + timeout)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop callers did not finish")
    return Loop([reply if reply is not None else Reply(0, b"", 0.0)
                 for reply in replies], wall)


def wait_healthy(address: tuple[str, int], deadline: float,
                 alive=lambda: True) -> bool:
    """Poll ``GET /healthz`` until it answers 200, the process behind
    it dies (``alive()`` false), or ``deadline`` (perf_counter) passes.
    """
    while time.perf_counter() < deadline and alive():
        conn = http.client.HTTPConnection(*address, timeout=5)
        try:
            status, _ = _send(conn, "GET", "/healthz", None)
            if status == 200:
                return True
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    return False
