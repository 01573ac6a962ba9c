"""Idle-connection capacity of the asyncio serve edge.

The robustness claim behind :class:`~repro.serve.edge.AsyncEdge`: an
idle connection costs one socket, **not one thread**.  The old
thread-per-accept listener would park a blocking ``recv`` thread on
every open connection, so a thousand idle clients meant a thousand
server threads; the asyncio edge holds them all on one event loop.

The bench opens ``$SERVE_IDLE_TARGET`` (default 1000) TCP connections
against a live server and sends nothing on any of them, then asserts:

* every connection is accepted and held (the edge's connection table
  reports them all open),
* the server grew by only a bounded handful of threads — O(1), not
  O(connections),
* a real session dialled *through* the idle crowd still completes
  and verifies bit-identically against the local simulator.

The report (``open_connections`` is the headline figure) lands in
``results/serve_idle.json`` (or ``$SERVE_IDLE_JSON``).

Runs under pytest (``pytest benchmarks/bench_serve_idle.py``) or
standalone (``python benchmarks/bench_serve_idle.py``).
"""

from __future__ import annotations

import json
import os
import resource
import socket
import threading
import time

from repro.serve import make_server, run_registry_session

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CIRCUIT = "sum32"
SERVER_VALUE = 9999
CLIENT_VALUE = 41
#: Threads the serve layer may legitimately add while holding the
#: idle crowd: the edge loop, its handshake executor, the worker pool
#: and dispatch plumbing — a fixed handful, independent of the
#: connection count.
MAX_EXTRA_THREADS = 24


def _target_connections() -> int:
    """Requested idle-connection count, capped by the fd budget.

    Client and server sockets live in this one process, so each idle
    connection costs two descriptors; keep 256 in reserve for the
    interpreter, the session under test and the worker pool.
    """
    want = int(os.environ.get("SERVE_IDLE_TARGET", "1000"))
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return max(16, min(want, (soft - 256) // 2))


def run_idle_bench() -> dict:
    target = _target_connections()
    threads_before = threading.active_count()
    idle: list = []
    with make_server([CIRCUIT], value=SERVER_VALUE, workers=2,
                     pool="thread", port=0, idle_timeout=600.0,
                     handshake_timeout=30.0,
                     max_connections=target + 64) as srv:
        threads_serving = threading.active_count()
        t0 = time.perf_counter()
        try:
            for _ in range(target):
                sock = socket.create_connection((srv.host, srv.port),
                                                timeout=10.0)
                idle.append(sock)
            open_seconds = time.perf_counter() - t0
            # Let the loop drain its accept backlog, then count.
            deadline = time.monotonic() + 30.0
            counts = srv._edge.connection_counts()
            while counts["open"] < target and time.monotonic() < deadline:
                time.sleep(0.05)
                counts = srv._edge.connection_counts()
            threads_idle = threading.active_count()

            # One real session through the idle crowd still works.
            res = run_registry_session(
                srv.host, srv.port, CIRCUIT, CLIENT_VALUE,
                session_id="through-the-crowd", max_attempts=1,
                timeout=30.0)
            expected = (SERVER_VALUE + CLIENT_VALUE) & 0xFFFFFFFF
            assert res.value == expected, (res.value, expected)
        finally:
            for sock in idle:
                try:
                    sock.close()
                except OSError:
                    pass
        assert counts["open"] >= target, (
            f"edge holds {counts['open']} of {target} idle connections")
        extra = threads_idle - threads_before
        assert extra <= MAX_EXTRA_THREADS, (
            f"{extra} extra threads for {target} idle connections — "
            "idle connections must not cost threads")
        return {
            "target_connections": target,
            "open_connections": counts["open"],
            "open_seconds": round(open_seconds, 3),
            "threads_before": threads_before,
            "threads_serving": threads_serving,
            "threads_with_idle_crowd": threads_idle,
            "extra_threads": extra,
            "session_value_ok": True,
        }


def _emit(report: dict) -> None:
    out = os.environ.get(
        "SERVE_IDLE_JSON",
        os.path.join(REPO_ROOT, "results", "serve_idle.json"),
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def test_idle_connections_cost_sockets_not_threads():
    report = run_idle_bench()
    _emit(report)
    assert report["open_connections"] >= report["target_connections"]


if __name__ == "__main__":
    report = run_idle_bench()
    _emit(report)
    print(json.dumps(report, indent=2))
