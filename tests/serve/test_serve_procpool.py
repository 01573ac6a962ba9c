"""The worker pool: pool resolution, resume via fd passing under both
spawn kinds, shared-memory counters, worker death and the thread
fallback.

Most serve tests already run against the process pool implicitly
(``pool="auto"`` resolves to processes under pytest); this file pins
the process-specific guarantees explicitly.
"""

import os
import threading
import time

import pytest

from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.serve import make_server, run_loadgen, run_registry_session
from repro.serve.client import _hello_exchange
from repro.serve.server import GarbleServer, ServeProgram, registry_program

SERVER_VALUE = 4321
CLIENT_VALUE = 1234


class TestPoolResolution:
    def test_auto_resolves_to_process_under_pytest(self):
        with make_server(["sum32"], value=1, port=0) as srv:
            assert srv.pool == "process"

    def test_explicit_thread_pool_still_works(self):
        with make_server(["sum32"], value=SERVER_VALUE, pool="thread",
                         port=0) as srv:
            assert srv.pool == "thread"
            res = run_registry_session(srv.host, srv.port, "sum32", 5,
                                       max_attempts=1)
            assert res.value == (SERVER_VALUE + 5) & 0xFFFFFFFF

    def test_unpicklable_programs_fall_back_to_threads(self):
        """Callable bit sources can't cross a process boundary: auto
        falls back to the thread pool, explicit process refuses."""
        base = registry_program("sum32", SERVER_VALUE)
        bits = list(base.alice)
        prog = ServeProgram(
            net=base.net, cycles=base.cycles,
            alice=lambda cycle: bits,  # unpicklable on purpose
        )
        srv = GarbleServer({"sum32": prog}, port=0)
        try:
            assert srv.pool == "thread"
        finally:
            srv.shutdown(drain=False)
        with pytest.raises(ValueError, match="picklable"):
            GarbleServer({"sum32": prog}, port=0, pool="process")

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            make_server(["sum32"], value=1, port=0, pool="fibers")


class TestProcessPoolSessions:
    def test_sessions_run_in_worker_processes(self):
        """Results ship back over the control channel and the
        shared-memory counters settle, with the work done outside the
        parent process."""
        with make_server(["sum32"], value=SERVER_VALUE, workers=2,
                         pool="process", port=0) as srv:
            report = run_loadgen(
                srv.host, srv.port, "sum32", clients=4,
                server_value=SERVER_VALUE, max_attempts=1,
            )
            assert report.ok == 4 and report.failed == 0
            assert report.verify_errors == []
            srv.shutdown(drain=True)
            assert srv.stats.completed == 4
            assert srv.stats.active == 0
            # Every worker was a live child process of this one.
            assert all(p is not None and p.pid != os.getpid()
                       for p in srv._procs)

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_resume_crosses_the_worker_boundary(self, pool):
        """A redial's socket is fd-passed to the worker that owns the
        session — a process or a thread — and the resumed run is
        bit-identical to a clean one."""
        with make_server(["sum32-seq"], value=SERVER_VALUE, workers=2,
                         pool=pool, checkpoint_every=4, timeout=5.0,
                         resume_window=5.0, port=0) as srv:
            assert srv.pool == pool
            clean = run_registry_session(
                srv.host, srv.port, "sum32-seq", CLIENT_VALUE,
                session_id="pp-clean", max_attempts=1)

            def wrap(attempt, link):
                if attempt == 0:
                    return FaultyTransport(
                        link,
                        FaultPlan([FaultRule("disconnect",
                                             frame_index=30)]),
                    )
                return link

            faulted = run_registry_session(
                srv.host, srv.port, "sum32-seq", CLIENT_VALUE,
                session_id="pp-faulted", max_attempts=4, timeout=5.0,
                wrap=wrap)
            assert faulted.reconnects >= 1
            assert faulted.value == clean.value
            assert faulted.outputs == clean.outputs
            assert faulted.stats.garbled_nonxor == clean.stats.garbled_nonxor

            # The worker-side result made it back to the parent and
            # matches the client's decode bit for bit.
            srv.shutdown(drain=True)
            a = srv.session_result("pp-clean")
            b = srv.session_result("pp-faulted")
            assert a is not None and b is not None
            assert a.outputs == b.outputs == faulted.outputs
            assert b.reconnects >= 1

    def test_shutdown_reaps_every_worker(self):
        srv = make_server(["sum32"], value=1, workers=2, pool="process",
                          port=0).start()
        procs = list(srv._procs)
        assert all(p is not None for p in procs)
        srv.shutdown(drain=True)
        assert all(not p.is_alive() for p in procs)

    def test_killed_worker_fails_its_session_and_trips_max_sessions(self):
        """``kill -9`` the worker that owns the only session a
        ``max_sessions=1`` server will ever see: the session is booked
        failed, the outcome counts toward ``max_sessions`` (so
        ``serve_forever`` returns instead of hanging), the worker is
        replaced, and no child outlives the shutdown."""
        srv = make_server(["sum32-seq"], value=1, workers=2, pool="process",
                          max_sessions=1, timeout=30.0, port=0).start()
        served = threading.Thread(target=srv.serve_forever, daemon=True)
        served.start()
        # A stalled client: welcomed, then silent — the session stays
        # active on its worker, blocked on the evaluator's first frame.
        _welcome, link = _hello_exchange(
            srv.host, srv.port,
            {"op": "session", "session": "doomed", "program": "sum32-seq"},
            timeout=5.0)
        try:
            deadline = time.monotonic() + 10.0
            while srv.stats.active != 1:
                assert time.monotonic() < deadline, "session never started"
                time.sleep(0.01)
            owner = srv._sessions["doomed"].owner
            victim = srv._procs[owner]
            victim.kill()
            served.join(timeout=30.0)
            assert not served.is_alive(), "max_sessions never tripped"
        finally:
            link.close()
            srv.shutdown(drain=False)
        snap = srv.counters()
        assert snap["accepted"] == 1
        assert snap["accepted"] == snap["completed"] + snap["failed"]
        assert snap["failed"] == 1 and snap["active"] == 0
        # The replacement took the dead worker's slot and answered
        # ``ready`` before being stopped with the rest.
        assert srv._procs[owner] is not victim
        assert srv._worker_ready[owner]
        assert all(not p.is_alive() for p in [victim, *srv._procs])
