"""The router tier: rendezvous affinity, fleet-stats aggregation and
drain-time session handoff through a live two-shard fleet."""

import threading
import time

import pytest

from repro import api
from repro.net.cli import _registry
from repro.serve import (
    ServeClient,
    LocalFleet,
    aggregate_shard_stats,
    fetch_fleet_stats,
    fetch_stats,
    registry_program,
    run_registry_session,
    run_session,
)
from repro.serve.fleet import rendezvous_rank, rendezvous_select

SERVER_VALUE = 1000


def _await(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _asyncio_warnings(caplog):
    import logging

    return [r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.WARNING]


class TestRendezvous:
    """The pure HRW routing function: determinism and the minimal-
    disruption property that makes shard join/leave cheap."""

    SHARDS = [("10.0.0.1", 9300), ("10.0.0.2", 9300),
              ("10.0.0.3", 9300), ("10.0.0.4", 9301)]
    KEYS = [f"digest-{i:04x}" for i in range(256)]

    def test_select_is_deterministic_and_order_independent(self):
        for key in self.KEYS[:16]:
            first = rendezvous_select(key, self.SHARDS)
            assert first == rendezvous_select(key, self.SHARDS)
            assert first == rendezvous_select(key, reversed(self.SHARDS))
            assert first in self.SHARDS

    def test_rank_is_a_permutation(self):
        ranked = rendezvous_rank("some-key", self.SHARDS)
        assert sorted(ranked) == sorted(self.SHARDS)
        assert ranked[0] == rendezvous_select("some-key", self.SHARDS)

    def test_empty_pool_selects_none(self):
        assert rendezvous_select("key", []) is None
        assert rendezvous_rank("key", []) == []

    def test_leave_moves_only_the_leavers_keys(self):
        """When a shard leaves, sessions owned by the survivors keep
        their owner — only the leaver's keys are re-routed."""
        before = {k: rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        leaver = self.SHARDS[1]
        survivors = [s for s in self.SHARDS if s != leaver]
        for key, owner in before.items():
            after = rendezvous_select(key, survivors)
            if owner != leaver:
                assert after == owner, f"{key} moved off a live shard"
            else:
                assert after in survivors

    def test_join_steals_keys_only_for_itself(self):
        """When a shard joins, every key that moves, moves *to* the
        joiner — no shuffling between incumbents."""
        before = {k: rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        joiner = ("10.0.0.9", 9300)
        grown = self.SHARDS + [joiner]
        moved = 0
        for key, owner in before.items():
            after = rendezvous_select(key, grown)
            if after != owner:
                assert after == joiner, f"{key} shuffled between incumbents"
                moved += 1
        # The joiner takes a non-trivial share (~1/5 of 256 keys).
        assert 0 < moved < len(self.KEYS)

    def test_spread_is_not_degenerate(self):
        owners = {rendezvous_select(k, self.SHARDS) for k in self.KEYS}
        assert owners == set(self.SHARDS)


class TestAggregate:
    def test_sums_additive_counters(self):
        snaps = [
            {"accepted": 3, "completed": 2, "failed": 0, "active": 1,
             "handed_off": 1},
            {"accepted": 5, "completed": 5, "failed": 1, "adopted": 1},
        ]
        agg = aggregate_shard_stats(snaps)
        assert agg["accepted"] == 8
        assert agg["completed"] == 7
        assert agg["failed"] == 1
        assert agg["handed_off"] == 1 and agg["adopted"] == 1
        assert agg["shards"] == 2

    def test_missing_and_malformed_fields_count_as_zero(self):
        agg = aggregate_shard_stats([{}, {"accepted": "not-a-number"}])
        assert agg["accepted"] == 0
        assert agg["shards"] == 2

    def test_empty_fleet_aggregates_to_zeroes(self):
        agg = aggregate_shard_stats([])
        assert agg["shards"] == 0
        assert all(v == 0 for k, v in agg.items() if k != "shards")


@pytest.fixture(scope="module")
def fleet():
    programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
    with LocalFleet(programs, shards=2) as f:
        yield f


class TestRouterFleet:
    def test_sessions_route_and_match_local_simulator(self, fleet):
        entry = _registry()["sum32"]
        net, cycles = entry.build()
        for value in (7, 19, 255):
            res = run_registry_session(
                fleet.host, fleet.port, "sum32", value, max_attempts=1
            )
            ref = api.run(
                net,
                {"alice": entry.alice_source(SERVER_VALUE, cycles),
                 "bob": entry.bob_source(value, cycles)},
                cycles=cycles,
            )
            assert res.value == ref.value == (SERVER_VALUE + value) & 0xFFFFFFFF
            assert list(res.outputs) == list(ref.outputs)
            assert res.stats.garbled_nonxor == ref.stats.garbled_nonxor

    def test_digest_affinity_pins_a_program_to_one_shard(self, fleet):
        """Every session for the same program digest lands on the same
        shard: exactly one shard accepts sum32 traffic."""
        for i in range(3):
            run_registry_session(
                fleet.host, fleet.port, "sum32", 40 + i, max_attempts=1
            )
        snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
        owners = [s for s in snaps if s["accepted"] > 0]
        assert len(owners) == 1, [s["accepted"] for s in snaps]

    def test_router_stats_snapshot(self, fleet):
        client = ServeClient(fleet.host, fleet.port)
        st = client.stats()
        assert st["routed_sessions"] >= 1
        assert st["rejected_error"] == 0
        assert len(st["shards"]) == 2
        assert all(s["healthy"] for s in st["shards"])
        # The effective config is echoed so operators can audit it.
        assert sorted(map(tuple, st["config"]["shards"])) == sorted(
            fleet.shard_addrs
        )

    def test_fleet_stats_matches_per_shard_aggregation(self, fleet):
        run_registry_session(fleet.host, fleet.port, "sum32", 3,
                             max_attempts=1)
        # Completion bookkeeping lands just after the client sees the
        # result — wait for the per-shard counters to go quiet.
        def settled():
            snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
            return all(s["active"] == 0 and s["queued"] == 0 for s in snaps)
        _await(settled, what="shard bookkeeping")

        snaps = [fetch_stats(h, p) for h, p in fleet.shard_addrs]
        expected = aggregate_shard_stats(snaps)
        fs = fetch_fleet_stats(fleet.host, fleet.port)
        assert fs["aggregate"] == expected
        assert fs["aggregate"]["shards"] == 2
        assert fs["aggregate"]["failed"] == 0
        assert len(fs["shards"]) == 2
        assert {s["id"] for s in fs["shards"]} == {
            "%s:%d" % addr for addr in fleet.shard_addrs
        }


class TestDrainHandoff:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_forced_drain_handoff_is_bit_identical(self, pool):
        """Drain the shard that owns an in-flight session mid-run: the
        session is checkpoint-transferred to the peer and finishes with
        outputs and gate counts bit-identical to the local simulator —
        however the shards start their workers."""
        from repro.serve.config import ServeConfig

        entry = _registry()["sum32-seq"]
        net, cycles = entry.build()
        bob = entry.bob_source(7, cycles)

        def slow_bob(cycle):
            # Stretch the session (~1.6s over 32 cycles) so the drain
            # reliably lands between checkpoints.
            time.sleep(0.05)
            return bob(cycle) if callable(bob) else bob

        ref = api.run(
            net,
            {"alice": entry.alice_source(SERVER_VALUE, cycles),
             "bob": entry.bob_source(7, cycles)},
            cycles=cycles,
        )

        programs = {"sum32-seq": registry_program("sum32-seq", SERVER_VALUE)}
        with LocalFleet(programs, shards=2,
                        config=ServeConfig(pool=pool)) as fleet:
            box = {}

            def client_main():
                box["result"] = run_session(
                    fleet.host, fleet.port, "sum32-seq", net,
                    session_id="drain-handoff", bob=slow_bob, cycles=cycles,
                )

            t = threading.Thread(target=client_main)
            t.start()
            try:
                owner = {}

                def session_active():
                    for addr in fleet.shard_addrs:
                        if fetch_stats(*addr)["active"] >= 1:
                            owner["addr"] = addr
                            return True
                    return False
                _await(session_active, what="session to start")

                drain = ServeClient(fleet.host, fleet.port).drain(
                    shard=owner["addr"]
                )
                assert drain["draining"] is True
                assert drain["handoffs"] == 1
            finally:
                t.join(timeout=90)
            assert not t.is_alive(), "handed-off session never finished"

            result = box["result"]
            assert result.value == ref.value
            assert list(result.outputs) == list(ref.outputs)
            assert result.stats.garbled_nonxor == ref.stats.garbled_nonxor
            assert result.reconnects >= 1

            # Completion bookkeeping lands just after the client sees
            # the result: wait for the adopter to count the session.
            def counted():
                agg = fetch_fleet_stats(fleet.host, fleet.port)["aggregate"]
                return agg["completed"] + agg["failed"] >= 1
            _await(counted, what="adopter bookkeeping")

            agg = fetch_fleet_stats(fleet.host, fleet.port)["aggregate"]
            assert agg["handed_off"] == 1
            assert agg["adopted"] == 1
            assert agg["completed"] == 1
            assert agg["failed"] == 0

            # The adopter's registry entry outlives the session; the
            # handoff bundle (the peer's whole material) must not.
            (adopter,) = [srv for srv in fleet.servers
                          if (srv.host, srv.port) != tuple(owner["addr"])]
            assert adopter._sessions["drain-handoff"].state == "done"
            assert adopter._sessions["drain-handoff"].bundle is None


class TestRedirect:
    """The router answers ``moved`` and steps aside: the session, its
    redials and its result probe all run against the shard."""

    @pytest.fixture(scope="class")
    def seq_fleet(self):
        from repro.serve.config import ServeConfig

        programs = {"sum32-seq": registry_program("sum32-seq", SERVER_VALUE)}
        config = ServeConfig(pool="thread", checkpoint_every=4,
                             timeout=5.0, resume_window=5.0)
        with LocalFleet(programs, shards=2, config=config) as f:
            yield f

    @staticmethod
    def _reference(value):
        entry = _registry()["sum32-seq"]
        net, cycles = entry.build()
        return api.run(
            net,
            {"alice": entry.alice_source(SERVER_VALUE, cycles),
             "bob": entry.bob_source(value, cycles)},
            mode="local", cycles=cycles,
        )

    def test_router_holds_no_connection_of_a_running_session(
            self, seq_fleet):
        entry = _registry()["sum32-seq"]
        net, cycles = entry.build()
        bob = entry.bob_source(7, cycles)

        def slow_bob(cycle):
            time.sleep(0.03)  # ~1 s over 32 cycles
            return bob(cycle) if callable(bob) else bob

        front = ServeClient(seq_fleet.host, seq_fleet.port)
        routed_before = front.stats()["routed_sessions"]
        box = {}
        t = threading.Thread(target=lambda: box.update(result=run_session(
            seq_fleet.host, seq_fleet.port, "sum32-seq", net,
            bob=slow_bob, cycles=cycles, max_attempts=1)))
        t.start()
        try:
            _await(lambda: any(fetch_stats(*a)["active"] >= 1
                               for a in seq_fleet.shard_addrs),
                   what="session to start")
            st = front.stats()
            # The one open connection is this stats probe itself.
            assert st["open_connections"] == 1
            assert st["routed_sessions"] == routed_before + 1
        finally:
            t.join(timeout=60)
        assert box["result"].value == self._reference(7).value

    def test_mid_session_redial_goes_straight_to_the_shard(self, seq_fleet):
        from repro.net.fault import FaultPlan, FaultRule, FaultyTransport

        front = ServeClient(seq_fleet.host, seq_fleet.port)
        routed = {}
        injected = []

        def wrap(attempt, link):
            if attempt:
                return link
            # Past the router by now: what a redial adds is the delta.
            routed["before"] = front.stats()["routed_sessions"]
            faulty = FaultyTransport(
                link, FaultPlan([FaultRule("disconnect", frame_index=30)]))
            injected.append(faulty)
            return faulty

        res = run_registry_session(
            seq_fleet.host, seq_fleet.port, "sum32-seq", 1234,
            max_attempts=4, timeout=5.0, wrap=wrap)
        ref = self._reference(1234)
        assert [f.action for ft in injected for f in ft.injected] == [
            "disconnect"]
        assert res.reconnects >= 1
        assert list(res.outputs) == list(ref.outputs)
        assert res.stats.garbled_nonxor == ref.stats.garbled_nonxor
        assert front.stats()["routed_sessions"] == routed["before"]

    def test_result_probe_follows_pin_to_the_parked_result(self, seq_fleet):
        front = ServeClient(seq_fleet.host, seq_fleet.port)
        res = run_registry_session(
            seq_fleet.host, seq_fleet.port, "sum32-seq", 99,
            session_id="parked", max_attempts=1)
        before = front.stats()
        again = front.recover_result("parked")
        after = front.stats()
        assert again.replayed
        assert list(again.outputs) == list(res.outputs)
        assert after["routed_results"] == before["routed_results"] + 1
        assert after["routed_sessions"] == before["routed_sessions"]

    def test_unreachable_shard_is_a_structured_busy(self, caplog):
        """The redirect names a peer nobody listens on: the client's
        short redirected-hop dial budget turns that into ``ServerBusy``
        (go back to the front), and the router never noticed."""
        import logging
        import socket

        from repro.serve import ServerBusy, SessionRouter
        from repro.serve.config import RouterConfig

        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        dead = closed.getsockname()
        closed.close()
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            # Two failed polls (start + first loop round) < dead_after:
            # the shard is still counted healthy and gets the session.
            with SessionRouter(RouterConfig(
                    shards=(dead,), poll_interval=60.0)) as router:
                t0 = time.monotonic()
                with pytest.raises(ServerBusy, match="unreachable") as info:
                    run_registry_session(router.host, router.port,
                                         "sum32", 5, max_attempts=1)
                assert time.monotonic() - t0 < 3.0
                assert info.value.welcome["peer"] == list(dead)
                st = router.stats_snapshot()
                assert st["routed_sessions"] == 1
                assert st["rejected_busy"] == st["rejected_error"] == 0
        assert _asyncio_warnings(caplog) == []


class TestBaseOTAcrossShards:
    def test_one_identity_on_two_shards_keeps_working(self):
        """One client identity whose sessions reach two shards through
        one router address: each shard's stored sender base and the
        client's one receiver base come from different sessions, so
        the shard must answer ``fresh`` — not ``cached`` against a
        base the client no longer holds.  Order A, B, A."""
        from repro.serve.client import forget_receiver_bases
        from repro.serve.config import ServeConfig

        # Eight cheap programs: which shard owns which depends on the
        # ports the shards happened to bind.
        names = [n for n in _registry() if not n.startswith("psi")]
        programs = {n: registry_program(n, SERVER_VALUE) for n in names}
        forget_receiver_bases()
        config = ServeConfig(pool="thread", workers=1,
                             precompute=False)
        with LocalFleet(programs, shards=2, config=config) as fleet:
            digests = fleet.servers[0].program_digests
            owner = {n: rendezvous_select(digests[n], fleet.shard_addrs)
                     for n in names}
            a = names[0]
            b = next((n for n in names if owner[n] != owner[a]), None)
            if b is None:  # 2**-7: every digest hashed to one shard
                pytest.skip("all programs landed on one shard")
            client = ServeClient(fleet.host, fleet.port,
                                 client_id="roamer")
            for i, name in enumerate((a, b, a)):
                entry = _registry()[name]
                net, cycles = entry.build()
                ref = api.run(
                    net,
                    {"alice": entry.alice_source(SERVER_VALUE, cycles),
                     "bob": entry.bob_source(20 + i, cycles)},
                    mode="local", cycles=cycles,
                )
                res = client.run(name, 20 + i, max_attempts=1)
                assert list(res.outputs) == list(ref.outputs), name
                assert res.stats.garbled_nonxor == ref.stats.garbled_nonxor
            agg = fetch_fleet_stats(fleet.host, fleet.port)["aggregate"]
            assert agg["failed"] == 0


class TestRouterShutdown:
    @pytest.fixture
    def mute_shard(self):
        """The address of a shard that hangs up on the router's first
        poll (so ``start`` returns at once) and then accepts without
        ever answering: a poll round is in flight whenever the router
        is asked to stop, and a ``fleet-stats`` probe waits on it."""
        import socket

        mute = socket.socket()
        mute.bind(("127.0.0.1", 0))
        mute.listen(8)
        held = []

        def accept_loop():
            try:
                mute.accept()[0].close()
                while True:
                    held.append(mute.accept()[0])
            except OSError:
                pass  # listener closed: test over

        threading.Thread(target=accept_loop, daemon=True).start()
        try:
            yield mute.getsockname()
        finally:
            mute.close()
            for conn in held:
                conn.close()

    def test_shutdown_destroys_no_pending_task(self, caplog, mute_shard):
        """The loop awaits its cancelled poll and route tasks before it
        closes, so asyncio logs nothing (no ``Task was destroyed but it
        is pending!``)."""
        import gc
        import logging
        import socket

        from repro.net.tcp import TcpLink
        from repro.serve import SessionRouter
        from repro.serve.config import RouterConfig
        from repro.serve.handshake import HELLO, send_control

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            router = SessionRouter(RouterConfig(
                shards=(mute_shard,), poll_interval=0.001,
            )).start()
            # ...and so is a ``_route`` task: a fleet-stats probe
            # waiting on that same shard.
            probe = TcpLink(socket.create_connection(
                (router.host, router.port)))
            send_control(probe, HELLO, {"op": "fleet-stats"})
            time.sleep(0.05)
            router.shutdown()
            probe.close()
            gc.collect()
        assert _asyncio_warnings(caplog) == []

    def test_held_control_ops_hold_their_slots_until_shutdown(
            self, caplog, mute_shard):
        """A connection still owed its answer after its hello counts
        against ``max_connections``: two ``fleet-stats`` probes parked
        on a shard that never answers make a third dial get the
        structured ``overloaded`` reject.  ``shutdown`` closes them —
        both read EOF — and logs nothing."""
        import gc
        import logging

        from repro.net.tcp import connect_with_backoff
        from repro.serve import SessionRouter
        from repro.serve.config import RouterConfig
        from repro.serve.handshake import (
            HELLO,
            WELCOME,
            recv_control,
            send_control,
        )

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            router = SessionRouter(RouterConfig(
                shards=(mute_shard,), max_connections=2,
            )).start()
            held = []
            try:
                for _ in range(2):
                    link = connect_with_backoff(router.host, router.port)
                    held.append(link)
                    send_control(link, HELLO, {"op": "fleet-stats"})
                _await(lambda: router.stats_snapshot()["fleet_probes"]
                       == 2, what="both probes to be parked")
                assert router.stats_snapshot()["open_connections"] == 2

                third = connect_with_backoff(router.host, router.port)
                try:
                    tag, welcome, _ = recv_control(third, timeout=5.0)
                finally:
                    third.close()
                assert tag == WELCOME
                assert welcome["status"] == "overloaded"
                assert welcome["retry_after_s"] > 0
                assert router.stats_snapshot()["rejected_overload"] == 1

                router.shutdown()
                for link in held:
                    assert link.recv_bytes(timeout=5.0) == b""
            finally:
                router.shutdown()
                for link in held:
                    link.close()
            gc.collect()
        assert _asyncio_warnings(caplog) == []


class TestShardReload:
    """``op: "reload-shards"``: live membership swap with minimal
    disruption (ROADMAP item 2's config-reload deferral)."""

    def test_join_and_leave_with_minimal_disruption(self):
        from repro.serve import request_reload
        from repro.serve.config import ServeConfig
        from repro.serve.server import GarbleServer

        programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
        with LocalFleet(programs, shards=2) as fleet:
            client = ServeClient(fleet.host, fleet.port)
            for i in range(2):
                res = run_registry_session(
                    fleet.host, fleet.port, "sum32", 10 + i,
                    max_attempts=1,
                )
                assert res.value == (SERVER_VALUE + 10 + i) & 0xFFFFFFFF
            owners = [a for a in fleet.shard_addrs
                      if fetch_stats(*a)["accepted"] > 0]
            assert len(owners) == 1
            owner = owners[0]
            other = next(a for a in fleet.shard_addrs if a != owner)
            pins_before = dict(fleet.router._pins)
            assert pins_before

            joiner = GarbleServer(
                programs,
                config=ServeConfig(pool="thread").replace(
                    host="127.0.0.1", port=0, fleet=True
                ),
            ).start()
            try:
                grown = list(fleet.shard_addrs) + [
                    ("127.0.0.1", joiner.port)
                ]
                ack = client.reload_shards(grown)
                assert ack["status"] == "ok"
                assert ack["added"] == 1 and ack["removed"] == 0
                assert ack["dropped_pins"] == 0
                assert [tuple(a) for a in ack["shards"]] == grown

                st = client.stats()
                assert st["shard_reloads"] == 1
                assert len(st["shards"]) == 3
                assert [tuple(a) for a in st["config"]["shards"]] \
                    == grown
                # Survivors kept their pins: redials stay sticky.
                for sid, addr in pins_before.items():
                    assert fleet.router._pins.get(sid) == addr

                # Minimal disruption: new sum32 sessions may stay on
                # the incumbent owner or move to the joiner, but never
                # shuffle onto the other incumbent.
                other_before = fetch_stats(*other)["accepted"]
                for i in range(2):
                    run_registry_session(
                        fleet.host, fleet.port, "sum32", 30 + i,
                        max_attempts=1,
                    )
                assert fetch_stats(*other)["accepted"] == other_before

                # Shrink: drop the original owner.  Its pins go, and
                # traffic re-routes to the survivors correctly.
                survivors = [a for a in grown if a != owner]
                ack2 = client.reload_shards(survivors)
                assert ack2["removed"] == 1
                assert ack2["dropped_pins"] >= 1
                assert all(addr != owner
                           for addr in fleet.router._pins.values())
                res = run_registry_session(
                    fleet.host, fleet.port, "sum32", 77, max_attempts=1
                )
                assert res.value == (SERVER_VALUE + 77) & 0xFFFFFFFF
                assert client.stats()["shard_reloads"] == 2
            finally:
                joiner.shutdown()

    def test_reload_rejects_bad_membership(self):
        from repro.serve import request_reload
        from repro.serve.client import _hello_exchange
        from repro.serve.handshake import ServeError

        programs = {"sum32": registry_program("sum32", SERVER_VALUE)}
        with LocalFleet(programs, shards=1) as fleet:
            with pytest.raises(ValueError):
                request_reload(fleet.host, fleet.port, [])
            # Malformed membership is a structured error reply
            # (surfaced client-side as ServeError), and the router
            # keeps routing afterwards.
            with pytest.raises(ServeError, match="reload-shards needs"):
                _hello_exchange(
                    fleet.host, fleet.port,
                    {"op": "reload-shards", "shards": "nonsense"},
                    timeout=10.0,
                )
            res = run_registry_session(
                fleet.host, fleet.port, "sum32", 5, max_attempts=1
            )
            assert res.value == (SERVER_VALUE + 5) & 0xFFFFFFFF
            assert client_stats_shards(fleet) == 1


def client_stats_shards(fleet) -> int:
    return len(ServeClient(fleet.host, fleet.port).stats()["shards"])
