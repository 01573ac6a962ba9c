"""Differential tests for the offline/online garbling split.

Soundness of pre-garbled material rests on three properties, each
exercised here against a live server:

* **bit-identity** — a session served from cached material is
  byte-for-byte indistinguishable from fresh garbling: same decoded
  value, same output bits, same non-XOR gate count, same table count,
  and both match the local plain simulator;
* **resume safety** — a session replaying material survives a
  mid-run disconnect exactly like a fresh one, and a checkpoint can
  never be restored across material epochs (the checkpoint records
  the epoch; crossing deltas is a fatal desync);
* **delta-epoch rotation** — every epoch (every delta) is handed out
  exactly once, so two evaluator identities can never observe labels
  under the same delta.
"""

import functools
import random
import threading

import pytest

from repro import api
from repro.gc.material import (
    MaterialCache,
    MaterialEpochMismatch,
    MaterialGarblerParty,
    build_material,
)
from repro.net.cli import _registry
from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.serve import make_server, run_loadgen, run_registry_session
from repro.serve.server import registry_program

SERVER_VALUE = 4321
CLIENT_VALUE = 1234
CIRCUIT = "sum32"
#: bit-serial variant: 32 cycles, so checkpoints exist mid-run.
SEQ_CIRCUIT = "sum32-seq"


def _local_reference(circuit, server_value, client_value):
    from repro.net.cli import _registry

    entry = _registry()[circuit]
    net, cycles = entry.build()
    return api.run(
        net,
        {
            "alice": entry.alice_source(server_value, cycles),
            "bob": entry.bob_source(client_value, cycles),
        },
        mode="local",
        cycles=cycles,
    )


class TestMaterialCacheRotation:
    def _cache(self, depth=2):
        prog = registry_program(CIRCUIT, SERVER_VALUE)
        return MaterialCache(
            prog.net, prog.cycles, alice=prog.alice, depth=depth
        )

    def test_every_epoch_is_distinct_and_single_use(self):
        cache = self._cache(depth=2)
        assert cache.prewarm() == 2
        m_a, hit_a = cache.acquire("client-a")
        m_b, hit_b = cache.acquire("client-b")
        m_c, hit_c = cache.acquire("client-a")  # pool empty -> miss
        assert (hit_a, hit_b, hit_c) == (True, True, False)
        epochs = {m_a.epoch, m_b.epoch, m_c.epoch}
        deltas = {m_a.delta, m_b.delta, m_c.delta}
        assert len(epochs) == 3, "an epoch was handed out twice"
        assert len(deltas) == 3, "a delta was reused across epochs"
        # The audit trail maps each consumed epoch to its identity.
        assert cache.assignments == {
            m_a.epoch: "client-a",
            m_b.epoch: "client-b",
            m_c.epoch: "client-a",
        }

    def test_refill_waits_for_low_water(self):
        cache = self._cache(depth=2)
        cache.prewarm()
        cache.acquire("x")
        # One epoch consumed, one still pooled (> depth//2 = 1): no
        # refill burns garbling on the next session's path.
        assert cache.refill() == 0
        cache.acquire("y")
        assert cache.refill() == 2
        assert len(cache) == 2


class TestCachedVsFreshBitIdentity:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_material_session_matches_fresh_and_simulator(self, pool):
        kw = dict(value=SERVER_VALUE, workers=1, pool=pool, port=0)
        with make_server([CIRCUIT], precompute=True, **kw) as cached_srv:
            cached = run_registry_session(
                cached_srv.host, cached_srv.port, CIRCUIT, CLIENT_VALUE,
                session_id="cached")
        snap = cached_srv.stats_snapshot()  # after drain: records landed
        with make_server([CIRCUIT], precompute=False, **kw) as fresh_srv:
            fresh = run_registry_session(
                fresh_srv.host, fresh_srv.port, CIRCUIT, CLIENT_VALUE,
                session_id="fresh")
        fresh_snap = fresh_srv.stats_snapshot()

        # The cached session really consumed pre-garbled material...
        assert snap["material_hits"] == 1
        assert snap["material_misses"] == 0
        assert snap["sessions"][0]["epoch"] >= 0
        # ...and the fresh one really garbled inline.
        assert fresh_snap["material_hits"] == 0
        assert fresh_snap["sessions"][0]["epoch"] == -1

        # Bit-identity between the two paths.
        assert cached.value == fresh.value
        assert cached.outputs == fresh.outputs
        assert cached.stats.garbled_nonxor == fresh.stats.garbled_nonxor
        assert cached.tables_sent == fresh.tables_sent

        # And against the local plain simulator.
        ref = _local_reference(CIRCUIT, SERVER_VALUE, CLIENT_VALUE)
        assert cached.value == ref.value
        assert cached.outputs == list(ref.outputs)
        assert cached.stats.garbled_nonxor == ref.stats.garbled_nonxor

    def test_loadgen_verifies_material_sessions(self):
        """The loadgen's cross-session + simulator verification holds
        over a burst of material-served sessions."""
        with make_server([CIRCUIT], value=SERVER_VALUE, workers=2,
                         pool="thread", material_depth=4, port=0) as srv:
            rep = run_loadgen(srv.host, srv.port, CIRCUIT, clients=4,
                              server_value=SERVER_VALUE)
        snap = srv.stats_snapshot()
        assert rep.ok == 4 and rep.failed == 0
        assert rep.verify_errors == []
        assert snap["material_hits"] + snap["material_misses"] == 4


class TestResumeAcrossMaterial:
    def test_disconnect_resumes_material_replay_bit_identically(self):
        with make_server([SEQ_CIRCUIT], value=SERVER_VALUE, workers=2,
                         pool="thread", checkpoint_every=4, timeout=5.0,
                         resume_window=5.0, port=0) as srv:
            clean = run_registry_session(
                srv.host, srv.port, SEQ_CIRCUIT, CLIENT_VALUE,
                session_id="clean", max_attempts=1)

            faults = []

            def wrap(attempt, link):
                if attempt == 0:
                    faulty = FaultyTransport(
                        link,
                        FaultPlan([FaultRule("disconnect", frame_index=30)]),
                    )
                    faults.append(faulty)
                    return faulty
                return link

            faulted = run_registry_session(
                srv.host, srv.port, SEQ_CIRCUIT, CLIENT_VALUE,
                session_id="faulted", max_attempts=4, timeout=5.0,
                wrap=wrap)
        snap = srv.stats_snapshot()

        assert [f.action for ft in faults for f in ft.injected] == [
            "disconnect"
        ]
        assert faulted.reconnects >= 1
        # Both sessions replayed material (not fresh fallback)...
        assert snap["material_hits"] == 2
        epochs = {r["session"]: r["epoch"] for r in snap["sessions"]}
        assert epochs["clean"] >= 0 and epochs["faulted"] >= 0
        # ...from different epochs (one bundle per session), and the
        # resumed replay is bit-identical to the uninterrupted one.
        assert epochs["clean"] != epochs["faulted"]
        assert faulted.value == clean.value
        assert faulted.value == (SERVER_VALUE + CLIENT_VALUE) & 0xFFFFFFFF
        assert faulted.outputs == clean.outputs
        assert faulted.stats.garbled_nonxor == clean.stats.garbled_nonxor
        # The garbler-side result names the epoch its checkpoints rode.
        server_result = srv.session_result("faulted")
        assert server_result is not None
        assert server_result.material_epoch == epochs["faulted"]
        assert server_result.reconnects >= 1

    def test_restore_across_epochs_is_fatal(self):
        """A checkpoint records its material epoch; restoring it into a
        party holding different material must raise, never silently
        stitch two deltas into one session."""
        from repro.gc.material import MaterialGarblerParty

        prog = registry_program(SEQ_CIRCUIT, SERVER_VALUE)
        kw = dict(alice=prog.alice)
        m0 = build_material(prog.net, prog.cycles, epoch=0, **kw)
        m1 = build_material(prog.net, prog.cycles, epoch=1, **kw)

        class _NullChan:
            def send(self, tag, payload):
                pass

        p0 = MaterialGarblerParty(m0)
        p0.attach(_NullChan())
        snap = p0.snapshot()
        p0.restore(snap)  # same epoch: fine

        p1 = MaterialGarblerParty(m1)
        p1.attach(_NullChan())
        with pytest.raises(MaterialEpochMismatch):
            p1.restore(snap)


class TestIdentitiesNeverShareADelta:
    def test_two_identities_get_disjoint_epochs(self):
        """Negative test for the rotation rule: across many sessions of
        two client identities, no delta epoch is ever observed twice —
        by the other identity or by the same one."""
        with make_server([CIRCUIT], value=SERVER_VALUE, workers=2,
                         pool="thread", material_depth=8, port=0) as srv:
            for i in range(2):
                for who in ("alpha", "beta"):
                    run_registry_session(
                        srv.host, srv.port, CIRCUIT, CLIENT_VALUE + i,
                        session_id=f"{who}-{i}", client_id=who)
        snap = srv.stats_snapshot()
        cache = srv._materials[CIRCUIT]

        epochs = [r["epoch"] for r in snap["sessions"]]
        assert all(e >= 0 for e in epochs)
        assert len(set(epochs)) == len(epochs), (
            "a delta epoch was served to two sessions"
        )
        # The cache's audit trail names the consuming identity per
        # epoch, and each epoch has exactly one consumer.
        by_identity = {}
        for epoch, identity in cache.assignments.items():
            by_identity.setdefault(identity, set()).add(epoch)
        assert not (by_identity["alpha"] & by_identity["beta"])


class TestTraceWarmBeforeReady:
    def test_first_inline_session_builds_no_trace(self):
        """With ``precompute=False`` nothing pre-garbles, so nothing
        would fetch the program's residual trace before the first
        session does: the workers build it before ``ready``."""
        from repro.core import trace
        from repro.net.cli import _registry

        net, cycles = _registry()[SEQ_CIRCUIT].build()
        trace.residual_trace(net, cycles)  # the client's own side
        with make_server([SEQ_CIRCUIT], value=SERVER_VALUE, workers=2,
                         pool="thread", precompute=False, port=0) as srv:
            built = trace.BUILDS
            res = run_registry_session(
                srv.host, srv.port, SEQ_CIRCUIT, CLIENT_VALUE, net=net)
            assert trace.BUILDS == built
        ref = _local_reference(SEQ_CIRCUIT, SERVER_VALUE, CLIENT_VALUE)
        assert res.value == ref.value
        assert res.stats == ref.stats


class TestReplayTranscript:
    """The replay party frames its recorded runs exactly as the garbler
    it recorded: seeded per-direction transcripts are identical, on
    every registry circuit and with both OT kinds."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _case(name):
        # The differential's netlists: their traces are already built.
        from tests.core.test_trace import _registry_case

        net, cycles, inputs = _registry_case(name)
        return net, cycles, inputs, api.run(net, inputs, mode="local", cycles=cycles)

    def _session(self, monkeypatch, name, ot, replay):
        from repro.core.protocol import EvaluatorParty, GarblerParty, _expand_bits
        from repro.gc import ot as ot_mod
        from repro.gc.channel import channel_pair
        from repro.gc.ot import OTSender
        from repro.gc.ot_extension import OTExtensionSender
        from repro.net import codec

        net, cycles, inputs, _ = self._case(name)
        # Seeded base-OT exponents, and short: each simplest-OT transfer
        # costs the sender one pow, and no frame depends on the width.
        rngs = {"garbler": random.Random(1), "evaluator": random.Random(2)}
        monkeypatch.setattr(
            ot_mod, "_draw_exponent",
            lambda: rngs[threading.current_thread().name].getrandbits(48) | 1)

        def sender_ot(chan):
            if ot == "extension":
                return OTExtensionSender(chan, rng=random.Random(3))
            return OTSender(chan, group="modp512")

        if replay:
            material = build_material(net, cycles, alice=inputs["alice"],
                                      ot=ot, rng=random.Random(7))
            garbler = MaterialGarblerParty(material, ot=ot, ot_factory=sender_ot)
        else:
            garbler = GarblerParty(
                net, cycles, _expand_bits(net, "alice", inputs["alice"], (), cycles),
                ot=ot, rng=random.Random(7), ot_factory=sender_ot)
        evaluator = EvaluatorParty(
            net, cycles, _expand_bits(net, "bob", inputs["bob"], (), cycles),
            ot_group="modp512", ot=ot, rng=random.Random(8))
        parties = {"garbler": garbler, "evaluator": evaluator}
        ends = dict(zip(parties, channel_pair(timeout=60.0)))
        sent = {role: [] for role in parties}
        outputs, errors = {}, []
        for role, end in ends.items():
            def tapped(tag, payload, send=end.send, log=sent[role]):
                log.append((tag, codec.encode(payload)))
                send(tag, payload)

            end.send = tapped

        def main(role):
            try:
                parties[role].attach(ends[role])
                parties[role].run_cycles()
                outputs[role] = parties[role].finish()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                ends[role].abort()

        threads = [threading.Thread(target=main, args=(role,), name=role)
                   for role in parties]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert outputs["garbler"] == outputs["evaluator"]
        return sent, outputs["garbler"], garbler.engine.stats, garbler.backend.tables_sent

    @pytest.mark.parametrize("ot", ["simplest", "extension"])
    def test_seeded_transcripts_repeat(self, monkeypatch, ot):
        """The random base phase draws nothing the seeds do not reach:
        two seeded runs send the same bytes each way."""
        first = self._session(monkeypatch, "sum32-seq", ot, replay=False)
        again = self._session(monkeypatch, "sum32-seq", ot, replay=False)
        assert first[0] == again[0]

    @pytest.mark.parametrize("ot", ["simplest", "extension"])
    @pytest.mark.parametrize("name", sorted(_registry()))
    def test_replay_frames_are_the_garblers(self, monkeypatch, name, ot):
        fresh = self._session(monkeypatch, name, ot, replay=False)
        replayed = self._session(monkeypatch, name, ot, replay=True)
        for role in ("garbler", "evaluator"):
            assert replayed[0][role] == fresh[0][role], role
        local = self._case(name)[3]
        for _, outputs, stats, tables_sent in (fresh, replayed):
            assert outputs == list(local.outputs)
            assert stats == local.stats
            assert tables_sent == local.stats.garbled_nonxor
