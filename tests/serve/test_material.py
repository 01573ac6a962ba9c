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
import hashlib
import random
import secrets
import threading
import time

import pytest

from repro import api
from repro.core.protocol import GarblerParty
from repro.core.trace import residual_trace
from repro.gc.material import (
    MaterialCache,
    MaterialEpochMismatch,
    build_material,
)
from repro.net.cli import _registry
from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.serve import (ServeConfig, make_server, run_loadgen,
                         run_registry_session)
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
        # ...from different deltas: an epoch number is per worker.
        epochs = {r["session"]: (r["worker"], r["epoch"])
                  for r in snap["sessions"]}
        assert epochs["clean"][1] >= 0 and epochs["faulted"][1] >= 0
        # One bundle per session, and the resumed replay is
        # bit-identical to the uninterrupted one.
        assert epochs["clean"] != epochs["faulted"]
        assert faulted.value == clean.value
        assert faulted.value == (SERVER_VALUE + CLIENT_VALUE) & 0xFFFFFFFF
        assert faulted.outputs == clean.outputs
        assert faulted.stats.garbled_nonxor == clean.stats.garbled_nonxor
        # The garbler-side result names the epoch its checkpoints rode.
        server_result = srv.session_result("faulted")
        assert server_result is not None
        assert server_result.material_epoch == epochs["faulted"][1]
        assert server_result.reconnects >= 1

    def test_restore_across_epochs_is_fatal(self):
        """A checkpoint records its material epoch; restoring it into a
        party holding different material must raise, never silently
        stitch two deltas into one session."""
        prog = registry_program(SEQ_CIRCUIT, SERVER_VALUE)
        kw = dict(alice=prog.alice)
        m0 = build_material(prog.net, prog.cycles, epoch=0, **kw)
        m1 = build_material(prog.net, prog.cycles, epoch=1, **kw)

        class _NullChan:
            def send(self, tag, payload):
                pass

        p0 = GarblerParty.from_material(m0)
        p0.attach(_NullChan())
        snap = p0.snapshot()
        p0.restore(snap)  # same epoch: fine

        p1 = GarblerParty.from_material(m1)
        p1.attach(_NullChan())
        with pytest.raises(MaterialEpochMismatch):
            p1.restore(snap)


class TestIdentitiesNeverShareADelta:
    def test_two_identities_get_disjoint_epochs(self):
        """Negative test for the rotation rule: across many sessions of
        two client identities, no delta epoch is ever observed twice —
        by the other identity or by the same one.  Each worker owns its
        caches, so ``(worker, epoch)`` names one delta, on either pool
        kind."""
        for pool in ("thread", "process"):
            with make_server([CIRCUIT], value=SERVER_VALUE, workers=2,
                             pool=pool, material_depth=8, port=0) as srv:
                for i in range(2):
                    for who in ("alpha", "beta"):
                        run_registry_session(
                            srv.host, srv.port, CIRCUIT, CLIENT_VALUE + i,
                            session_id=f"{who}-{i}", client_id=who)
            records = srv.stats_snapshot()["sessions"]

            deltas = [(r["worker"], r["epoch"]) for r in records]
            assert len(deltas) == 4, pool
            assert all(w >= 0 and e >= 0 for w, e in deltas), pool
            assert len(set(deltas)) == len(deltas), (
                f"{pool}: a delta epoch was served to two sessions"
            )
            by_identity = {}
            for r, delta in zip(records, deltas):
                who = r["session"].split("-")[0]
                by_identity.setdefault(who, set()).add(delta)
            assert not (by_identity["alpha"] & by_identity["beta"]), pool


class TestEveryWorkerPrewarms:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_material_epochs_after_ready(self, pool):
        """Each worker fills its own caches before ``ready``, on either
        pool kind, and the parent counts what every worker reported."""
        programs, depth = [CIRCUIT, "mult8"], 3
        with make_server(programs, value=SERVER_VALUE, workers=2,
                         pool=pool, material_depth=depth, port=0) as srv:
            deadline = time.monotonic() + 60.0
            while not all(srv._worker_ready):
                assert time.monotonic() < deadline, "workers never ready"
                time.sleep(0.01)
            epochs = srv.counters()["material_epochs"]
        assert epochs == 2 * len(programs) * depth


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
    """The garbler party frames prebuilt material exactly as material
    it garbles just in time: seeded per-direction transcripts are
    identical, on every registry circuit, through the IKNP extension."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _case(name):
        # The differential's netlists: their traces are already built.
        from tests.core.test_trace import _registry_case

        net, cycles, inputs = _registry_case(name)
        return net, cycles, inputs, api.run(net, inputs, mode="local", cycles=cycles)

    def _session(self, monkeypatch, name, replay):
        from repro.core.protocol import EvaluatorParty, _expand_bits
        from repro.gc import ot as ot_mod
        from repro.gc.channel import channel_pair
        from repro.gc.ot_extension import OTExtensionSender
        from repro.net import codec

        net, cycles, inputs, _ = self._case(name)
        # Seeded base-OT exponents, and short: each base OT costs its
        # sender one pow, and no frame depends on the width.
        rngs = {"garbler": random.Random(1), "evaluator": random.Random(2)}
        monkeypatch.setattr(
            ot_mod, "_draw_exponent",
            lambda: rngs[threading.current_thread().name].getrandbits(48) | 1)

        def sender_ot(chan):
            return OTExtensionSender(chan, rng=random.Random(3))

        if replay:
            material = build_material(net, cycles, alice=inputs["alice"],
                                      rng=random.Random(7))
            garbler = GarblerParty.from_material(material, ot_factory=sender_ot)
        else:
            garbler = GarblerParty(
                net, cycles, _expand_bits(net, "alice", inputs["alice"], (), cycles),
                rng=random.Random(7), ot_factory=sender_ot)
        evaluator = EvaluatorParty(
            net, cycles, _expand_bits(net, "bob", inputs["bob"], (), cycles),
            ot_group="modp512", rng=random.Random(8))
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

    # One session OT is left; the ``ot`` parameters keep the test ids.
    @pytest.mark.parametrize("ot", ["extension"])
    def test_seeded_transcripts_repeat(self, monkeypatch, ot):
        """The random base phase draws nothing the seeds do not reach:
        two seeded runs send the same bytes each way."""
        first = self._session(monkeypatch, "sum32-seq", replay=False)
        again = self._session(monkeypatch, "sum32-seq", replay=False)
        assert first[0] == again[0]

    @pytest.mark.parametrize("ot", ["extension"])
    @pytest.mark.parametrize("name", sorted(_registry()))
    def test_replay_frames_are_the_garblers(self, monkeypatch, name, ot):
        fresh = self._session(monkeypatch, name, replay=False)
        replayed = self._session(monkeypatch, name, replay=True)
        for role in ("garbler", "evaluator"):
            assert replayed[0][role] == fresh[0][role], role
        local = self._case(name)[3]
        for _, outputs, stats, tables_sent in (fresh, replayed):
            assert outputs == list(local.outputs)
            assert stats == local.stats
            assert tables_sent == local.stats.garbled_nonxor

    #: SHA-256 of each direction's transcript — the list of ``(tag,
    #: payload)`` frames under :func:`repro.net.codec.encode` — of a
    #: seeded just-in-time session, ``(garbler, evaluator)``.  Pinned
    #: when material became a backend replay: a change that moved the
    #: fresh and the replayed bytes alike still shows here.
    GOLDEN = {
        ("sum32-seq", "extension"): (
            "0a15f21af820098e9a2dbd033a99b554be8f3bc2fa5668ec86e44dec9c39f18d",
            "30f567d4ce59bdd220999da5c77dada85d40fa5501089171b32808d4d7be0c03"),
        ("mult8-seq", "extension"): (
            "68ef54cbdf50431856f198bd19853554b2a20f3b238a5a73a43d0462e8087055",
            "695dcaaf608a870cbda7bcfefb7c0920198521c294f288bc62775b19038199db"),
        ("hamming32-seq", "extension"): (
            "ce716b5e3ef46a163211a54f3888bdaddfa9bab4acce390db536ad643acd60c7",
            "c72bcce85fb7b019f90406c54adb7602f0ac963dc84e92f1ace426c1adef47f3"),
        ("psi-hash8x16@b4", "extension"): (
            "1af714871a5018cbf22d5b0958e185cefd8d2730224255fbd7bce766235e7387",
            "ea1f5ed3ea5d484e239cff4ff38a696301c3deb03180a58b946e04301b285b02"),
    }

    @pytest.mark.parametrize("name,ot", list(GOLDEN),
                             ids=[f"{name}-{ot}" for name, ot in GOLDEN])
    def test_golden_transcript_digests(self, monkeypatch, name, ot):
        from repro.net import codec

        sent = self._session(monkeypatch, name, replay=False)[0]
        digests = tuple(hashlib.sha256(codec.encode(sent[role])).hexdigest()
                        for role in ("garbler", "evaluator"))
        assert digests == self.GOLDEN[name, ot]


class TestJustInTime:
    def test_material_is_garbled_one_cycle_ahead(self):
        """A just-in-time party has garbled only the init bucket when
        ``attach`` returns, and at each cycle boundary at most one
        bucket beyond the cycles it has sent: Alice garbles cycle
        ``c+1`` while Bob evaluates cycle ``c``."""
        from repro.core.protocol import EvaluatorParty, _expand_bits
        from repro.gc.channel import channel_pair

        entry = _registry()[SEQ_CIRCUIT]
        net, cycles = entry.build()
        garbler = GarblerParty(
            net, cycles,
            _expand_bits(net, "alice", entry.alice_source(SERVER_VALUE, cycles),
                         (), cycles), ot_group="modp512")
        evaluator = EvaluatorParty(
            net, cycles,
            _expand_bits(net, "bob", entry.bob_source(CLIENT_VALUE, cycles),
                         (), cycles), ot_group="modp512")
        g_end, e_end = channel_pair(timeout=60.0)
        box = {}

        def bob():
            evaluator.attach(e_end)
            evaluator.run_cycles()
            box["outputs"] = evaluator.finish()

        thread = threading.Thread(target=bob)
        thread.start()
        material = garbler.material
        garbler.attach(g_end)
        assert len(material.buckets) == 1 and material.recorder is not None
        built = []
        garbler.run_cycles(
            on_boundary=lambda sent: built.append((sent, len(material.buckets) - 1)))
        outputs = garbler.finish()
        thread.join(60.0)
        assert not thread.is_alive()
        assert [sent for sent, _ in built] == list(range(1, cycles + 1))
        assert all(sent <= garbled <= sent + 1 for sent, garbled in built), built
        assert outputs == box["outputs"]
        assert outputs == list(_local_reference(
            SEQ_CIRCUIT, SERVER_VALUE, CLIENT_VALUE).outputs)
        assert material.recorder is None and garbler.material_epoch is None


class TestBuildIsABackendReplay:
    def test_no_party_no_ot_and_no_sweep(self, monkeypatch):
        """An epoch is the garbler's backend replaying the warm trace:
        building one makes no party and no OT sender, and builds no
        trace."""
        from repro.core import protocol, trace
        from repro.gc import ot as ot_mod
        from repro.gc import ot_extension
        from repro.gc.garble import GarbledTable

        prog = registry_program(SEQ_CIRCUIT, SERVER_VALUE)
        trace.residual_trace(prog.net, prog.cycles)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"material build made a {type(self).__name__}")

        for cls in (protocol.GarblerParty, ot_mod.OTSender,
                    ot_extension.OTExtensionSender):
            monkeypatch.setattr(cls, "__init__", refuse)
        builds = trace.BUILDS
        material = build_material(prog.net, prog.cycles, alice=prog.alice)
        assert trace.BUILDS == builds
        assert len(material.buckets) == 1 + prog.cycles
        tables = sum(len(blob) for bucket in material.buckets
                     for tag, blob in bucket if tag == "tables")
        assert tables == GarbledTable.SIZE_BYTES * material.stats.garbled_nonxor


class TestDefaultPathsDrawFromSecrets:
    """With no seed and no ``rng``, delta, labels and the IKNP choice
    bits come from :mod:`secrets`: a default path that drew from a
    ``random.Random`` would garble under a predictable delta.  Each
    case builds the residual trace first, as a worker does before it
    prewarms: the trace is the compile stage, and its label ids are
    public, drawn from a seeded counting backend on purpose."""

    @staticmethod
    def _refuse_random(monkeypatch):
        """Make every ``random.Random`` draw fail; returns the values
        ``secrets.randbits`` handed out (with the permute bit set, as
        a delta has it) and the deltas the garblers drew."""
        from repro.core import protocol

        def refuse(self, k):
            raise AssertionError("a default path drew from random.Random")

        drawn, deltas = set(), []
        real_randbits, real_delta = secrets.randbits, protocol.random_delta

        def spy_randbits(k):
            value = real_randbits(k)
            drawn.update((value, value | 1))
            return value

        def spy_delta(rng=None):
            deltas.append(real_delta(rng))
            return deltas[-1]

        monkeypatch.setattr(random.Random, "getrandbits", refuse)
        monkeypatch.setattr(secrets, "randbits", spy_randbits)
        monkeypatch.setattr(protocol, "random_delta", spy_delta)
        return drawn, deltas

    @staticmethod
    def _run_pair(garbler, evaluator):
        from repro.gc.channel import channel_pair

        ends = channel_pair(timeout=60.0)
        outputs, errors = [None, None], []

        def main(i, party):
            try:
                party.attach(ends[i])
                party.run_cycles()
                outputs[i] = party.finish()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                ends[i].abort()

        thread = threading.Thread(target=main, args=(1, evaluator))
        thread.start()
        main(0, garbler)
        thread.join(60.0)
        assert not errors, errors
        assert outputs[0] == outputs[1]
        return outputs[0]

    @pytest.mark.parametrize("ot", ["extension"])
    def test_protocol_run(self, monkeypatch, ot):
        local = _local_reference(SEQ_CIRCUIT, SERVER_VALUE, CLIENT_VALUE)
        entry = _registry()[SEQ_CIRCUIT]
        net, cycles = entry.build()
        inputs = {"alice": entry.alice_source(SERVER_VALUE, cycles),
                  "bob": entry.bob_source(CLIENT_VALUE, cycles)}
        residual_trace(net, cycles)
        drawn, deltas = self._refuse_random(monkeypatch)
        res = api.run(net, inputs, mode="protocol", cycles=cycles)
        assert list(res.outputs) == list(local.outputs)
        assert len(deltas) == 1 and deltas[0] in drawn

    def test_worker_material_prewarm(self, monkeypatch):
        from repro.serve.worker import build_material_caches

        prog = registry_program(SEQ_CIRCUIT, SERVER_VALUE)
        config = ServeConfig(material_depth=2)
        residual_trace(prog.net, prog.cycles)
        drawn, deltas = self._refuse_random(monkeypatch)
        caches = build_material_caches({SEQ_CIRCUIT: prog}, config)
        assert caches[SEQ_CIRCUIT].prewarm() == 2
        material, hit = caches[SEQ_CIRCUIT].acquire("client")
        assert hit and material.delta in drawn
        assert len(deltas) == 2 and set(deltas) <= drawn

    def test_fresh_garbler_party(self, monkeypatch):
        from repro.core.protocol import EvaluatorParty, _expand_bits
        from repro.gc.ot_extension import OTExtensionReceiver, session_salt
        from repro.serve.worker import make_garbler_party

        local = _local_reference(SEQ_CIRCUIT, SERVER_VALUE, CLIENT_VALUE)
        prog = registry_program(SEQ_CIRCUIT, SERVER_VALUE)
        bob = _registry()[SEQ_CIRCUIT].bob_source(CLIENT_VALUE, prog.cycles)
        config = ServeConfig()
        residual_trace(prog.net, prog.cycles)
        drawn, deltas = self._refuse_random(monkeypatch)
        garbler, hit = make_garbler_party(
            SEQ_CIRCUIT, prog, config, {"session": "fresh"}, materials={})
        assert hit is None
        evaluator = EvaluatorParty(
            prog.net, prog.cycles,
            _expand_bits(prog.net, "bob", bob, (), prog.cycles),
            # What a serve client builds: the session's PRG salt.
            ot_factory=lambda chan: OTExtensionReceiver(
                chan, salt=session_salt("fresh")))
        assert self._run_pair(garbler, evaluator) == list(local.outputs)
        assert deltas == [garbler.material.delta] and deltas[0] in drawn
        # So did the extension sender's secret s, its base-OT choices.
        assert garbler._ot._s in drawn
