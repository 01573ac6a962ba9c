"""The residual trace: differential net and structural guards.

The contract of :mod:`repro.core.trace` is that replaying a recorded
trace against a real crypto backend is indistinguishable, on the wire
and in every statistic, from driving that backend with a sweeping
SkipGate engine (what ``_Party`` did before the trace existed).  The
differential here pins that on every registry circuit and ARM program;
the guards pin what the trace may hold and who may decide categories.
"""

from __future__ import annotations

import ast
import functools
import gc
import pathlib
import random
import sys
import threading
import weakref
from bisect import bisect_right

import pytest

from repro import api
from repro.circuit.bits import pack_words
from repro.core import make_engine
from repro.core import trace as T
from repro.core.backend import Backend
from repro.core.protocol import make_parties
from repro.gc import ot as ot_mod
from repro.gc.channel import channel_pair
from repro.gc.hashing import HASH_STATS
from repro.net import codec
from repro.net.cli import _registry
from repro.programs import REGISTRY

from tests.core.test_cycle_plan import FALLBACK_PROG, LDR_PROG, _small_machine
from tests.integration.test_programs import build_machine

#: Figure 6's secret-PC program (benchmarks/bench_ablation_secret_pc.py).
BRANCHY = """
    MOV r0, #0x1000
    LDR r1, [r0, #0]
    MOV r0, #0x2000
    LDR r2, [r0, #0]
    CMP r1, r2
    BGE else
    ADD r3, r1, r2
    B join
else:
    SUB r3, r1, r2
join:
    MOV r0, #0x3000
    STR r3, [r0, #0]
    HALT
"""

#: ARM programs cheap enough to run whole; the rest of the registry runs
#: its first ``ARM_CYCLE_CAP`` cycles (a truncated run is still a run:
#: the last of them is the pre-announced final cycle).
ARM_WHOLE = {"sum32", "sum1024", "compare32", "hamming32", "hamming160", "mult32"}
ARM_CYCLE_CAP = 120
#: Above this many gates the reference builder (~25 us a gate) is not
#: re-run: only the larger sizes of the PSI families are, and their
#: smaller sizes are below it.
REFERENCE_GATE_LIMIT = 10_000


def _machine_case(machine, alice, bob, cycles=None):
    cfg = machine.config
    if cycles is None:
        cycles = max(machine.required_cycles(alice, bob)[0],
                     machine.required_cycles(bob, alice)[0])
    imem = machine.program + [0] * (cfg.imem_words - len(machine.program))
    return machine.net, cycles, {
        "alice_init": pack_words(alice + [0] * (cfg.alice_words - len(alice)), 32),
        "bob_init": pack_words(bob + [0] * (cfg.bob_words - len(bob)), 32),
        "public_init": pack_words(imem, 32),
    }


@functools.lru_cache(maxsize=None)
def _registry_case(name):
    # One netlist per circuit for the whole module, so later tests on a
    # circuit replay the trace its differential already built.
    entry = _registry()[name]
    net, cycles = entry.build()
    return net, cycles, {"alice": entry.alice_source(1234, cycles),
                         "bob": entry.bob_source(4321, cycles)}


def _program_case(name):
    prog = REGISTRY[name]
    machine = build_machine(prog)
    alice, bob = prog.gen_inputs(random.Random(5))
    whole = name in ARM_WHOLE
    cycles = machine.required_cycles(alice, bob)[0] if whole else ARM_CYCLE_CAP
    return _machine_case(machine, alice, bob, cycles)


CASES = (
    [(n, lambda n=n: _registry_case(n)) for n in _registry()]
    + [(f"arm-{n}", lambda n=n: _program_case(n)) for n in REGISTRY]
    + [("arm-fallback",
        lambda: _machine_case(_small_machine(FALLBACK_PROG), [5], [9])),
       ("arm-secret-pc",
        lambda: _machine_case(_small_machine(BRANCHY), [30], [12]))]
)


class _Run:
    """What one two-party run left behind, per role."""

    def __init__(self):
        self.sent = {"garbler": [], "evaluator": []}
        self.outputs = {}
        self.stats = {}
        self.tables_sent = None
        #: Replays only: each party's final label table, and (when logged)
        #: the labels its garble runs wrote, in order.
        self.labels = {}
        self.garbled = {}
        self.invalid = None
        self.hashes = None


class _PlainOT:
    """Both ends of a stand-in for the input-label OT: deterministic and
    free of public-key work, so the broad differential costs only the
    garbling.  (Real extension OT runs in the rollback cases below and
    everywhere else in the suite.)"""

    def __init__(self, chan):
        self.chan = chan
        self.count = 0

    def send(self, m0, m1):
        self.chan.send("ot", (m0, m1))
        self.count += 1

    def send_many(self, pairs):
        for m0, m1 in pairs:
            self.send(m0, m1)

    def receive(self, choice):
        self.count += 1
        return self.chan.recv("ot")[choice]

    def receive_many(self, choices):
        return [self.receive(c) for c in choices]

    def rebind(self, chan):
        self.chan = chan


def _row(public, cycle):
    return public(cycle) if callable(public) else public


class _RunsFromTrace(Backend):
    """What a sweeping engine cannot tell a crypto backend by itself:
    where each stretch of input labels ends (the unit of one label frame
    run) and, at ``begin_cycle``, which tables the cycle will keep.  The
    adapter reads both from the trace and forwards everything else, so
    an engine that asked for a key out of the trace's order would show
    on the wire."""

    def __init__(self, inner, trace):
        self.inner, self.trace = inner, trace
        self._run_of = {}
        t = trace
        for lo, hi in zip(t.runs, t.runs[1:]):
            if t.op[lo] == T.SECRET:
                run = [t.keys[i] for i in t.x[lo:hi]]
                self._run_of.update((key, (run, j)) for j, key in enumerate(run))

    def secret_label(self, key):
        if key not in self.inner._memo:
            run, j = self._run_of[key]
            self.inner.secret_labels(run[j:])
        return self.inner.secret_label(key)

    def xor(self, la, lb):
        return self.inner.xor(la, lb)

    def garble(self, tt, la, lb, key):
        return self.inner.garble(tt, la, lb, key)

    def begin_cycle(self, cycle, kept_keys=()):
        self.inner.begin_cycle(cycle, self.trace.ends[cycle][0])

    def end_cycle(self, kept_keys, dropped_keys):
        self.inner.end_cycle(kept_keys, dropped_keys)


def _drive_sweep(party, chan, inputs, rollback):
    """``_Party`` as it was before the residual trace: a sweeping engine
    over the real backend, stepped cycle by cycle (told its label runs
    and kept keys by :class:`_RunsFromTrace`)."""
    assert rollback is None  # a sweeping engine keeps no checkpoint
    party.chan = chan
    party.backend = party._make_backend(chan)
    public = inputs.get("public", ())
    trace = T.residual_trace(party.net, party.cycles, public,
                             inputs.get("public_init", ()))
    eng = party.engine = make_engine(
        party.net, _RunsFromTrace(party.backend, trace),
        public_init=inputs.get("public_init", ()))
    while eng.cycle < party.cycles:
        i = eng.cycle
        eng.step(_row(public, i), final=(i == party.cycles - 1))


def _drive_replay(party, chan, inputs, rollback):
    """This commit's ``_Party``: attach builds or fetches the trace."""
    party.attach(chan)
    snap = None

    def boundary(done):
        nonlocal snap, rollback
        if rollback and done == rollback[0] and snap is None:
            snap = party.snapshot()
        if rollback and done == rollback[1]:
            party.restore(snap)
            rollback = None

    party.run_cycles(on_boundary=boundary)


def _replay_logging_garbles(per_row):
    """A replay that logs the labels each garble run writes.  With
    ``per_row`` the runs go through the base-class loop over ``garble``,
    one row at a time: the path the run kernels replaced."""

    def drive(party, chan, inputs, rollback):
        assert rollback is None
        party.attach(chan)
        eng = party.engine
        # The init bucket (replayed by attach) held no garble to divert.
        assert max(eng.trace.op[: eng.trace.bounds[0]], default=0) < T.GARBLE
        run = (functools.partial(Backend.garble_many, party.backend)
               if per_row else eng._garble_many)
        eng.garbled = []

        def logged(tts, keys, srcs_a, srcs_b, dsts, labels):
            run(tts, keys, srcs_a, srcs_b, dsts, labels)
            eng.garbled += [labels[d] for d in dsts]

        eng._garble_many = logged
        party.run_cycles()

    return drive


def _two_party_run(monkeypatch, net, cycles, inputs, drive, *, rollback=None,
                   real_ot=False):
    run = _Run()
    ends = dict(zip(("garbler", "evaluator"), channel_pair(timeout=60.0)))
    parties = dict(zip(("garbler", "evaluator"), make_parties(
        net, cycles, seed=7, **inputs)))
    if real_ot:
        # The base-OT exponents are the one draw `seed` does not reach.
        rngs = {"garbler": random.Random(1), "evaluator": random.Random(2)}
        monkeypatch.setattr(
            ot_mod, "_draw_exponent",
            lambda: rngs[threading.current_thread().name].getrandbits(256) | 1)
    else:
        for party in parties.values():
            party._ot_factory = _PlainOT
    errors = []

    def tap(role):
        end, log = ends[role], run.sent[role]
        send = end.send

        def tapped(tag, payload):
            log.append((tag, codec.encode(payload)))
            send(tag, payload)

        end.send = tapped

    def main(role):
        try:
            party = parties[role]
            drive(party, ends[role], inputs, rollback)
            run.outputs[role] = party.finish()
            run.stats[role] = party.engine.stats
            run.labels[role] = list(getattr(party.engine, "_labels", ()))
            run.garbled[role] = getattr(party.engine, "garbled", None)
        except BaseException as exc:  # noqa: BLE001 - surface in the test
            errors.append(exc)
            ends[role].abort()

    threads = []
    hashes0 = HASH_STATS.calls
    for role in ends:
        tap(role)
        threads.append(threading.Thread(target=main, args=(role,), name=role))
        threads[-1].start()
    for t in threads:
        t.join(120.0)
    if errors:
        raise errors[0]
    assert not any(t.is_alive() for t in threads)
    run.tables_sent = parties["garbler"].backend.tables_sent
    run.invalid = set(parties["evaluator"].backend.invalid_labels)
    run.hashes = HASH_STATS.calls - hashes0
    return run


def _assert_same_run(swept, replayed):
    for role in ("garbler", "evaluator"):
        assert len(swept.sent[role]) == len(replayed.sent[role]), role
        for i, (a, b) in enumerate(zip(swept.sent[role], replayed.sent[role])):
            assert a == b, f"{role} frame {i} ({a[0]!r} vs {b[0]!r}) differs"
        assert swept.outputs[role] == replayed.outputs[role]
        assert swept.stats[role] == replayed.stats[role]
        assert swept.stats[role].per_cycle == replayed.stats[role].per_cycle
    assert swept.tables_sent == replayed.tables_sent
    assert swept.outputs["garbler"] == swept.outputs["evaluator"]


class TestDifferential:
    @pytest.mark.parametrize("name,build", CASES, ids=[n for n, _ in CASES])
    def test_replay_is_the_sweeping_engine_on_the_wire(
            self, monkeypatch, name, build):
        net, cycles, inputs = build()
        swept = _two_party_run(monkeypatch, net, cycles, inputs, _drive_sweep)
        replayed = _two_party_run(monkeypatch, net, cycles, inputs, _drive_replay)
        _assert_same_run(swept, replayed)
        # Both builders record the same trace, column for column.
        public = (inputs.get("public", ()), inputs.get("public_init", ()))
        compiled = T.residual_trace(net, cycles, *public, "compiled")
        assert compiled.stats == swept.stats["garbler"]
        if net.n_gates <= REFERENCE_GATE_LIMIT:
            reference = T.residual_trace(net, cycles, *public, "reference")
            assert compiled is not reference
            assert vars(compiled) == vars(reference)

    @pytest.mark.parametrize("name", ["sum32-seq", "mult8-seq", "arm-fallback"])
    def test_rollback_and_replay_like_a_resumed_session(self, monkeypatch, name):
        net, cycles, inputs = dict(CASES)[name]()
        rollback = (cycles // 4, cycles // 2)
        replayed = _two_party_run(monkeypatch, net, cycles, inputs, _drive_replay,
                                  rollback=rollback, real_ot=True)
        straight = _two_party_run(monkeypatch, net, cycles, inputs, _drive_replay,
                                  real_ot=True)
        assert replayed.outputs == straight.outputs
        assert replayed.outputs["garbler"] == replayed.outputs["evaluator"]
        for role in ("garbler", "evaluator"):
            assert replayed.stats[role] == straight.stats[role]
            assert replayed.stats[role].per_cycle == straight.stats[role].per_cycle
        # The garbler's count rolls back with its backend: redone tables
        # are counted once.
        assert replayed.tables_sent == straight.tables_sent
        # Every redone cycle that keeps a table sent its blob twice (on
        # arm-fallback none does: those cycles send no frame at all).
        trace = T.residual_trace(net, cycles, inputs.get("public", ()),
                                 inputs.get("public_init", ()))
        redone = sum(1 for c in range(*rollback) if len(trace.ends[c][0]))
        assert (len(replayed.sent["garbler"])
                >= len(straight.sent["garbler"]) + redone)

    @pytest.mark.parametrize("name", ["psi-hash8x16", "arm-hamming32"])
    def test_pipelined_extension_ot_is_the_sweeping_engine_on_the_wire(
            self, monkeypatch, name):
        """Real IKNP extension OT: the sweeping engine asks for one input
        label at a time (a round trip each), the replay hands each
        stretch of Bob's labels to one pipelined ``receive_many``; each
        direction still carries the same frames in the same order."""
        net, cycles, inputs = dict(CASES)[name]()
        swept = _two_party_run(monkeypatch, net, cycles, inputs, _drive_sweep,
                               real_ot=True)
        replayed = _two_party_run(monkeypatch, net, cycles, inputs, _drive_replay,
                                  real_ot=True)
        _assert_same_run(swept, replayed)


def _kept_after_filtered_in_a_run(trace):
    """Garble rows evaluated after a row whose table the garbler
    filtered, in the same run (cycle ``c`` closes with ``ends[c]``)."""
    count = 0
    for lo, hi in zip(trace.runs, trace.runs[1:]):
        if trace.op[lo] >= T.GARBLE:
            dropped = set(trace.ends[bisect_right(trace.bounds, lo) - 1][1])
            flags = [trace.x[i] in dropped for i in range(lo, hi)]
            if True in flags:
                count += flags[flags.index(True):].count(False)
    return count


class TestRunKernel:
    """``garble_many`` on the crypto backends (one half-gate kernel call
    per run) against the base-class loop over ``garble``."""

    @pytest.mark.parametrize("name", list(_registry()) + ["arm-fallback"])
    def test_garble_many_is_garble_row_by_row(self, monkeypatch, name):
        net, cycles, inputs = dict(CASES)[name]()
        # No forced thread switches: the process-wide hash counter then
        # loses no update to the two parties' threads.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(60.0)
        try:
            rows, kernel = [
                _two_party_run(monkeypatch, net, cycles, inputs,
                               _replay_logging_garbles(per_row))
                for per_row in (True, False)]
        finally:
            sys.setswitchinterval(interval)
        _assert_same_run(rows, kernel)
        assert rows.labels == kernel.labels
        assert rows.garbled == kernel.garbled
        assert rows.invalid == kernel.invalid
        trace = T.residual_trace(net, cycles, inputs.get("public", ()),
                                 inputs.get("public_init", ()))
        garbles = sum(o >= T.GARBLE for o in trace.op)
        filtered = sum(len(dropped) for _kept, dropped in trace.ends)
        # 4 hashes per garbled table, 2 per evaluated one.
        assert rows.hashes == kernel.hashes == 6 * garbles - 2 * filtered
        assert len(kernel.invalid) == filtered
        if name == "arm-fallback":
            # The evaluator's dummy-label branch runs mid-run, so the
            # rows after it must still get their own gate ids.
            assert _kept_after_filtered_in_a_run(trace) > 0


class TestBuildLeavesNoGarbage:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize("name", ["mult8-seq", "arm-fallback"])
    def test_builder_engine_and_recorder_die_with_the_build(
            self, monkeypatch, engine, name):
        """The builder engine's macro context and handler closures refer
        back to it; the build must not leave that cycle (and the
        recorder's run-sized label map) to the cyclic collector."""
        net, cycles, inputs = dict(CASES)[name]()
        refs = []
        real = T.make_engine

        def spy(net, backend, **kwargs):
            eng = real(net, backend, **kwargs)
            refs.extend((weakref.ref(eng), weakref.ref(backend)))
            return eng

        monkeypatch.setattr(T, "make_engine", spy)
        T._TRACES.pop(net, None)
        gc.collect()
        gc.disable()
        try:
            T.residual_trace(net, cycles, inputs.get("public", ()),
                             inputs.get("public_init", ()), engine)
            assert len(refs) == 2
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestNoSecrets:
    def test_columns_are_typed_arrays_that_cannot_hold_a_label(self):
        net, cycles, _ = _registry_case("hamming32-seq")
        trace = T.residual_trace(net, cycles)
        label = 1 << 127
        for name in ("op", "x", "a", "b", "dst", "bounds"):
            column = getattr(trace, name)
            assert type(column).__name__ == "array", name
            with pytest.raises(OverflowError):
                column.__class__(column.typecode, [label])
        for kept, dropped in trace.ends:
            assert kept.typecode == dropped.typecode == "l"
        # Whatever else it holds is small public ints and key tuples.
        flat = [v for key in trace.keys for v in key]
        flat += [v for s in trace.outputs for v in ((s,) if type(s) is int else s)]
        assert all(type(v) is str or v.bit_length() < 32 for v in flat)

    def test_building_takes_public_arguments_only(self):
        import inspect

        names = set(inspect.signature(T.residual_trace).parameters)
        assert names == {"net", "cycles", "public", "public_init", "engine", "obs"}

    def test_one_trace_serves_sessions_with_different_inputs_and_deltas(self):
        net, cycles, _ = _registry_case("mult8-seq")
        entry = _registry()["mult8-seq"]
        builds = T.BUILDS
        deltas = set()
        for a, b in ((3, 5), (200, 77)):
            inputs = {"alice": entry.alice_source(a, cycles),
                      "bob": entry.bob_source(b, cycles)}
            local = api.run(net, inputs, mode="local", cycles=cycles)
            garbler, evaluator = make_parties(net, cycles, **inputs)
            g_end, e_end = channel_pair(timeout=30.0)
            box = {}

            def bob(party=evaluator, end=e_end):
                party.attach(end)
                party.run_cycles()
                box["out"] = party.finish()

            thread = threading.Thread(target=bob)
            thread.start()
            garbler.attach(g_end)
            garbler.run_cycles()
            out = garbler.finish()
            thread.join(30.0)
            assert not thread.is_alive()
            assert out == box["out"] == list(local.outputs)
            assert garbler.engine.stats == local.stats
            assert garbler.engine.trace is evaluator.engine.trace
            deltas.add(garbler.backend.delta)
        assert len(deltas) == 2
        assert T.BUILDS - builds <= 1


class TestSharedAndBounded:
    def test_eight_threads_replay_one_trace(self):
        net, cycles, inputs = _registry_case("hamming32-seq")
        expected = list(api.run(net, inputs, mode="local", cycles=cycles).outputs)
        T._TRACES.pop(net, None)
        builds = T.BUILDS
        results, errors = [], []

        def session(i):
            try:
                res = api.run(net, inputs, mode="protocol", cycles=cycles,
                              seed=100 + i, timeout=60.0)
                results.append(list(res.outputs))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make a lost update likely, if one can happen
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert results == [expected] * 8
        assert T.BUILDS - builds == 1

    def test_cache_is_bounded_per_netlist(self):
        net, cycles, inputs = _machine_case(_small_machine(FALLBACK_PROG), [5], [9])
        first = None
        for extra in range(T.TRACES_PER_NETLIST + 3):
            public_init = list(inputs["public_init"])
            public_init[-1 - extra] ^= 1  # a different (unreached) imem bit
            trace = T.residual_trace(net, cycles, (), public_init)
            first = first or trace
            assert len(T._TRACES[net]) <= T.TRACES_PER_NETLIST
        assert first not in T._TRACES[net].values()
        # An evicted program still runs: it is simply rebuilt.
        res = api.run(net, inputs, mode="protocol", cycles=cycles)
        local = api.run(net, inputs, mode="local", cycles=cycles)
        assert list(res.outputs) == list(local.outputs)

    def test_label_table_does_not_grow_with_the_run(self):
        machine = _small_machine(LDR_PROG)  # an endless loop on secrets
        net, _, inputs = _machine_case(machine, [5], [9], cycles=1)
        short = T.residual_trace(net, 40, (), inputs["public_init"])
        long = T.residual_trace(net, 80, (), inputs["public_init"])
        assert long.n_labels > short.n_labels
        assert long.n_slots == short.n_slots
        assert len(long.op) > len(short.op)

    def test_hamming160_table_is_far_below_its_label_count(self):
        net, cycles, inputs = _program_case("hamming160")
        trace = T.residual_trace(net, cycles, (), inputs["public_init"])
        assert trace.n_labels == 2316
        assert trace.stats.tables_sent == 315
        assert trace.n_slots < trace.n_labels // 4


class TestTraceDecidesNothing:
    def test_trace_module_imports_no_gate_algebra_and_names_no_decision(self):
        tree = ast.parse(pathlib.Path(T.__file__).read_text())
        imported = [
            (node.module or "") + "." + alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ] + [
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        ]
        assert not [m for m in imported if "gates" in m], imported
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & {"restrict", "_reduce", "_new_record", "_process"}

    def test_session_path_has_no_second_way_to_run_cycles(self):
        from repro.core import protocol

        source = pathlib.Path(protocol.__file__).read_text()
        assert "make_engine(" not in source
