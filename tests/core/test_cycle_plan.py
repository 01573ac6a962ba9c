"""Differential equivalence of the compiled cycle-plan engine.

The contract of :class:`repro.core.plan.CompiledSkipGateEngine` is
bit-identity with the reference engine: same outputs, same RunStats
(hence identical per-category gate counts and garbled non-XOR
totals).  These tests sweep that contract over every bench-circuit
module and the ARM machine; the two builders' residual traces are
held equal in ``tests/core/test_trace.py``, and a faulted session
(which checkpoints a trace replayer, never an engine) resumes
bit-identically to an unfaulted one.
"""

from __future__ import annotations

import ast
import collections
import dis
import pathlib

import pytest

from repro import bench_circuits as BC
from repro.arm import GarbledMachine
from repro.circuit.bits import int_to_bits, pack_words
from repro.circuit.netlist import PUBLIC
from repro.core import CountingBackend, SkipGateEngine, make_engine
from repro.core import trace as T
from repro.core.plan import CompiledSkipGateEngine, compile_plan, warm_plan
from repro.obs import ListSink, Obs, timing_summary
from tests.helpers import replay_trace

# (name, builder) — one entry per bench_circuits module family.
CIRCUITS = [
    ("sum32-seq", lambda: BC.sum_sequential(32)),
    ("sum32-comb", lambda: BC.sum_combinational(32)),
    ("compare32-seq", lambda: BC.compare_sequential(32)),
    ("hamming32-seq", lambda: BC.hamming_sequential(32)),
    ("hamming32-tree", lambda: BC.hamming_tree(32)),
    ("mult8-seq", lambda: BC.mult_sequential(8)),
    ("matrix3x3", lambda: BC.matrix_mult_sequential(3)),
    ("sha3-256", lambda: BC.sha3_256_sequential(512)),
    ("aes-128", lambda: BC.aes128_sequential()),
    ("cordic", lambda: BC.cordic_sequential()),
]

LDR_PROG = """
        MOV r0, #0x1000
        LDR r1, [r0, #0]
        MOV r0, #0x2000
        LDR r2, [r0, #0]
        MOV r3, #0x3000
loop:   ADD r1, r1, r2
        EOR r2, r2, r1
        SUB r1, r1, #1
        STR r1, [r3, #0]
        B loop
"""


# Every ARM path a compiled fast path declines: a secret-address LDR
# and STR (one secret address bit in the data bank), a secret-flag
# conditional STR (secret write enable), secret operands in the adder.
FALLBACK_PROG = """
        MOV r0, #0x1000
        LDR r1, [r0, #0]
        MOV r0, #0x2000
        LDR r2, [r0, #0]
        MOV r3, #0x4000
        STR r2, [r3, #4]
        AND r4, r1, #4
        ADD r4, r4, r3
        LDR r5, [r4, #0]
        STR r1, [r4, #0]
        CMP r1, r2
        MOV r6, #0x3000
        STRNE r5, [r6, #0]
        LDR r7, [r3, #4]
        STR r7, [r6, #4]
        HALT
"""


def _engines(net):
    ref = SkipGateEngine(net, CountingBackend())
    cmp_ = CompiledSkipGateEngine(net, CountingBackend())
    return ref, cmp_


def _run(eng, net, cycles):
    pub = [0] * len(net.inputs[PUBLIC])
    for i in range(cycles):
        eng.step(pub, final=(i == cycles - 1))
    return eng


class TestBenchCircuitDifferential:
    @pytest.mark.parametrize("name,build", CIRCUITS, ids=[n for n, _ in CIRCUITS])
    def test_outputs_and_stats_bit_identical(self, name, build):
        net, cycles = build()
        ref, cmp_ = _engines(net)
        pub = [0] * len(net.inputs[PUBLIC])
        for i in range(cycles):
            final = i == cycles - 1
            cs_ref = ref.step(pub, final=final)
            cs_cmp = cmp_.step(pub, final=final)
            # Per-cycle category counts, not just run totals.
            assert cs_ref == cs_cmp, f"{name}: cycle {i} stats diverge"
        assert ref.output_states() == cmp_.output_states()
        assert ref.stats == cmp_.stats
        assert ref.stats.garbled_nonxor == cmp_.stats.garbled_nonxor

    def test_plan_is_cached_per_netlist(self):
        net, _ = BC.sum_sequential(8)
        assert compile_plan(net) is compile_plan(net)

    def test_make_engine_dispatch(self):
        net, _ = BC.sum_sequential(8)
        assert isinstance(make_engine(net), CompiledSkipGateEngine)
        ref = make_engine(net, engine="reference")
        assert isinstance(ref, SkipGateEngine)
        assert not isinstance(ref, CompiledSkipGateEngine)
        assert ref.engine_name == "reference"
        assert make_engine(net).engine_name == "compiled"
        with pytest.raises(ValueError):
            make_engine(net, engine="turbo")


def _small_machine(prog=LDR_PROG):
    return GarbledMachine(prog, alice_words=1, bob_words=1,
                          output_words=2, data_words=8, imem_words=16)


def _machine_engine(cls, backend=None, prog=LDR_PROG):
    m = _small_machine(prog)
    imem = m.program + [0] * (m.config.imem_words - len(m.program))
    return cls(m.net, backend or CountingBackend(),
               public_init=pack_words(imem, 32))


def _machine_traces(prog, alice, bob, cycles=None):
    """A fresh machine's local run plus both builders' traces of it
    (built here, not fetched: the cache is emptied first), each
    replayed in the clear: ``(run, {engine: (outputs, stats)})``."""
    m = _small_machine(prog)
    T._TRACES.pop(m.net, None)
    run = m.run(alice=[alice], bob=[bob], cycles=cycles)
    imem = m.program + [0] * (m.config.imem_words - len(m.program))
    replays = {}
    for engine in ("compiled", "reference"):
        trace = T.residual_trace(m.net, run.cycles, (), pack_words(imem, 32),
                                 engine=engine)
        replays[engine] = replay_trace(
            trace, m.net, run.cycles, alice_init=pack_words([alice], 32),
            bob_init=pack_words([bob], 32))
    return run, replays


class TestArmDifferential:
    def test_machine_run_bit_identical(self):
        run, replays = _machine_traces(LDR_PROG, 5, 9, cycles=40)
        for outputs, stats in replays.values():
            assert outputs == run.outputs
            assert stats == run.stats


@pytest.fixture
def fallbacks_taken(monkeypatch):
    """Counts, per port class name, the compiled engine's trips through
    the port's own ``engine_step`` (the path a fast path declined)."""
    taken = collections.Counter()
    make = CompiledSkipGateEngine._make_fallback

    def counting(self, port):
        inner = make(self, port)

        def fallback():
            taken[type(port).__name__] += 1
            inner()

        return fallback

    monkeypatch.setattr(CompiledSkipGateEngine, "_make_fallback", counting)
    return taken


class TestFallbackDifferential:
    """The ports' own ``engine_step`` over each engine's MacroContext."""

    CYCLES = 16
    PORT_KINDS = ("MemReadPort", "MemWritePort", "LazyUnitPort")

    def test_every_cycle_bit_identical_and_fallbacks_taken(
            self, fallbacks_taken):
        ref = _machine_engine(SkipGateEngine, prog=FALLBACK_PROG)
        cmp_ = _machine_engine(CompiledSkipGateEngine, prog=FALLBACK_PROG)
        for i in range(self.CYCLES):
            final = i == self.CYCLES - 1
            assert ref.step(final=final) == cmp_.step(final=final), (
                f"cycle {i} stats diverge")
        assert ref.output_states() == cmp_.output_states()
        assert ref.stats == cmp_.stats
        assert ref.stats.garbled_nonxor > 0
        # The case must keep covering what it claims to cover.
        for kind in self.PORT_KINDS:
            assert fallbacks_taken[kind] >= 1, (kind, fallbacks_taken)

    @pytest.mark.parametrize("alice,bob", [(5, 9), (2, 9), (7, 7)])
    def test_machine_matches_the_emulator_on_both_engines(
            self, alice, bob, fallbacks_taken):
        # run() checks every output bit against the reference emulator.
        run, replays = _machine_traces(FALLBACK_PROG, alice, bob)
        assert run.cycles == self.CYCLES
        for outputs, stats in replays.values():
            assert outputs == run.outputs
            assert stats == run.stats
        assert all(fallbacks_taken[kind] for kind in self.PORT_KINDS)


class TestOneDoorOneSkeleton:
    """Structure guards: what this layer deleted must not grow back."""

    def test_ports_reach_an_engine_only_through_macro_context(self):
        import repro.circuit

        root = pathlib.Path(repro.circuit.__file__).parent
        modules = sorted(root.rglob("*.py"))
        assert modules
        for path in modules:
            reaches = [
                node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "_eng"
            ]
            assert not reaches, f"{path.name} reaches around MacroContext"

    def test_no_shim_and_one_cycle_skeleton(self):
        import importlib
        import pkgutil

        import repro.core
        from repro.core import plan

        assert not hasattr(plan, "_ShimEngine")
        assert not hasattr(plan, "_StateProxy")
        steppers, dispatchers = [], []
        for info in pkgutil.iter_modules(repro.core.__path__):
            mod = importlib.import_module(f"repro.core.{info.name}")
            for cls in vars(mod).values():
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                    continue
                if "step" in vars(cls):
                    steppers.append(cls.__qualname__)
                if "_process" in vars(cls):
                    dispatchers.append(cls.__qualname__)
        # One class decides categories and one sweeps a netlist.  The
        # other ``step`` replays a recorded trace: no netlist, no
        # category (tests/core/test_trace.py pins what it may name).
        assert dispatchers == ["SkipGateEngine"]
        assert sorted(steppers) == ["SkipGateEngine", "TraceReplayer"]
        from repro.core.trace import TraceReplayer

        assert not issubclass(TraceReplayer, SkipGateEngine)
        assert not hasattr(TraceReplayer, "_sweep_cycle")


class TestGeneratedSweep:
    """The generated code's shape, and the one loop that drives it."""

    @pytest.mark.parametrize("build", [
        lambda: _small_machine().net,
        lambda: BC.aes128_sequential()[0],
    ], ids=["arm", "aes-128"])
    def test_one_leaf_function_per_nonempty_segment(self, build):
        plan = warm_plan(build())
        assert len(plan.sweep_fn) == len(plan.pairs)
        for seg, (rows, _) in zip(plan.sweep_fn, plan.pairs):
            assert (seg is None) == (len(rows) == 0)
            if seg is None:
                continue
            # A leaf: no global or attribute name to call through, and
            # no call instruction.  A callee of one of these wide
            # frames is what thrashed CPython's data-stack chunks.
            assert seg.__code__.co_names == ()
            assert not [
                i for i in dis.get_instructions(seg)
                if i.opname.startswith("CALL")
            ]

    def test_netlist_over_the_codegen_limit_is_all_interpreted(
            self, monkeypatch):
        from repro.core import plan as plan_mod

        monkeypatch.setattr(plan_mod, "_CODEGEN_GATE_LIMIT", 0)
        net, cycles = BC.sum_sequential(8)
        plan = warm_plan(net)
        assert plan.sweep_fn == [None] * len(plan.pairs)
        ref, cmp_ = _engines(net)
        _run(ref, net, cycles)
        _run(cmp_, net, cycles)
        assert ref.output_states() == cmp_.output_states()
        assert ref.stats == cmp_.stats

    def test_profiled_run_goes_through_the_same_loop(self):
        plain = _small_machine().run(alice=[5], bob=[9], cycles=40)
        assert not plain.timing
        # A local run replays the trace: steps and cycle events, no sweep.
        sink = ListSink()
        profiled = _small_machine().run(alice=[5], bob=[9], cycles=40,
                                        obs=Obs(sink))
        assert profiled.outputs == plain.outputs
        assert profiled.stats == plain.stats
        assert profiled.timing["step"] > 0
        assert "reduce" not in profiled.timing and "macro" not in profiled.timing
        assert len([e for e in sink.events if e["event"] == "cycle"]) == 40
        # The sweeping engines, profiled, run one skeleton.
        cycle_events = {}
        for engine in ("compiled", "reference"):
            sink = ListSink()
            obs = Obs(sink)
            eng = _machine_engine(
                lambda net, backend, **kw: make_engine(
                    net, backend, obs=obs, engine=engine, **kw))
            for i in range(40):
                eng.step(final=(i == 39))
            assert eng.stats == plain.stats
            timing = timing_summary(obs)
            assert timing["step"] > timing["macro"] > 0
            assert timing["reduce"] > 0
            cycle_events[engine] = [
                e for e in sink.events if e["event"] == "cycle"
            ]
        # One skeleton emits them: same count, same keys, same counts.
        timed = {"t", "seconds", "garble_seconds", "reduce_seconds",
                 "macro_seconds"}
        assert len(cycle_events["compiled"]) == 40
        for a, b in zip(cycle_events["compiled"], cycle_events["reference"]):
            assert set(a) == set(b)
            assert ({k: a[k] for k in a if k not in timed}
                    == {k: b[k] for k in b if k not in timed})

    def test_caller_depth_does_not_change_the_run(self):
        def at_depth(depth):
            if depth:
                return at_depth(depth - 1)
            return _small_machine().run(alice=[5], bob=[9], cycles=40)

        base = at_depth(0)
        for depth in (3, 40):
            res = at_depth(depth)
            assert res.outputs == base.outputs
            assert res.stats == base.stats


class TestFaultyResume:
    def test_compiled_engine_resumes_bit_identically_over_faults(self):
        from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
        from repro.net.session import run_resumable_pair

        net, cycles = BC.sum_combinational(32)
        x, y = 0x1234_5678, 0x0F0F_0F0F
        inputs = dict(alice=int_to_bits(x, 32), bob=int_to_bits(y, 32))
        baseline = run_resumable_pair(net, cycles, timeout=1.0, **inputs)

        def wrap(role, attempt, link):
            if role == "garbler" and attempt == 0:
                return FaultyTransport(
                    link, FaultPlan([FaultRule("disconnect", frame_index=5)])
                )
            return link

        a_res, b_res = run_resumable_pair(
            net, cycles, timeout=1.0, wrap=wrap, **inputs)
        assert baseline[0].reconnects + baseline[1].reconnects == 0
        assert a_res.reconnects + b_res.reconnects >= 1
        assert a_res.value == b_res.value == (x + y) & 0xFFFFFFFF
        assert a_res.outputs == baseline[0].outputs
        assert a_res.stats == baseline[0].stats
        assert b_res.stats == baseline[1].stats
