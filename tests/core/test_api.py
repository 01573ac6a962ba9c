"""The :mod:`repro.api` facade and the unified result surface.

One front door (`repro.api.run`) for local / protocol / party / serve
modes, `repro.api.connect` for the client half, a shared result base
across all modes, and memoized per-cycle input sources.
"""

from __future__ import annotations

import warnings

import pytest

from repro import api
from repro import bench_circuits as BC
from repro.circuit.bits import int_to_bits
from repro.circuit.netlist import ALICE
from repro.core.protocol import ProtocolResult
from repro.core.results import BaseResult
from repro.core import trace as T
from repro.core.run import RunResult, _evaluate
from repro.core.trace import residual_trace
from tests.helpers import replay_trace

PROG = """
        MOV r0, #0x1000
        LDR r1, [r0, #0]
        MOV r0, #0x2000
        LDR r2, [r0, #0]
        ADD r1, r1, r2
        MOV r0, #0x3000
        STR r1, [r0, #0]
        HALT
"""


class TestRunFacade:
    def test_local_netlist(self):
        net, cycles = BC.sum_combinational(32)
        res = api.run(
            net,
            {"alice": int_to_bits(100, 32), "bob": int_to_bits(23, 32)},
            cycles=cycles,
        )
        assert isinstance(res, RunResult)
        assert res.value == 123
        assert res.garbled_nonxor == res.stats.garbled_nonxor

    def test_local_program(self):
        from repro.arm.machine import MachineResult

        res = api.run(PROG, {"alice": [100], "bob": [23]})
        assert isinstance(res, MachineResult)
        assert res.output_words[0] == 123

    def test_protocol_netlist_matches_local(self):
        net, cycles = BC.sum_combinational(32)
        inputs = {"alice": int_to_bits(7, 32), "bob": int_to_bits(8, 32)}
        local = api.run(net, inputs, cycles=cycles)
        proto = api.run(net, inputs, mode="protocol", cycles=cycles)
        assert isinstance(proto, ProtocolResult)
        assert proto.value == local.value == 15
        assert proto.outputs == local.outputs
        assert proto.stats.garbled_nonxor == local.stats.garbled_nonxor

    def test_protocol_program_matches_local(self):
        local = api.run(PROG, {"alice": [40], "bob": [2]})
        proto = api.run(PROG, {"alice": [40], "bob": [2]}, mode="protocol")
        # The protocol run lowers to the netlist, so outputs are the
        # packed output-memory bits; word 0 carries the sum.
        assert proto.value & 0xFFFFFFFF == local.output_words[0] == 42

    def test_party_mode_both(self):
        net, cycles = BC.sum_combinational(32)
        pair = api.run(
            net,
            {"alice": int_to_bits(5, 32), "bob": int_to_bits(6, 32)},
            mode="party", role="both", cycles=cycles, timeout=1.0,
        )
        a_res, b_res = pair
        assert a_res.value == b_res.value == 11
        assert a_res.stats.garbled_nonxor == b_res.stats.garbled_nonxor

    def test_engine_selection_is_bit_identical(self):
        """Both sweeping engines build the same trace: replayed in the
        clear, they give local mode's outputs and statistics."""
        net, cycles = BC.hamming_sequential(32)
        x, y = 0xF0F0F0F0, 0x12345678
        inputs = {"alice": lambda c: [(x >> c) & 1],
                  "bob": lambda c: [(y >> c) & 1]}
        local = api.run(net, inputs, cycles=cycles)
        for engine in ("compiled", "reference"):
            trace = residual_trace(net, cycles, engine=engine)
            outputs, stats = replay_trace(trace, net, cycles, **inputs)
            assert outputs == local.outputs
            assert stats == local.stats

    def test_profile_populates_timing(self):
        net, cycles = BC.sum_combinational(32)
        res = api.run(net, {"alice": int_to_bits(1, 32),
                            "bob": int_to_bits(2, 32)},
                      cycles=cycles, profile=True)
        assert res.timing is not None
        assert all(isinstance(v, float) for v in res.timing.values())

    def test_rejects_unknown_input_keys(self):
        net, cycles = BC.sum_combinational(32)
        with pytest.raises(TypeError, match="unknown input keys"):
            api.run(net, {"alcie": int_to_bits(1, 32)}, cycles=cycles)

    def test_rejects_unknown_mode_and_engine(self):
        net, cycles = BC.sum_combinational(32)
        with pytest.raises(ValueError, match="unknown mode"):
            api.run(net, mode="remote")
        with pytest.raises(ValueError):
            residual_trace(net, cycles, engine="turbo")

    @pytest.mark.parametrize("mode", ["protocol", "party", "serve"])
    def test_engine_choice_is_local_mode_only(self, mode):
        """No mode runs an engine per call (local mode too replays the
        trace), so no mode takes ``engine=``: only the trace builder
        picks one."""
        net, cycles = BC.sum_combinational(32)
        inputs = {"alice": int_to_bits(1, 32), "bob": int_to_bits(2, 32)}
        for m in ("local", mode):
            with pytest.raises(TypeError, match="engine"):
                api.run(net, inputs, mode=m, engine="reference",
                        cycles=cycles, role="both", listen=("127.0.0.1", 0))

    def test_party_mode_requires_netlist(self):
        with pytest.raises(TypeError, match="netlist"):
            api.run(PROG, {"alice": [1]}, mode="party", role="both")


class TestRemovedAliases:
    def test_legacy_names_are_gone(self):
        """The PR-4 deprecated aliases were removed: the public surface
        is `api.run` / `api.connect` (tests use tests.helpers shims)."""
        import repro.core as core
        import repro.core.protocol as protocol
        import repro.core.run as run_mod

        assert not hasattr(core, "evaluate_with_stats")
        assert not hasattr(run_mod, "evaluate_with_stats")
        assert not hasattr(protocol, "run_protocol")

    def test_helpers_match_api_run(self):
        from tests.helpers import run_local, run_protocol

        net, cycles = BC.sum_combinational(32)
        a, b = int_to_bits(9, 32), int_to_bits(4, 32)
        assert run_local(net, cycles, alice=a, bob=b) == api.run(
            net, {"alice": a, "bob": b}, cycles=cycles
        )
        proto = run_protocol(net, cycles, alice=a, bob=b)
        assert proto.value == 13

    def test_api_path_does_not_warn(self):
        net, cycles = BC.sum_combinational(32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run(net, {"alice": int_to_bits(1, 32),
                          "bob": int_to_bits(1, 32)}, cycles=cycles)


class TestResultSurface:
    def test_all_results_share_the_base(self):
        from repro.arm.machine import MachineResult
        from repro.net.session import SessionResult

        for cls in (RunResult, ProtocolResult, MachineResult):
            assert issubclass(cls, BaseResult)
        # SessionResult is transport-flavoured but exposes the same
        # core names so mode="party" callers read results uniformly.
        for name in ("outputs", "value", "stats"):
            assert name in SessionResult.__dataclass_fields__

    def test_base_surface_populated_everywhere(self):
        net, cycles = BC.sum_combinational(32)
        inputs = {"alice": int_to_bits(2, 32), "bob": int_to_bits(3, 32)}
        for mode in ("local", "protocol"):
            res = api.run(net, inputs, mode=mode, cycles=cycles)
            assert res.value == 5
            assert res.outputs[:4] == [1, 0, 1, 0]
            assert res.garbled_nonxor == res.stats.garbled_nonxor
            assert res.timing is None


class TestMemoizedSources:
    def test_callable_source_invoked_once_per_cycle(self):
        net, cycles = BC.sum_sequential(32)
        width = len(net.inputs[ALICE])
        calls = []

        def alice(cycle):
            calls.append(cycle)
            return [1] * width

        res = _evaluate(net, cycles, alice=alice,
                        bob=lambda c: [0] * width)
        # Both the replay and the reference simulator consume the
        # source, but each cycle's row is computed exactly once.
        assert calls == list(range(cycles))
        assert res.value == res.value  # result is well-formed


def _inverted_pair():
    """``out = AND(a ^ y, ~a ^ y) ^ y``: the AND sees one label with
    opposite flips (category iii), which SkipGate resolves to public 0."""
    from repro.circuit import CircuitBuilder

    b = CircuitBuilder()
    a, y = b.alice_input(1)[0], b.bob_input(1)[0]
    pair = b.and_(b.xor_(a, y), b.xor_(b.not_(a), y))
    b.set_outputs([b.xor_(pair, y)])
    return b.build()


class TestLocalReplaysTheTrace:
    """``mode="local"`` is the parties' residual trace, replayed in the
    clear and checked on every output bit."""

    @pytest.mark.parametrize("a,y", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_a_wrong_category_iii_decision_raises(self, monkeypatch, a, y):
        from repro.circuit import gates as G

        assert api.run(_inverted_pair(), {"alice": [a], "bob": [y]}).outputs == [y]
        real = G.restrict_inverted

        def flipped(tt):
            r = real(tt)
            return G.Restriction(G.CONST, r.value ^ 1) if r.kind == G.CONST else r

        monkeypatch.setattr(G, "restrict_inverted", flipped)
        with pytest.raises(AssertionError, match="output 0 = "):
            api.run(_inverted_pair(), {"alice": [a], "bob": [y]})

    def test_local_mode_builds_the_trace_the_parties_replay(self):
        net, cycles = BC.hamming_sequential(8)
        inputs = {"alice": lambda c: [(0x5A >> c) & 1],
                  "bob": lambda c: [(0x0F >> c) & 1]}
        builds = T.BUILDS
        local = api.run(net, inputs, cycles=cycles)
        assert T.BUILDS == builds + 1
        proto = api.run(net, inputs, mode="protocol", cycles=cycles)
        assert T.BUILDS == builds + 1
        assert proto.outputs == local.outputs
        assert proto.stats == local.stats

    @pytest.mark.parametrize("cycles,runs", [(None, 2), (20, 1)])
    def test_the_emulator_runs_once_per_input(self, monkeypatch, cycles, runs):
        """A derived cycle count runs the emulator on the inputs and on
        the zero probe, and the first of those is the output oracle; an
        explicit count runs only the oracle."""
        import repro.arm.machine as M

        made = []

        class Counted(M.Emulator):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        machine = M.GarbledMachine(PROG, alice_words=1, bob_words=1)
        monkeypatch.setattr(M, "Emulator", Counted)
        assert machine.run([3], [4], cycles=cycles).output_words[0] == 7
        assert len(made) == runs

    def test_no_local_mode_knob_is_left(self):
        import inspect

        from repro.__main__ import main
        from repro.arm.machine import GarbledMachine

        for fn in (api.run, GarbledMachine.run):
            assert not {"engine", "on_cycle", "check"} & set(
                inspect.signature(fn).parameters), fn
        with pytest.raises(SystemExit) as exc:
            main(["run", "program.c", "--engine", "reference"])
        assert exc.value.code == 2
