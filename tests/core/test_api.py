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
from repro.core.run import RunResult, _evaluate

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
        net, cycles = BC.hamming_sequential(32)
        x, y = 0xF0F0F0F0, 0x12345678
        inputs = {"alice": lambda c: [(x >> c) & 1],
                  "bob": lambda c: [(y >> c) & 1]}
        compiled = api.run(net, inputs, cycles=cycles, engine="compiled")
        reference = api.run(net, inputs, cycles=cycles, engine="reference")
        assert compiled.outputs == reference.outputs
        assert compiled.stats == reference.stats

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
            api.run(net, engine="turbo", cycles=cycles)

    @pytest.mark.parametrize("mode", ["protocol", "party", "serve"])
    def test_engine_choice_is_local_mode_only(self, mode):
        """Only count mode runs an engine; a session replays the trace
        the compiled builder recorded, so choosing another is an error
        raised before anything runs."""
        net, cycles = BC.sum_combinational(32)
        inputs = {"alice": int_to_bits(1, 32), "bob": int_to_bits(2, 32)}
        with pytest.raises(ValueError, match=f"mode='{mode}'"):
            api.run(net, inputs, mode=mode, engine="reference",
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
        # Both the engine and the reference simulator consume the
        # source, but each cycle's row is computed exactly once.
        assert calls == list(range(cycles))
        assert res.value == res.value  # result is well-formed
