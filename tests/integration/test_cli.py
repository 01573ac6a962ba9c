"""Tests for the ``python -m repro`` command-line interface."""

import os

import pytest

from repro.__main__ import main


@pytest.fixture()
def add_c(tmp_path):
    path = tmp_path / "add.c"
    path.write_text(
        "void gc_main(const int *a, const int *b, int *c) {"
        " c[0] = a[0] + b[0]; }"
    )
    return str(path)


@pytest.fixture()
def add_s(tmp_path):
    path = tmp_path / "add.s"
    path.write_text("""
        MOV r0, #0x1000
        LDR r1, [r0, #0]
        MOV r0, #0x2000
        LDR r2, [r0, #0]
        ADD r3, r1, r2
        MOV r0, #0x3000
        STR r3, [r0, #0]
        HALT
    """)
    return str(path)


class TestRun:
    def test_run_c_program(self, add_c, capsys):
        assert main(["run", add_c, "--alice", "40", "--bob", "2"]) == 0
        out = capsys.readouterr().out
        assert "output memory      : [42" in out
        assert "garbled non-XOR    : 31" in out

    def test_run_asm_program(self, add_s, capsys):
        assert main(["run", add_s, "--alice", "7", "--bob", "8"]) == 0
        out = capsys.readouterr().out
        assert "[15" in out

    def test_hex_inputs(self, add_c, capsys):
        assert main(["run", add_c, "--alice", "0x10", "--bob", "0x20"]) == 0
        assert "[48" in capsys.readouterr().out


class TestAsm:
    def test_shows_assembly(self, add_c, capsys):
        assert main(["asm", add_c]) == 0
        out = capsys.readouterr().out
        assert "gc_main:" in out
        assert "instruction words" in out

    def test_disassemble(self, add_c, capsys):
        assert main(["asm", add_c, "--disassemble"]) == 0
        out = capsys.readouterr().out
        assert "ADD r" in out


class TestBenchAndAnatomy:
    def test_bench_lists_available(self, capsys):
        assert main(["bench"]) == 0
        assert "sum32" in capsys.readouterr().out

    def test_anatomy_trace(self, add_c, capsys):
        assert main(
            ["anatomy", add_c, "--alice", "1", "--bob", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "total garbled non-XOR: 31" in out

    def test_anatomy_reads_the_cached_residual_trace(self, add_c, capsys):
        from repro.arm import GarbledMachine
        from repro.cc import compile_c
        from repro.circuit.bits import pack_words
        from repro.core import trace as T

        assert main(["anatomy", add_c, "--alice", "1", "--bob", "2"]) == 0
        capsys.readouterr()
        with open(add_c) as fh:
            words = compile_c(fh.read()).words
        # The layout ``repro anatomy`` builds by default for one word
        # per party.
        machine = GarbledMachine(
            words, alice_words=1, bob_words=1, output_words=8, data_words=128,
            imem_words=max(32, 1 << (len(words) - 1).bit_length()))
        cycles, _ = machine.required_cycles([1], [2])
        imem = machine.program + [0] * (machine.config.imem_words - len(words))
        builds = T.BUILDS
        trace = T.residual_trace(machine.net, cycles, (), pack_words(imem, 32))
        assert T.BUILDS == builds, "anatomy swept on its own, not through the trace"
        assert trace.stats.garbled_nonxor == 31
