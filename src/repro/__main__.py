"""Command-line interface: compile, run and inspect garbled programs.

Usage::

    python -m repro run program.c --alice 5,7 --bob 9,1
    python -m repro asm program.c              # show compiled assembly
    python -m repro bench sum32 mult32         # registry benchmarks
    python -m repro bench --all
    python -m repro anatomy program.c --alice 5 --bob 9   # cost breakdown
    python -m repro party garbler --circuit sum32 --value 1234 \
        --listen 127.0.0.1:9100            # two-process TCP deployment
    python -m repro router --listen 127.0.0.1:9300 \
        --shard 127.0.0.1:9201 --shard 127.0.0.1:9202   # fleet front

``run`` compiles the C file (or assembles a ``.s`` file), executes it
on the garbled processor with the given private inputs, and prints the
output memory plus the garbling cost — the paper's Figure 4 flow as a
shell command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List


def _parse_words(text: str) -> List[int]:
    if not text:
        return []
    return [int(x, 0) & 0xFFFFFFFF for x in text.split(",")]


def _make_obs(args):
    """Build an Obs from --profile/--trace flags (None when neither)."""
    if not (getattr(args, "profile", False) or getattr(args, "trace", None)):
        return None
    from .obs import JsonlSink, Obs

    sink = JsonlSink(args.trace) if args.trace else None
    return Obs(sink=sink)


def _finish_obs(obs, args) -> None:
    """Close the sink and print the profile report."""
    if obs is None:
        return
    obs.close()
    if args.trace:
        print(f"trace written      : {args.trace}")
    if args.profile:
        from .obs import render_profile

        print()
        print(render_profile(obs))


def _load_program(path: str):
    from .arm.assembler import assemble
    from .cc import compile_c

    with open(path) as fh:
        source = fh.read()
    if path.endswith(".s") or path.endswith(".asm"):
        return source, assemble(source), None
    compiled = compile_c(source)
    return source, compiled.words, compiled.asm


def cmd_run(args) -> int:
    from .arm import GarbledMachine

    _, words, _ = _load_program(args.program)
    alice = _parse_words(args.alice)
    bob = _parse_words(args.bob)
    machine = GarbledMachine(
        words,
        alice_words=max(len(alice), 1),
        bob_words=max(len(bob), 1),
        output_words=args.output_words,
        data_words=args.data_words,
        imem_words=max(32, 1 << (len(words) - 1).bit_length()),
    )
    obs = _make_obs(args)
    result = machine.run(alice=alice, bob=bob, cycles=args.cycles, obs=obs)
    print(f"output memory      : {result.output_words}")
    print(f"cycles garbled     : {result.cycles:,}")
    print(f"garbled non-XOR    : {result.garbled_nonxor:,}")
    print(f"  = {result.garbled_nonxor * 32:,} bytes of garbled tables")
    print(f"w/o SkipGate       : {result.conventional_nonxor:,} non-XOR")
    if result.garbled_nonxor:
        print(f"SkipGate advantage : "
              f"{result.conventional_nonxor / result.garbled_nonxor:,.0f}x")
    print(f"input-independent flow: {result.input_independent_flow}")
    _finish_obs(obs, args)
    return 0


def cmd_asm(args) -> int:
    from .arm.assembler import disassemble_word

    _, words, asm = _load_program(args.program)
    if asm:
        print(asm)
    print(f"; {len(words)} instruction words")
    if args.disassemble:
        for i, w in enumerate(words):
            print(f"{i:4d}: {w:08x}  {disassemble_word(w)}")
    return 0


def cmd_bench(args) -> int:
    from .programs import REGISTRY
    from .reporting.runner import run_processor_benchmark

    names = list(REGISTRY) if args.all else args.names
    if not names:
        print("available benchmarks:", ", ".join(REGISTRY))
        return 0
    obs = _make_obs(args)
    for name in names:
        entry = run_processor_benchmark(name, force=args.force, obs=obs)
        print(
            f"{name:16s} garbled={entry['garbled_nonxor']:>10,} "
            f"cycles={entry['cycles']:>7,} "
            f"seconds={entry['seconds']:>7.2f} "
            f"({entry['paper_key'] or '-'})"
        )
    _finish_obs(obs, args)
    return 0


def cmd_anatomy(args) -> int:
    """Per-cycle cost trace of a program (where the gates go)."""
    from .arm import GarbledMachine
    from .arm.assembler import disassemble_word
    from .circuit.bits import pack_words
    from .core import CountingBackend, make_engine

    _, words, _ = _load_program(args.program)
    alice = _parse_words(args.alice)
    bob = _parse_words(args.bob)
    machine = GarbledMachine(
        words,
        alice_words=max(len(alice), 1),
        bob_words=max(len(bob), 1),
        output_words=args.output_words,
        data_words=args.data_words,
        imem_words=max(32, 1 << (len(words) - 1).bit_length()),
    )
    cycles, _flow = machine.required_cycles(alice, bob)
    imem = machine.program + [0] * (
        machine.config.imem_words - len(machine.program)
    )
    engine = make_engine(
        machine.net, CountingBackend(), public_init=pack_words(imem, 32)
    )
    from .arm.emulator import Emulator

    emu = Emulator(machine.program, machine.config, alice, bob)
    print(f"{'cyc':>4} {'pc':>4}  {'instruction':32s} {'sent':>6} {'local':>6}")
    for i in range(cycles):
        word = emu.imem[emu.pc]
        trace = emu.step()
        cs = engine.step(final=(i == cycles - 1))
        text = disassemble_word(word) if not emu.halted or trace.executed else "(parked)"
        marker = "" if trace.executed else "   ; skipped"
        if cs.tables_sent or args.verbose:
            print(f"{i:>4} {trace.pc:>4}  {text:32s} {cs.tables_sent:>6} "
                  f"{cs.cat_iv_garbled:>6}{marker}")
    print(f"total garbled non-XOR: {engine.stats.garbled_nonxor:,}")
    return 0


def cmd_report(args) -> int:
    """Print the rendered benchmark tables (results/*.md)."""
    import glob
    import os

    from .reporting.tables import RESULTS_DIR

    paths = sorted(glob.glob(os.path.join(RESULTS_DIR, "*.md")))
    if not paths:
        print(
            "no rendered tables yet - run: pytest benchmarks/ --benchmark-only"
        )
        return 1
    for path in paths:
        with open(path) as fh:
            print(fh.read())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="ARM2GC garbled processor toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="garble and evaluate a program")
    p_run.add_argument("program", help="C source (.c) or assembly (.s)")
    p_run.add_argument("--alice", default="", help="Alice's words, comma separated")
    p_run.add_argument("--bob", default="", help="Bob's words, comma separated")
    p_run.add_argument("--output-words", type=int, default=8)
    p_run.add_argument("--data-words", type=int, default=128)
    p_run.add_argument("--cycles", type=int, default=None,
                       help="explicit cycle count (secret-PC programs)")
    p_run.add_argument("--profile", action="store_true",
                       help="print a per-phase wall-clock breakdown")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="write per-cycle JSON-lines trace events")
    p_run.set_defaults(func=cmd_run)

    p_asm = sub.add_parser("asm", help="show compiled assembly")
    p_asm.add_argument("program")
    p_asm.add_argument("--disassemble", action="store_true")
    p_asm.set_defaults(func=cmd_asm)

    p_bench = sub.add_parser("bench", help="run registry benchmarks")
    p_bench.add_argument("names", nargs="*")
    p_bench.add_argument("--all", action="store_true")
    p_bench.add_argument("--force", action="store_true",
                         help="ignore the result cache")
    p_bench.add_argument("--profile", action="store_true",
                         help="re-measure with instrumentation and print "
                              "a per-phase wall-clock breakdown")
    p_bench.add_argument("--trace", metavar="PATH", default=None,
                         help="write per-cycle JSON-lines trace events")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("anatomy", help="per-cycle garbling cost trace")
    p_an.add_argument("program")
    p_an.add_argument("--alice", default="")
    p_an.add_argument("--bob", default="")
    p_an.add_argument("--output-words", type=int, default=8)
    p_an.add_argument("--data-words", type=int, default=128)
    p_an.add_argument("--verbose", action="store_true",
                      help="print zero-cost cycles too")
    p_an.set_defaults(func=cmd_anatomy)

    p_rep = sub.add_parser("report", help="print the rendered paper tables")
    p_rep.set_defaults(func=cmd_report)

    from .net.cli import add_party_parser
    from .serve.cli import (
        add_chaos_parser,
        add_loadgen_parser,
        add_router_parser,
        add_serve_parser,
    )

    add_party_parser(sub)
    add_serve_parser(sub)
    add_router_parser(sub)
    add_loadgen_parser(sub)
    add_chaos_parser(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
