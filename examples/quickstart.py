#!/usr/bin/env python3
"""Quickstart: write C, compile, garble, evaluate (Figure 4 end to end).

Alice and Bob each hold a private 32-bit number.  They want the sum
without revealing their inputs.  The function is ordinary C; the
toolchain compiles it for the garbled ARM-style processor; the binary
becomes the public input p; the SkipGate engine garbles the processor
— and because only the addition touches private data, exactly 31
non-XOR gates are garbled (the paper's Sum 32 result).

The script runs the computation twice through the one front door,
``repro.api.run``:
1. local mode — the parties' residual trace replayed in the clear,
   checked against the reference emulator (the benchmarks' cost count);
2. crypto mode — the *real* two-party protocol (half-gate garbling,
   oblivious transfers, byte-counted channel) on the same program,
   with the two parties in separate threads.

Run:  python examples/quickstart.py
"""

import repro.api
from repro.cc import compile_c

C_SOURCE = """
void gc_main(const int *a, const int *b, int *c) {
    c[0] = a[0] + b[0];
}
"""


def main() -> None:
    alice_secret = 1_000_000
    bob_secret = 2_345_678

    print("=== ARM2GC quickstart ===")
    print("C source:")
    print(C_SOURCE)

    program = compile_c(C_SOURCE)
    print("Compiled ARM assembly (the public input p):")
    print(program.asm)

    inputs = {"alice": [alice_secret], "bob": [bob_secret]}
    layout = dict(alice_words=1, bob_words=1, output_words=1,
                  data_words=8, imem_words=32)

    # --- local mode -------------------------------------------------------
    result = repro.api.run(program.words, inputs, machine_config=layout)
    print(f"local mode: c[0] = {result.output_words[0]:,}")
    print(f"  clock cycles garbled : {result.cycles}")
    print(f"  garbled non-XOR gates: {result.garbled_nonxor} "
          "(paper Table 2: Sum 32 = 31)")
    print(f"  without SkipGate     : {result.conventional_nonxor:,} "
          "(every processor gate, every cycle)")
    assert result.output_words[0] == alice_secret + bob_secret
    assert result.garbled_nonxor == 31

    # --- crypto mode: same program, one keyword ---------------------------
    proto = repro.api.run(program.words, inputs, mode="protocol",
                          machine_config=layout)
    output = proto.value & 0xFFFFFFFF
    print(f"crypto mode: c[0] = {output:,}")
    print(f"  garbled tables sent  : {proto.tables_sent} "
          f"({proto.tables_sent * 32} bytes of tables)")
    print(f"  Alice sent in total  : {proto.alice_sent_bytes:,} bytes "
          "(tables + her input labels + OT)")
    print(f"  Bob sent in total    : {proto.bob_sent_bytes:,} bytes "
          "(OT + output labels)")
    assert output == alice_secret + bob_secret
    assert proto.tables_sent == result.garbled_nonxor
    print("local mode and the real protocol agree, gate for gate.")


if __name__ == "__main__":
    main()
