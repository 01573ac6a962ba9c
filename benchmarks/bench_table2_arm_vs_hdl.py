"""Table 2: ARM2GC (C programs on the garbled processor) vs HDL synthesis.

Both columns use SkipGate.  The headline reproduction: nine rows match
the paper exactly (Sum 32, Compare 32/16384, Hamming 32, Mult 32, all
three MatrixMults and AES 128); Hamming's C version beats the HDL circuit by the same
mechanism the paper describes (SkipGate narrows the SWAR adds).

Timed kernel: the garbled processor executing the Sum 32 program
(compile + full SkipGate run).
"""

from repro.reporting.paper import TABLE2
from repro.reporting.tables import publish, render_table

#: (paper row, circuit benchmark, processor benchmark)
ROWS = [
    ("Sum 32", "Sum 32", "sum32"),
    ("Sum 1024", "Sum 1024", "sum1024"),
    ("Compare 32", "Compare 32", "compare32"),
    ("Compare 16384", "Compare 16384", "compare16384"),
    ("Hamming 32", "Hamming 32", "hamming32"),
    ("Hamming 160", "Hamming 160", "hamming160"),
    ("Hamming 512", "Hamming 512", "hamming512"),
    ("Mult 32", "Mult 32", "mult32"),
    ("MatrixMult3x3 32", "MatrixMult3x3 32", "matmult3x3"),
    ("MatrixMult5x5 32", "MatrixMult5x5 32", "matmult5x5"),
    ("MatrixMult8x8 32", "MatrixMult8x8 32", "matmult8x8"),
    ("SHA3 256", "SHA3 256", "sha3"),
    ("AES 128", "AES 128", "aes128"),
]

EXACT_ARM = {"Sum 32", "Compare 32", "Compare 16384", "Mult 32", "Hamming 32",
             "MatrixMult3x3 32", "MatrixMult5x5 32", "MatrixMult8x8 32",
             "AES 128"}


def test_table2_report(circuit_row, processor_row, benchmark):
    rows = []
    for paper_key, circ_name, proc_name in ROWS:
        hdl = circuit_row(circ_name)
        arm = processor_row(proc_name)
        paper_hdl, paper_arm, paper_overhead = TABLE2[paper_key]
        overhead = (
            100.0 * (arm["garbled_nonxor"] - hdl["garbled_nonxor"])
            / hdl["garbled_nonxor"]
        )
        rows.append([
            paper_key,
            hdl["garbled_nonxor"], paper_hdl,
            arm["garbled_nonxor"], paper_arm,
            f"{overhead:+.1f}%", f"{paper_overhead:+.1f}%",
        ])
        assert arm["correct"]
        if paper_key in EXACT_ARM:
            assert arm["garbled_nonxor"] == paper_arm, paper_key
        # Shape: the processor is within a small factor of HDL synthesis
        # everywhere (the paper's central claim).
        assert arm["garbled_nonxor"] <= 3 * max(hdl["garbled_nonxor"], 64), paper_key
        # Hamming: C beats HDL (negative overhead), as in the paper.
        if paper_key.startswith("Hamming"):
            assert arm["garbled_nonxor"] < hdl["garbled_nonxor"]

    publish("table2", render_table(
        "Table 2 - ARM2GC (C) vs HDL synthesis, both with SkipGate",
        ["Function", "HDL (ours)", "HDL (paper)", "ARM2GC (ours)",
         "ARM2GC (paper)", "overhead (ours)", "overhead (paper)"],
        rows,
        notes=[
            "Nine ARM2GC rows match the paper exactly: 31 / 32 / "
            "16,384 / 57 / 993 / 27,369 / 127,225 / 522,304 / 6,400.",
            "Sum 1024 measures 1,024 vs the paper's 1,023: the final "
            "ADC's carry-out feeds the C flag, which only a cross-cycle"
            " liveness pass could drop.",
        ],
    ))

    from repro.arm import GarbledMachine
    from repro.cc import compile_c
    from repro.programs import REGISTRY

    prog = REGISTRY["sum32"]
    machine = GarbledMachine(
        compile_c(prog.source).words,
        alice_words=1, bob_words=1, output_words=1, data_words=8,
        imem_words=32,
    )

    def kernel():
        return machine.run(alice=[123], bob=[456]).garbled_nonxor

    assert benchmark(kernel) == 31
