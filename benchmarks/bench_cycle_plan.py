"""Per-cycle speed of the compiled cycle-plan engine vs the reference.

The tentpole claim: on a Table-4-class ARM workload (the ADD-loop
kernel, all-public datapath — pure SkipGate sweep overhead) the
compiled engine is at least 3x faster per cycle than the interpreted
reference, with bit-identical outputs and garbled non-XOR counts.  A
second workload (the LDR kernel, whose data words are secret) makes
the non-XOR count comparison non-trivial.

Runs under pytest (``pytest benchmarks/bench_cycle_plan.py``) or
standalone (``python benchmarks/bench_cycle_plan.py``).  Writes a JSON
artifact (for the CI perf-smoke job) to ``results/cycle_plan_perf.json``
or ``$CYCLE_PLAN_JSON``.  The assertion threshold defaults to 2x so
noisy shared CI runners don't flap; the measured ratio on a quiet
machine is >= 3x and is recorded in the artifact.
"""

from __future__ import annotations

import json
import os
import time

from repro.arm import GarbledMachine
from repro.circuit.bits import pack_words
from repro.core import CountingBackend, make_engine

CYCLES = 300
REPEATS = 5
MIN_SPEEDUP = float(os.environ.get("CYCLE_PLAN_MIN_SPEEDUP", "2.0"))

ADD_LOOP = "loop: ADD r1, r1, r2\n B loop"
LDR_LOOP = """
        MOV r0, #0x1000
        LDR r1, [r0, #0]
        MOV r0, #0x2000
        LDR r2, [r0, #0]
        MOV r3, #0x3000
loop:   ADD r1, r1, r2
        EOR r2, r2, r1
        STR r1, [r3, #0]
        B loop
"""

WORKLOADS = [
    ("arm-add-loop", ADD_LOOP),  # all-public datapath: sweep overhead
    ("arm-ldr-secret", LDR_LOOP),  # secret data words: garbling is live
]


def _machine(asm: str) -> GarbledMachine:
    return GarbledMachine(
        asm,
        alice_words=1, bob_words=1, output_words=1, data_words=8,
        imem_words=16,
    )


def _time_engine(asm: str, kind: str) -> dict:
    """Best-of-REPEATS per-cycle wall time for one engine kind."""
    machine = _machine(asm)
    imem = machine.program + [0] * (
        machine.config.imem_words - len(machine.program)
    )
    best = float("inf")
    final = None
    for _ in range(REPEATS):
        engine = make_engine(
            machine.net, CountingBackend(),
            public_init=pack_words(imem, 32), engine=kind,
        )
        t0 = time.perf_counter()
        for i in range(CYCLES):
            engine.step(final=(i == CYCLES - 1))
        best = min(best, (time.perf_counter() - t0) / CYCLES)
        final = engine
    return {
        "per_cycle_ms": best * 1e3,
        "garbled_nonxor": final.stats.garbled_nonxor,
        "outputs": final.output_states(),
        "stats": final.stats,
    }


def measure() -> dict:
    report = {"cycles": CYCLES, "repeats": REPEATS,
              "min_speedup_gate": MIN_SPEEDUP, "workloads": {}}
    for name, asm in WORKLOADS:
        ref = _time_engine(asm, "reference")
        cmp_ = _time_engine(asm, "compiled")

        # Bit-identity first: a fast wrong engine is worthless.
        assert cmp_["outputs"] == ref["outputs"], f"{name}: outputs diverge"
        assert cmp_["stats"] == ref["stats"], f"{name}: statistics diverge"
        assert cmp_["garbled_nonxor"] == ref["garbled_nonxor"]

        report["workloads"][name] = {
            "reference_ms_per_cycle": round(ref["per_cycle_ms"], 4),
            "compiled_ms_per_cycle": round(cmp_["per_cycle_ms"], 4),
            "speedup": round(ref["per_cycle_ms"] / cmp_["per_cycle_ms"], 2),
            "garbled_nonxor": ref["garbled_nonxor"],
        }
    # The headline gate is the all-public sweep workload.
    report["speedup"] = report["workloads"]["arm-add-loop"]["speedup"]
    return report


def _write_artifact(report: dict) -> str:
    path = os.environ.get("CYCLE_PLAN_JSON")
    if path is None:
        results = os.path.join(os.path.dirname(__file__), "..", "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "cycle_plan_perf.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def test_compiled_engine_speedup():
    report = measure()
    path = _write_artifact(report)
    # The protected quantity is the compiled engine's absolute ms/cycle;
    # the ratio's denominator is the reference oracle, which is allowed
    # to get slower.
    for name, row in report["workloads"].items():
        print(
            f"\n{name}: compiled {row['compiled_ms_per_cycle']} ms/cycle, "
            f"reference {row['reference_ms_per_cycle']} ms/cycle "
            f"({row['speedup']:.2f}x, "
            f"garbled non-XOR {row['garbled_nonxor']:,})"
        )
    print(f"artifact -> {path}")
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"compiled engine only {report['speedup']:.2f}x faster than the "
        f"reference (gate: {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_compiled_engine_speedup()
