"""Benchmark runner with an on-disk result cache.

Running the full garbled processor on the larger benchmark programs
(SHA3, AES, the sorts) takes tens of seconds each in pure Python, so
measured results are cached in ``.bench_cache.json`` at the repository
root, keyed by benchmark name and a fingerprint of the program binary.
Delete the file (or pass ``force=True``) to re-measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, Optional

from ..obs import Obs, timing_summary

CACHE_FILE = os.environ.get("REPRO_BENCH_CACHE", ".bench_cache.json")

#: Conventional (no-SkipGate) per-cycle non-XOR count of the reference
#: processor configuration.  The paper garbles one fixed synthesized
#: Amber core (126,755 non-XOR/cycle) for every benchmark; our
#: reference build (4096-word imem, 512-word input banks, 512-word
#: data memory) comes to 239,505 non-XOR/cycle.  Tables 4-5 use this
#: as the "w/o SkipGate" basis so small programs are not unfairly
#: paired with small memories.
REFERENCE_CPU_NONXOR_PER_CYCLE = 239_505


def _load_cache() -> Dict[str, dict]:
    try:
        with open(CACHE_FILE) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_cache(cache: Dict[str, dict]) -> None:
    tmp = CACHE_FILE + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    os.replace(tmp, CACHE_FILE)


def run_processor_benchmark(
    name: str, seed: int = 42, force: bool = False, obs=None
) -> dict:
    """Run one registry program on the garbled processor (cached).

    Returns a dict with ``garbled_nonxor``, ``conventional_nonxor``,
    ``cycles``, ``correct`` and timing.  The run cross-checks the
    output memory against the program's oracle and the reference
    emulator.  Passing an enabled ``obs`` instruments the run (the
    trace build on a cold cache, per-phase timing, per-cycle trace
    events) and adds a ``timing``
    breakdown to the entry; it also bypasses the cache, since a cached
    entry carries no fresh measurements.
    """
    from ..arm import GarbledMachine
    from ..arm.assembler import assemble
    from ..cc import compile_c
    from ..programs import REGISTRY

    prog = REGISTRY[name]
    words = (
        compile_c(prog.source).words if prog.kind == "c"
        else assemble(prog.source)
    )
    digest = hashlib.sha256(
        repr((words, prog.alice_words, prog.bob_words, prog.output_words,
              prog.data_words, prog.imem_words, seed)).encode()
    ).hexdigest()[:16]

    profiled = obs is not None and obs.enabled
    cache = _load_cache()
    hit = cache.get(name)
    if hit and hit.get("digest") == digest and not force and not profiled:
        return hit

    if prog.gen_inputs is None or prog.oracle is None:
        raise ValueError(
            f"program {name!r} has no input sampler/oracle; the bench "
            "runner can only measure self-verifying programs"
        )
    rng = random.Random(seed)
    alice, bob = prog.gen_inputs(rng)
    machine = GarbledMachine(
        words,
        alice_words=prog.alice_words,
        bob_words=prog.bob_words,
        output_words=prog.output_words,
        data_words=prog.data_words,
        imem_words=prog.imem_words,
    )
    # The stopwatch is a local obs span (monotonic perf_counter, not
    # the NTP-steppable wall clock); run instrumentation stays off
    # unless the caller passed an enabled obs.
    watch = Obs()
    with watch.span("bench"):
        result = machine.run(alice=alice, bob=bob, obs=obs)
    elapsed = watch.phase_totals()["bench"].seconds
    expect = prog.oracle(alice, bob)
    correct = result.output_words[: len(expect)] == expect

    entry = {
        "digest": digest,
        "name": name,
        "paper_key": prog.paper_key,
        "garbled_nonxor": result.garbled_nonxor,
        "conventional_nonxor": result.conventional_nonxor,
        "conventional_ref_nonxor":
            REFERENCE_CPU_NONXOR_PER_CYCLE * result.cycles,
        "nonxor_per_cycle": result.stats.conventional_nonxor_per_cycle,
        "cycles": result.cycles,
        "correct": bool(correct),
        "input_independent_flow": result.input_independent_flow,
        "seconds": round(elapsed, 2),
        "program_words": len(words),
    }
    if profiled:
        entry["timing"] = {
            k: round(v, 4) for k, v in timing_summary(obs).items()
        }
    cache = _load_cache()
    cache[name] = entry
    _save_cache(cache)
    if not correct:
        raise AssertionError(f"{name}: output mismatch vs oracle")
    return entry


def run_circuit_benchmark(name: str, force: bool = False) -> dict:
    """Run one HDL-style benchmark circuit under SkipGate (cached).

    ``name`` keys into a fixed set of circuit builders; the entry
    records with/without-SkipGate counts (Table 1 material).
    """
    from ..circuit.bits import int_to_bits, pack_words
    from ..core.run import _evaluate as evaluate_with_stats
    from .. import bench_circuits as BC

    rng = random.Random(7)

    def stream(value):
        return lambda c: [(value >> c) & 1]

    builders = {
        "Sum 32": lambda: _seq(BC.sum_sequential(32), stream(rng.getrandbits(32)), stream(rng.getrandbits(32))),
        "Sum 1024": lambda: _seq(BC.sum_sequential(1024), stream(rng.getrandbits(1024)), stream(rng.getrandbits(1024))),
        "Compare 32": lambda: _seq(BC.compare_sequential(32), stream(rng.getrandbits(32)), stream(rng.getrandbits(32))),
        "Compare 16384": lambda: _seq(BC.compare_sequential(16384), stream(rng.getrandbits(16384)), stream(rng.getrandbits(16384))),
        "Hamming 32": lambda: _seq(BC.hamming_sequential(32), stream(rng.getrandbits(32)), stream(rng.getrandbits(32))),
        "Hamming 160": lambda: _seq(BC.hamming_sequential(160), stream(rng.getrandbits(160)), stream(rng.getrandbits(160))),
        "Hamming 512": lambda: _seq(BC.hamming_sequential(512), stream(rng.getrandbits(512)), stream(rng.getrandbits(512))),
        "Mult 32": lambda: _seq(
            BC.mult_sequential(32),
            lambda c: int_to_bits(rng.getrandbits(32), 32),
            stream(rng.getrandbits(32)),
        ),
        "MatrixMult3x3 32": lambda: _mat(3),
        "MatrixMult5x5 32": lambda: _mat(5),
        "MatrixMult8x8 32": lambda: _mat(8),
        "SHA3 256": lambda: _init_only(
            BC.sha3_256_sequential(512),
            [rng.randint(0, 1) for _ in range(512)],
            [rng.randint(0, 1) for _ in range(512)],
        ),
        "AES 128": lambda: _init_only(
            BC.aes128_sequential(),
            [rng.randint(0, 1) for _ in range(128)],
            [rng.randint(0, 1) for _ in range(128)],
        ),
        "CORDIC 32": lambda: _init_only(
            BC.cordic_sequential(),
            [rng.randint(0, 1) for _ in range(96)],
            [rng.randint(0, 1) for _ in range(96)],
        ),
        "Hamming 160 tree": lambda: _comb_tree(160),
        "Hamming 32 tree": lambda: _comb_tree(32),
        "Hamming 512 tree": lambda: _comb_tree(512),
    }

    def _seq(net_cc, alice, bob):
        net, cc = net_cc
        return evaluate_with_stats(net, cc, alice=alice, bob=bob)

    def _mat(n):
        net, cc = BC.matrix_mult_sequential(n)
        a = [rng.getrandbits(32) for _ in range(n * n)]
        bm = [rng.getrandbits(32) for _ in range(n * n)]
        return evaluate_with_stats(
            net, cc, alice_init=pack_words(a, 32), bob_init=pack_words(bm, 32)
        )

    def _init_only(net_cc, a_bits, b_bits):
        net, cc = net_cc
        return evaluate_with_stats(net, cc, alice_init=a_bits, bob_init=b_bits)

    def _comb_tree(bits):
        net, cc = BC.hamming_tree(bits)
        return evaluate_with_stats(
            net, cc,
            alice=int_to_bits(rng.getrandbits(bits), bits),
            bob=int_to_bits(rng.getrandbits(bits), bits),
        )

    key = f"circuit::{name}"
    cache = _load_cache()
    hit = cache.get(key)
    if hit and not force:
        return hit
    watch = Obs()
    with watch.span("bench"):
        result = builders[name]()
    entry = {
        "name": name,
        "garbled_nonxor": result.stats.garbled_nonxor,
        "conventional_nonxor": result.stats.conventional_nonxor,
        "skipped": result.stats.skipped,
        "cycles": result.stats.cycles,
        "seconds": round(watch.phase_totals()["bench"].seconds, 2),
    }
    cache = _load_cache()
    cache[key] = entry
    _save_cache(cache)
    return entry
