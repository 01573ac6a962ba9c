"""Residual trace sizes, build and replay time: numbers, no gate.

What a protocol party replays per session instead of sweeping
(DESIGN.md §11, "Residual trace"), for one ARM program and one PSI
circuit.

    PYTHONPATH=src python .github/scripts/trace_sizes.py
"""

import time
from repro.arm import GarbledMachine
from repro.cc import compile_c
from repro.circuit.bits import pack_words
from repro.core import CountingBackend
from repro.core.trace import TraceReplayer, residual_trace
from repro.net.cli import _registry
from repro.programs import REGISTRY

prog = REGISTRY["hamming160"]
machine = GarbledMachine(
    compile_c(prog.source).words, alice_words=prog.alice_words,
    bob_words=prog.bob_words, output_words=prog.output_words,
    data_words=prog.data_words, imem_words=prog.imem_words)
imem = machine.program + [0] * (
    machine.config.imem_words - len(machine.program))
cycles, _ = machine.required_cycles([0] * 5, [0] * 5)
psi_net, psi_cycles = _registry()["psi-hash8x16"].build()
for name, net, n, public_init in (
        ("arm-hamming160", machine.net, cycles, pack_words(imem, 32)),
        ("psi-hash8x16", psi_net, psi_cycles, ())):
    t0 = time.perf_counter()
    trace = residual_trace(net, n, (), public_init)
    build_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    replayer = TraceReplayer(trace, CountingBackend())
    for _ in range(n):
        replayer.step()
    replay_ms = (time.perf_counter() - t0) * 1e3
    print(f"{name}: {n} cycles, {len(trace.op)} trace ops, "
          f"{trace.n_labels} labels, {trace.n_slots} table slots, "
          f"build {build_ms:.1f} ms, replay {replay_ms:.2f} ms/party, "
          f"{trace.stats.tables_sent} tables")
