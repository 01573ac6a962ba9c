"""Every full-length trace passes the build audit and its oracle.

A row the engine's table filter drops leaves the trace at build, and
one that is still read fails the build (DESIGN.md §11, "Residual
trace").  Every program's trace then runs in local mode (the trace
replayed in the clear, every output bit checked against the ISA
emulator) for seeds 1-3 against its oracle; seeds 2-3 hit the cached
trace.  dijkstra8 also runs in protocol mode for seeds 1-3.  Exits
non-zero naming every program that failed.

    PYTHONPATH=src python .github/scripts/audit_traces.py
"""

import random, time
from repro import api
from repro.arm import GarbledMachine
from repro.arm.assembler import assemble
from repro.cc import compile_c
from repro.circuit.bits import pack_words, unpack_words
from repro.core.trace import GARBLE, residual_trace
from repro.programs import REGISTRY
from repro.workloads import workload_circuits

failed = []
for name, prog in REGISTRY.items():
    words = (compile_c(prog.source).words if prog.kind == "c"
             else assemble(prog.source))
    layout = dict(
        alice_words=prog.alice_words, bob_words=prog.bob_words,
        output_words=prog.output_words, data_words=prog.data_words,
        imem_words=prog.imem_words)
    m = GarbledMachine(words, **layout)
    imem = m.program + [0] * (m.config.imem_words - len(m.program))
    for seed in (1, 2, 3):
        alice, bob = prog.gen_inputs(random.Random(seed))
        expect = prog.oracle(alice, bob)
        t0 = time.perf_counter()
        res = m.run(alice=alice, bob=bob)
        trace = residual_trace(m.net, res.cycles, (), pack_words(imem, 32))
        garbles = sum(op >= GARBLE for op in trace.op)
        print(f"arm-{name} seed {seed}: {res.cycles} cycles, "
              f"{garbles} garble rows, {sum(trace.tables)} tables "
              f"kept, {time.perf_counter() - t0:.1f} s")
        if res.output_words[: len(expect)] != expect:
            failed.append(f"arm-{name} seed {seed}: local != oracle")
        if not garbles == sum(trace.tables) == trace.stats.tables_sent:
            failed.append(f"arm-{name}")
    for seed in (1, 2, 3) if name == "dijkstra8" else ():
        alice, bob = prog.gen_inputs(random.Random(seed))
        expect = prog.oracle(alice, bob)
        t0 = time.perf_counter()
        proto = api.run(words, {"alice": alice, "bob": bob},
                        mode="protocol", machine_config=layout)
        print(f"arm-dijkstra8 protocol seed {seed}: "
              f"{time.perf_counter() - t0:.1f} s")
        if unpack_words(proto.outputs, 32)[: len(expect)] != expect:
            failed.append(f"arm-dijkstra8 protocol seed {seed} != oracle")
for name, entry in workload_circuits().items():
    net, cycles = entry.build()
    trace = residual_trace(net, cycles)
    garbles = sum(op >= GARBLE for op in trace.op)
    print(f"{name}: {cycles} cycles, {garbles} garble rows")
    if not garbles == sum(trace.tables) == trace.stats.tables_sent:
        failed.append(name)
if failed:
    raise SystemExit(f"build audit / oracle: {failed}")
