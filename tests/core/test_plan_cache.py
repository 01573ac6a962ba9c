"""Thread safety of the compiled cycle-plan cache.

Engines in one process share a netlist's plan (concurrent
``mode="local"`` runs, the residual-trace builds that protocol parties
and serve workers fetch), so ``compile_plan``'s lookup/insert and the
lazy sweep codegen must be safe under concurrent first access — every
thread must get the *same* plan object, and concurrently stepping
engines over the shared plan must stay bit-identical to a
single-threaded run."""

import threading

from repro import bench_circuits as BC
from repro.circuit.netlist import PUBLIC
from repro.core import CountingBackend
from repro.core.plan import CompiledSkipGateEngine, compile_plan


def _run_engine(net, cycles):
    eng = CompiledSkipGateEngine(net, CountingBackend())
    pub = [0] * len(net.inputs[PUBLIC])
    for i in range(cycles):
        eng.step(pub, final=(i == cycles - 1))
    return eng


class TestPlanCacheConcurrency:
    def test_concurrent_first_compile_yields_one_plan(self):
        """Eight threads race the very first compile_plan of a fresh
        netlist; all must observe the identical cached object."""
        net, _ = BC.sum_sequential(32)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        plans = [None] * n_threads
        errors = []

        def racer(i):
            try:
                barrier.wait()
                plans[i] = compile_plan(net)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=racer, args=(i,), daemon=True)
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert all(p is plans[0] for p in plans)
        assert plans[0] is compile_plan(net)

    def test_concurrent_engines_on_shared_plan_are_bit_identical(self):
        """Worker-pool shape: engines built and stepped concurrently
        over one netlist (hence one plan, including the lazily
        compiled sweep) reproduce the single-threaded run exactly."""
        net, cycles = BC.sum_sequential(32)
        reference = _run_engine(net, cycles)

        n_threads = 6
        barrier = threading.Barrier(n_threads)
        engines = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()
                engines[i] = _run_engine(net, cycles)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        for eng in engines:
            assert eng.output_states() == reference.output_states()
            assert eng.stats == reference.stats
