"""Observability overhead: instrumentation must not distort the runs.

Every subsequent perf PR will report against ``repro.obs`` timings, so
the instrumentation itself has to be trustworthy: with obs disabled
(the default) the engine takes one attribute check per guarded site
and gate counts are bit-identical; with obs enabled the counts are
*still* identical — only wall-clock timing and trace events appear.

The timed kernel is the disabled-path Mult 32 garbling pass, i.e. the
same kernel as bench_table1, so regressions in the null-obs guard show
up as a diff between the two benchmarks' timings.
"""

from repro.bench_circuits import mult_sequential
from repro.circuit.bits import int_to_bits
from repro import api
from repro.obs import ListSink, Obs
from repro.reporting.tables import publish, render_table


def _run(net, cc, obs=None):
    return api.run(
        net,
        {"alice": lambda c: int_to_bits(0xDEADBEEF, 32),
         "bob": lambda c: [(0x12345679 >> c) & 1]},
        cycles=cc, obs=obs,
    )


def test_obs_overhead_report(benchmark):
    net, cc = mult_sequential(32)

    sink = ListSink()
    enabled = _run(net, cc, obs=Obs(sink=sink))
    disabled = _run(net, cc)

    # Instrumentation must never change the paper's metric.
    assert enabled.stats.garbled_nonxor == disabled.stats.garbled_nonxor
    assert enabled.stats.tables_filtered == disabled.stats.tables_filtered
    assert enabled.stats.reduction_calls == disabled.stats.reduction_calls
    # One cycle event per replayed cycle (a cold run adds a trace.build).
    cycle_events = [e for e in sink.events if e["event"] == "cycle"]
    assert len(cycle_events) == enabled.stats.cycles
    assert disabled.timing is None and enabled.timing is not None

    publish("obs_overhead", render_table(
        "Observability - instrumented vs. plain engine run (Mult 32)",
        ["Mode", "garbled non-XOR", "cycles", "trace events",
         "step seconds"],
        [
            ["obs disabled", disabled.stats.garbled_nonxor,
             disabled.stats.cycles, 0, "-"],
            ["obs enabled", enabled.stats.garbled_nonxor,
             enabled.stats.cycles, len(cycle_events),
             f"{enabled.timing['step']:.4f}"],
        ],
        notes=[
            "Identical gate counts by construction: the engine's "
            "category decisions never consult the obs layer.",
            "The timed kernel below is the DISABLED path - compare "
            "against bench_table1's kernel to bound the null-obs "
            "guard overhead (< 3% target).",
        ],
    ))

    # Timed kernel: the disabled (production-default) path.
    assert benchmark(
        lambda: _run(net, cc).stats.garbled_nonxor
    ) == 2016
