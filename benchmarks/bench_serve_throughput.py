"""Session throughput of ``repro.serve`` vs sequential one-shot runs.

The serve tentpole claim: a long-lived garbling server amortises
process startup, netlist construction and cycle-plan compilation
across sessions, so running N evaluator sessions against one
:class:`~repro.serve.server.GarbleServer` is at least 2x the
sessions/sec of running the same N sessions sequentially through
``python -m repro party`` (one fresh process per session — exactly
what a deployment without the serve layer would do).  Outputs and
non-XOR gate counts must be bit-identical between the two paths.

Measures sessions/sec and p50/p95 session latency at 1, 4 and 16
concurrent clients — with the default (process) worker pool sized to
the machine and *process* load-generator clients, so neither side's
GIL caps the measured figure.  On a machine with at least 8 cores the
``serve_sessions_per_sec_16_clients`` figure must be at least the
4-client figure (throughput rises with client count up to the core
count); ``$SERVE_SCALING_GATE`` =1/0 forces the gate on/off elsewhere.

A second section measures the **offline/online split**: with
``ot="extension"`` the per-session fixed cost is dominated by the
kappa base OTs plus inline garbling, both of which the split moves off
the connection path (pre-garbled material epochs + per-client base-OT
reuse).  The "full" wave runs 4 clients against a ``precompute=False``
server with anonymous clients (every session pays base OTs and
garbling inline); the "online" wave runs the same 4 operands against a
pre-warmed material cache with named client identities and one warmup
session per client (measured sessions are material replay + cached
base extension only).  The online wave must verify bit-identically and
reach at least 1.5x the full wave's sessions/sec
(``$SERVE_ONLINE_MIN_SPEEDUP``).

Runs under pytest (``pytest benchmarks/bench_serve_throughput.py``)
or standalone (``python benchmarks/bench_serve_throughput.py``).
Writes the detailed report to ``results/serve_perf.json`` (or
``$SERVE_JSON``) and the flat time-series records to
``BENCH_serve.json`` at the repo root (see ``bench_schema``).  The
speedup assertion gate defaults to 2x (``$SERVE_MIN_SPEEDUP``) so
noisy shared CI runners don't flap.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.serve import make_server, run_loadgen
from repro.serve.client import forget_receiver_bases

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_schema import REPO_ROOT, write_bench_records  # noqa: E402

CIRCUIT = "sum32"
SERVER_VALUE = 5555
BASE_VALUE = 1000
SEQ_SESSIONS = 4
CLIENT_LEVELS = (1, 4, 16)
MIN_SPEEDUP = float(os.environ.get("SERVE_MIN_SPEEDUP", "2.0"))
ONLINE_MIN_SPEEDUP = float(os.environ.get("SERVE_ONLINE_MIN_SPEEDUP", "1.5"))
CORES = os.cpu_count() or 1
#: Worker processes: one per core up to the largest client level.
WORKERS = max(4, min(CORES, max(CLIENT_LEVELS)))
#: Clients for the offline/online split waves.
SPLIT_CLIENTS = 4
#: Material epochs pre-garbled for the online wave: one per warmup
#: session plus one per measured session, so the cache never drains
#: below low-water and no refill garbling lands inside the measured
#: window.
SPLIT_DEPTH = 4 * SPLIT_CLIENTS


def _scaling_gate_enabled() -> bool:
    """The 16-vs-4 scaling assertion only means something when the
    machine has cores to scale onto; ``SERVE_SCALING_GATE`` overrides
    the core-count heuristic either way."""
    flag = os.environ.get("SERVE_SCALING_GATE")
    if flag is not None:
        return flag.strip().lower() not in ("0", "false", "no", "")
    return CORES >= 8


def _sequential_baseline() -> dict:
    """Run SEQ_SESSIONS fresh-process sessions back to back.

    Each ``python -m repro party both`` invocation pays interpreter
    startup, netlist build and plan compile — the per-session fixed
    cost the serve layer exists to amortise.  The in-memory transport
    keeps the baseline *conservative*: it skips TCP entirely, which
    only narrows the measured gap.
    """
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    records = {}
    t0 = time.perf_counter()
    for i in range(SEQ_SESSIONS):
        value = BASE_VALUE + i
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "party", "both",
             "--transport", "memory", "--circuit", CIRCUIT,
             "--value", str(SERVER_VALUE), "--peer-value", str(value),
             "--json"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, f"baseline session failed: {proc.stderr}"
        records[value] = json.loads(proc.stdout)
    wall = time.perf_counter() - t0
    return {
        "sessions": SEQ_SESSIONS,
        "wall_seconds": wall,
        "sessions_per_sec": SEQ_SESSIONS / wall,
        "records": records,
    }


def _serve_levels() -> dict:
    """Loadgen runs at each concurrency level against one server."""
    levels = {}
    with make_server(
        [CIRCUIT], value=SERVER_VALUE, workers=WORKERS,
        queue_depth=32, port=0,
    ) as srv:
        pool = srv.pool
        for clients in CLIENT_LEVELS:
            # Reuse the baseline's operand set so every serve session
            # has a fresh-process twin to compare against bit-for-bit.
            values = [BASE_VALUE + (i % SEQ_SESSIONS)
                      for i in range(clients)]
            report = run_loadgen(
                srv.host, srv.port, CIRCUIT, clients,
                values=values, server_value=SERVER_VALUE,
                # Process clients past 1: a thread loadgen shares one
                # GIL and would cap a multi-core server's figure.
                client_procs=clients > 1,
            )
            assert report.failed == 0 and report.busy == 0, (
                f"{clients} clients: {report.to_record()}"
            )
            assert not report.verify_errors, report.verify_errors
            levels[clients] = report
    return levels, pool


def _online_vs_full() -> dict:
    """Measure the offline/online split at SPLIT_CLIENTS clients.

    Both waves run ``ot="extension"`` over the thread pool (the
    material cache and its build stats live in the parent there, and
    pool choice cancels out of the ratio).  The *full* wave garbles
    inline and runs anonymous clients, so every session pays the kappa
    base OTs plus garbling; the *online* wave replays pre-garbled
    material to named identities whose warmup session seeded the
    base-OT caches on both sides, so the measured path is
    evaluate + extension OT only.
    """
    values = [BASE_VALUE + i for i in range(SPLIT_CLIENTS)]
    kw = dict(value=SERVER_VALUE, workers=SPLIT_CLIENTS, queue_depth=32,
              pool="thread", ot="extension", port=0)
    lg_kw = dict(values=values, server_value=SERVER_VALUE, ot="extension")

    forget_receiver_bases()
    with make_server([CIRCUIT], precompute=False, **kw) as srv:
        full = run_loadgen(srv.host, srv.port, CIRCUIT, SPLIT_CLIENTS,
                           **lg_kw)
    assert full.failed == 0 and full.busy == 0, full.to_record()
    assert not full.verify_errors, full.verify_errors

    with make_server([CIRCUIT], precompute=True,
                     material_depth=SPLIT_DEPTH, **kw) as srv:
        online = run_loadgen(srv.host, srv.port, CIRCUIT, SPLIT_CLIENTS,
                             client_prefix="bench", warmup=1, **lg_kw)
        snap = srv.stats_snapshot()
        # Read after the wave: the workers fill the (server-wide,
        # thread-kind) cache before they report ready, not the
        # constructor.  Refills count too; the per-epoch mean stands.
        cache = srv._materials[CIRCUIT]
        offline_built = cache.built
        offline_seconds = cache.build_seconds
    assert online.failed == 0 and online.busy == 0, online.to_record()
    assert not online.verify_errors, online.verify_errors
    # Every session (warmup + measured) consumed pre-garbled material.
    assert snap["material_misses"] == 0, snap
    assert snap["material_hits"] == 2 * SPLIT_CLIENTS, snap

    # Bit-identity across the split: same operand, same outputs.
    full_out = {o.value: (o.outputs, o.garbled_nonxor)
                for o in full.outcomes}
    for o in online.outcomes:
        assert full_out[o.value] == (o.outputs, o.garbled_nonxor), (
            f"value {o.value}: online session diverges from full garbling"
        )

    speedup = (online.sessions_per_sec / full.sessions_per_sec
               if full.sessions_per_sec > 0 else 0.0)
    return {
        "clients": SPLIT_CLIENTS,
        "material_depth": SPLIT_DEPTH,
        "min_speedup_gate": ONLINE_MIN_SPEEDUP,
        "offline": {
            "epochs_built": offline_built,
            "garble_seconds_total": round(offline_seconds, 4),
            "garble_seconds_per_epoch": round(
                offline_seconds / max(1, offline_built), 6
            ),
        },
        "full": full.to_record(),
        "online": online.to_record(),
        "online_speedup_vs_full": round(speedup, 2),
    }


def measure() -> dict:
    baseline = _sequential_baseline()
    levels, pool = _serve_levels()
    split = _online_vs_full()

    # Bit-identity: every serve session must match the fresh-process
    # run of the same operand pair (outputs AND gate counts).
    for clients, report in levels.items():
        for o in report.outcomes:
            ref = baseline["records"][o.value]
            got = "".join(str(b) for b in o.outputs)
            assert got == ref["outputs"], (
                f"{clients} clients, value {o.value}: outputs diverge "
                f"from the sequential baseline"
            )
            assert o.garbled_nonxor == ref["garbled_nonxor"], (
                f"{clients} clients, value {o.value}: gate count "
                f"{o.garbled_nonxor} != baseline {ref['garbled_nonxor']}"
            )

    report = {
        "circuit": CIRCUIT,
        "min_speedup_gate": MIN_SPEEDUP,
        "pool": pool,
        "workers": WORKERS,
        "cores": CORES,
        "scaling_gate": _scaling_gate_enabled(),
        "sequential": {
            "sessions": baseline["sessions"],
            "wall_seconds": round(baseline["wall_seconds"], 4),
            "sessions_per_sec": round(baseline["sessions_per_sec"], 3),
        },
        "serve": {
            str(clients): lg.to_record() for clients, lg in levels.items()
        },
        "split": split,
    }
    report["speedup_4_clients"] = round(
        levels[4].sessions_per_sec / baseline["sessions_per_sec"], 2
    )
    report["scaling_16_vs_4"] = round(
        levels[16].sessions_per_sec / levels[4].sessions_per_sec, 3
    ) if levels[4].sessions_per_sec > 0 else 0.0
    return report


def _write_artifacts(report: dict) -> str:
    path = os.environ.get("SERVE_JSON")
    if path is None:
        results = os.path.join(REPO_ROOT, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "serve_perf.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    records = [
        {"metric": "serve_speedup_4_clients",
         "value": report["speedup_4_clients"], "unit": "x"},
        {"metric": "serve_scaling_16_vs_4",
         "value": report["scaling_16_vs_4"], "unit": "x"},
    ]
    for clients, row in report["serve"].items():
        records.append({
            "metric": f"serve_sessions_per_sec_{clients}_clients",
            "value": row["sessions_per_sec"], "unit": "sessions/s",
        })
        records.append({
            "metric": f"serve_p95_seconds_{clients}_clients",
            "value": row["p95_seconds"], "unit": "s",
        })
    split = report["split"]
    n = split["clients"]
    records.extend([
        {"metric": f"serve_online_sessions_per_sec_{n}_clients",
         "value": split["online"]["sessions_per_sec"],
         "unit": "sessions/s"},
        {"metric": f"serve_online_p95_seconds_{n}_clients",
         "value": split["online"]["p95_seconds"], "unit": "s"},
        {"metric": f"serve_full_p95_seconds_{n}_clients",
         "value": split["full"]["p95_seconds"], "unit": "s"},
        {"metric": "serve_online_speedup_vs_full",
         "value": split["online_speedup_vs_full"], "unit": "x"},
        {"metric": "serve_offline_garble_seconds_per_epoch",
         "value": split["offline"]["garble_seconds_per_epoch"],
         "unit": "s"},
    ])
    write_bench_records("serve", records)
    return path


def test_serve_throughput_speedup():
    report = measure()
    path = _write_artifacts(report)
    seq = report["sequential"]
    print(f"\nsequential baseline: {seq['sessions_per_sec']:.2f} "
          f"sessions/s ({seq['sessions']} fresh-process runs)")
    for clients, row in report["serve"].items():
        print(f"serve {clients:>2s} clients: "
              f"{row['sessions_per_sec']:7.2f} sessions/s  "
              f"p50 {row['p50_seconds']:.3f}s  p95 {row['p95_seconds']:.3f}s")
    print(f"speedup at 4 clients: {report['speedup_4_clients']:.2f}x "
          f"(gate: {MIN_SPEEDUP}x)")
    print(f"scaling 16 vs 4 clients: {report['scaling_16_vs_4']:.3f}x "
          f"(pool={report['pool']}, workers={report['workers']}, "
          f"cores={report['cores']}, "
          f"gate {'on' if report['scaling_gate'] else 'off'})")
    split = report["split"]
    print(f"offline/online split ({split['clients']} clients, "
          f"ot=extension): full "
          f"{split['full']['sessions_per_sec']:.2f}/s "
          f"p95 {split['full']['p95_seconds']:.3f}s | online "
          f"{split['online']['sessions_per_sec']:.2f}/s "
          f"p95 {split['online']['p95_seconds']:.3f}s | "
          f"speedup {split['online_speedup_vs_full']:.2f}x "
          f"(gate: {ONLINE_MIN_SPEEDUP}x) | offline garble "
          f"{split['offline']['garble_seconds_per_epoch']*1000:.1f}ms/epoch "
          f"x {split['offline']['epochs_built']} epochs")
    print(f"artifact -> {path}")
    assert report["speedup_4_clients"] >= MIN_SPEEDUP, (
        f"serve only {report['speedup_4_clients']:.2f}x the sequential "
        f"baseline at 4 clients (gate: {MIN_SPEEDUP}x)"
    )
    assert split["online_speedup_vs_full"] >= ONLINE_MIN_SPEEDUP, (
        f"online phase only {split['online_speedup_vs_full']:.2f}x the "
        f"full-garble wave (gate: {ONLINE_MIN_SPEEDUP}x) — the split is "
        f"not moving the fixed cost offline"
    )
    assert split["online"]["p95_seconds"] < split["full"]["p95_seconds"], (
        f"online p95 {split['online']['p95_seconds']:.3f}s is not below "
        f"the full-garble p95 {split['full']['p95_seconds']:.3f}s"
    )
    if report["scaling_gate"]:
        s16 = report["serve"]["16"]["sessions_per_sec"]
        s4 = report["serve"]["4"]["sessions_per_sec"]
        assert s16 >= s4, (
            f"16-client throughput {s16:.2f}/s fell below the 4-client "
            f"figure {s4:.2f}/s on a {report['cores']}-core machine — "
            f"the process pool is not scaling with client count"
        )


if __name__ == "__main__":
    test_serve_throughput_speedup()
