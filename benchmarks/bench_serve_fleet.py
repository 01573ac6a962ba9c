"""Fleet throughput: two router-fronted shards vs one bare shard.

The router tentpole claim: sharding the serve tier adds capacity.  A
mixed workload (one loadgen wave per registry program, run
concurrently) against a 2-shard fleet behind one
:class:`~repro.serve.router.SessionRouter` must reach at least the
sessions/sec of the *same* workload against a single shard with the
same per-shard worker count — each fleet session pays one extra hello
(the router's ``moved`` redirect) and then runs point-to-point against
its shard.  Digest-affinity routing spreads the programs across the
shards, so the fleet brings twice the workers to the same load.

The workload uses several distinct programs because affinity pins each
program's digest to one shard: a single-program load exercises only
one shard (by design — that is what makes drain handoff and material
caches per-shard coherent).  HRW owner assignment depends on the
shards' ephemeral ports, so the fleet is restarted (a few times if
needed) until both shards own at least one program; the final spread
is recorded in the report.

Every session is verified bit-identically against the local simulator
by the load generator; any busy reject or verify divergence fails the
benchmark.  On a runner with at least 8 cores the 2-shard figure must
be at least ``$FLEET_MIN_SPEEDUP`` (default 1.0) times the 1-shard
figure; smaller machines report without gating
(``$FLEET_SCALING_GATE`` =1/0 forces the gate on/off).

Runs under pytest (``pytest benchmarks/bench_serve_fleet.py``) or
standalone (``python benchmarks/bench_serve_fleet.py``).  Writes the
detailed report to ``results/fleet_perf.json`` (or ``$FLEET_JSON``)
and merges ``serve_fleet_*`` rows into ``BENCH_serve.json`` (see
``bench_schema``; merge mode keeps the throughput benchmark's rows).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.net.cli import _registry
from repro.net.session import net_digest
from repro.serve import (
    LocalFleet,
    ServeConfig,
    make_server,
    registry_program,
    run_loadgen,
)
from repro.serve.fleet import rendezvous_select

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_schema import REPO_ROOT, write_bench_records  # noqa: E402

#: One-cycle registry circuits: cheap sessions, distinct digests.
PROGRAMS = ("sum32", "compare32", "hamming32", "mult8")
SERVER_VALUE = 5555
BASE_VALUE = 1000
#: Loadgen clients per program — len(PROGRAMS) * this = total clients.
CLIENTS_PER_PROGRAM = 2
MIN_SPEEDUP = float(os.environ.get("FLEET_MIN_SPEEDUP", "1.0"))
FLEET_RESTARTS = 5
CORES = os.cpu_count() or 1
WORKERS = max(2, min(4, CORES // 2))


def _scaling_gate_enabled() -> bool:
    flag = os.environ.get("FLEET_SCALING_GATE")
    if flag is not None:
        return flag.strip().lower() not in ("0", "false", "no", "")
    return CORES >= 8


def _digests() -> dict:
    reg = _registry()
    out = {}
    for name in PROGRAMS:
        net, cycles = reg[name].build()
        out[name] = net_digest(net, cycles)
    return out


def _spread(digests: dict, shard_addrs) -> dict:
    """program -> owning shard addr under HRW over ``shard_addrs``."""
    return {name: rendezvous_select(d, shard_addrs)
            for name, d in digests.items()}


def _mixed_wave(host: str, port: int) -> dict:
    """Run one loadgen per program concurrently; fold the reports."""
    reports = {}
    errors = []

    def one(name: str) -> None:
        try:
            reports[name] = run_loadgen(
                host, port, name, CLIENTS_PER_PROGRAM,
                values=[BASE_VALUE + i for i in range(CLIENTS_PER_PROGRAM)],
                server_value=SERVER_VALUE, client_prefix=f"fleet-{name}",
            )
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(f"{name}: {exc!r}")

    threads = [threading.Thread(target=one, args=(name,))
               for name in PROGRAMS]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    assert not errors, errors

    sessions = 0
    for name, report in reports.items():
        assert report.failed == 0 and report.busy == 0, (
            f"{name}: {report.to_record()}"
        )
        assert not report.verify_errors, report.verify_errors
        sessions += report.ok
    p95 = max(r.p95_seconds for r in reports.values())
    return {
        "sessions": sessions,
        "wall_seconds": round(wall, 4),
        "sessions_per_sec": round(sessions / wall, 3),
        "worst_p95_seconds": round(p95, 4),
        "retries": sum(r.retries for r in reports.values()),
    }


def measure() -> dict:
    digests = _digests()
    programs = {name: registry_program(name, SERVER_VALUE)
                for name in PROGRAMS}
    config = ServeConfig(workers=WORKERS, queue_depth=32, pool="thread")

    # -- single shard baseline ----------------------------------------
    with make_server(list(PROGRAMS), value=SERVER_VALUE, workers=WORKERS,
                     queue_depth=32, pool="thread", port=0) as srv:
        single = _mixed_wave(srv.host, srv.port)

    # -- 2-shard fleet: restart until HRW uses both shards ------------
    fleet_wave = None
    spread = {}
    for _ in range(FLEET_RESTARTS):
        with LocalFleet(programs, shards=2, config=config) as fleet:
            spread = _spread(digests, fleet.shard_addrs)
            if len(set(spread.values())) < 2:
                continue  # every program hashed onto one shard; reroll
            fleet_wave = _mixed_wave(fleet.host, fleet.port)
            break
    assert fleet_wave is not None, (
        f"HRW never spread {PROGRAMS} over 2 shards in "
        f"{FLEET_RESTARTS} fleet starts"
    )

    speedup = (fleet_wave["sessions_per_sec"] / single["sessions_per_sec"]
               if single["sessions_per_sec"] > 0 else 0.0)
    owners = sorted({addr for addr in spread.values()})
    return {
        "programs": list(PROGRAMS),
        "clients_per_program": CLIENTS_PER_PROGRAM,
        "workers_per_shard": WORKERS,
        "cores": CORES,
        "scaling_gate": _scaling_gate_enabled(),
        "min_speedup_gate": MIN_SPEEDUP,
        "spread": {name: "%s:%d" % addr for name, addr in spread.items()},
        "programs_per_shard": [
            sum(1 for a in spread.values() if a == o) for o in owners
        ],
        "single_shard": single,
        "fleet_2_shards": fleet_wave,
        "fleet_speedup": round(speedup, 3),
    }


def _write_artifacts(report: dict) -> str:
    path = os.environ.get("FLEET_JSON")
    if path is None:
        results = os.path.join(REPO_ROOT, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "fleet_perf.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    records = [
        {"metric": "serve_fleet_sessions_per_sec_2_shards",
         "value": report["fleet_2_shards"]["sessions_per_sec"],
         "unit": "sessions/s"},
        {"metric": "serve_fleet_sessions_per_sec_1_shard",
         "value": report["single_shard"]["sessions_per_sec"],
         "unit": "sessions/s"},
        {"metric": "serve_fleet_speedup_2_shards",
         "value": report["fleet_speedup"], "unit": "x"},
        {"metric": "serve_fleet_worst_p95_seconds",
         "value": report["fleet_2_shards"]["worst_p95_seconds"],
         "unit": "s"},
    ]
    # Merge mode: the throughput benchmark owns the other serve rows.
    write_bench_records("serve", records, merge=True)
    return path


def test_fleet_throughput():
    report = measure()
    path = _write_artifacts(report)
    single = report["single_shard"]
    fleet = report["fleet_2_shards"]
    print(f"\nmixed workload: {report['programs']} x "
          f"{report['clients_per_program']} clients, "
          f"{report['workers_per_shard']} workers/shard")
    print(f"program spread: {report['spread']} "
          f"({report['programs_per_shard']} per shard)")
    print(f"1 shard : {single['sessions_per_sec']:7.2f} sessions/s  "
          f"worst p95 {single['worst_p95_seconds']:.3f}s")
    print(f"2 shards: {fleet['sessions_per_sec']:7.2f} sessions/s  "
          f"worst p95 {fleet['worst_p95_seconds']:.3f}s  "
          f"({fleet['retries']} busy retries)")
    print(f"fleet speedup: {report['fleet_speedup']:.3f}x "
          f"(gate: {MIN_SPEEDUP}x, "
          f"{'on' if report['scaling_gate'] else 'off'} at "
          f"{report['cores']} cores)")
    print(f"artifact -> {path}")
    if report["scaling_gate"]:
        assert report["fleet_speedup"] >= MIN_SPEEDUP, (
            f"2-shard fleet reached only {report['fleet_speedup']:.3f}x "
            f"the single-shard figure on a {report['cores']}-core "
            f"machine (gate: {MIN_SPEEDUP}x) — the router tier is "
            f"eating the added capacity"
        )


if __name__ == "__main__":
    test_fleet_throughput()
