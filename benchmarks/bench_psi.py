"""Batch-PSI amortization: one garbling pass vs N independent sessions.

The workloads tentpole claim: a batched circuit (``<name>@b<N>``, Bob
query slots sharing Alice's input wires) answers N queries measurably
cheaper than N fresh sessions, because everything paid per *session*
— dial + handshake, admission, the base-OT phase, Alice's input-label
transfer — is paid once.  Naive garbled-circuit *reuse* would leak
labels ("Reuse It Or Lose It", Mood et al.); the batched shape is the
safe construction, so its amortization figure is the one worth
defending.

Both waves run against the same live server (thread pool, offline
precompute disabled so every session garbles inline) with extension
OT on both sides: the fresh wave then pays N full base-OT phases
where the batch pays one — the dominant per-session fixed cost this
benchmark exists to amortize.  Both run on ``OT_GROUP`` = ``modp2048``,
the group the README tells you to deploy: on the ``modp512`` *test*
modulus the base phase is too cheap to stand for that cost (the gate
read 1.10x there once the base phase dropped to 128 modexps).  Every
query's output bits are checked bit-identical between the batch and
its fresh twin, and the decoded intersection sizes against the
plain-python set oracle; any divergence fails the benchmark before any
throughput number is read.

The speedup gate (``$PSI_MIN_SPEEDUP``, default 1.5) is on by default
— the amortization is protocol arithmetic, not core-count scaling —
and can be forced off with ``PSI_SPEEDUP_GATE=0`` for exploratory
runs on noisy machines.

Runs under pytest (``pytest benchmarks/bench_psi.py``) or standalone
(``python benchmarks/bench_psi.py``).  Writes the detailed report to
``results/psi_perf.json`` (or ``$PSI_JSON``).
"""

from __future__ import annotations

import json
import os
import time

from repro.serve import GarbleServer, ServeClient
from repro.workloads import get_workload, workload_program
from repro.workloads import psi as psi_mod

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The base workload shape; the batch sibling is ``@b{BATCH}``.
WORKLOAD = os.environ.get("PSI_WORKLOAD", "psi-sort8x16")
BATCH = int(os.environ.get("PSI_BATCH", "8"))
SERVER_SEED = 7
BASE_SEED = 100
WORKERS = 2
OT_GROUP = "modp2048"
MIN_SPEEDUP = float(os.environ.get("PSI_MIN_SPEEDUP", "1.5"))


def _speedup_gate_enabled() -> bool:
    flag = os.environ.get("PSI_SPEEDUP_GATE")
    if flag is None:
        return True
    return flag.strip().lower() not in ("0", "false", "no", "")


def _verify(batch, fresh, values) -> None:
    """Bit-identity with the fresh wave and the python set oracle."""
    wl = get_workload(WORKLOAD)
    alice = set(psi_mod.set_from_seed(wl.spec, SERVER_SEED))
    for j, (value, res) in enumerate(zip(values, fresh)):
        assert batch.queries[j].outputs == list(res.outputs), (
            f"query {j}: batched outputs diverge from its fresh twin"
        )
        bob = set(psi_mod.set_from_seed(wl.spec, value))
        assert batch.queries[j].size == len(alice & bob), (
            f"query {j}: size {batch.queries[j].size} != oracle "
            f"{len(alice & bob)}"
        )


def measure() -> dict:
    values = [BASE_SEED + i for i in range(BATCH)]
    programs = {
        name: workload_program(name, value=SERVER_SEED)
        for name in (WORKLOAD, f"{WORKLOAD}@b{BATCH}")
    }
    with GarbleServer(programs, pool="thread", workers=WORKERS,
                      ot_group=OT_GROUP, precompute=False) as srv:
        with ServeClient(srv.host, srv.port, ot_group=OT_GROUP) as client:
            # Warm both compiled plans (server and client side) so the
            # measured window is protocol work, not codegen.
            client.run(WORKLOAD, BASE_SEED - 1)
            client.run_batch(WORKLOAD, values)

            t0 = time.perf_counter()
            fresh = [client.run(WORKLOAD, v) for v in values]
            fresh_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            batch = client.run_batch(WORKLOAD, values)
            batch_wall = time.perf_counter() - t0

    _verify(batch, fresh, values)
    fresh_nonxor = sum(r.stats.garbled_nonxor for r in fresh)
    speedup = fresh_wall / batch_wall if batch_wall > 0 else 0.0
    return {
        "workload": WORKLOAD,
        "batch_program": batch.program,
        "batch": BATCH,
        "workers": WORKERS,
        "ot_group": OT_GROUP,
        "speedup_gate": _speedup_gate_enabled(),
        "min_speedup_gate": MIN_SPEEDUP,
        "intersection_sizes": batch.sizes,
        "fresh": {
            "wall_seconds": round(fresh_wall, 4),
            "queries_per_sec": round(BATCH / fresh_wall, 3),
            "garbled_nonxor_total": fresh_nonxor,
        },
        "batched": {
            "wall_seconds": round(batch_wall, 4),
            "queries_per_sec": round(BATCH / batch_wall, 3),
            "garbled_nonxor_total": batch.garbled_nonxor,
        },
        "batch_speedup": round(speedup, 3),
    }


def _write_artifacts(report: dict) -> str:
    path = os.environ.get("PSI_JSON")
    if path is None:
        results = os.path.join(REPO_ROOT, "results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, "psi_perf.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def test_psi_batch_amortization():
    report = measure()
    path = _write_artifacts(report)
    fresh, batched = report["fresh"], report["batched"]
    print(f"\n{report['workload']} x{report['batch']} queries, "
          f"{report['workers']} workers, extension OT on "
          f"{report['ot_group']}")
    print(f"intersection sizes: {report['intersection_sizes']}")
    print(f"fresh  : {fresh['queries_per_sec']:7.2f} q/s  "
          f"({fresh['wall_seconds']:.3f}s, "
          f"{fresh['garbled_nonxor_total']} tables)")
    print(f"batched: {batched['queries_per_sec']:7.2f} q/s  "
          f"({batched['wall_seconds']:.3f}s, "
          f"{batched['garbled_nonxor_total']} tables)")
    print(f"batch speedup: {report['batch_speedup']:.3f}x "
          f"(gate: {MIN_SPEEDUP}x, "
          f"{'on' if report['speedup_gate'] else 'off'})")
    print(f"artifact -> {path}")
    if report["speedup_gate"]:
        assert report["batch_speedup"] >= MIN_SPEEDUP, (
            f"a batch of {report['batch']} queries reached only "
            f"{report['batch_speedup']:.3f}x the fresh-session figure "
            f"(gate: {MIN_SPEEDUP}x) — the per-session fixed costs "
            f"are not amortizing"
        )


if __name__ == "__main__":
    test_psi_batch_amortization()
