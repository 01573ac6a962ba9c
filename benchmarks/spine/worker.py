"""One workload in one fresh process: set up, measure, verify, report.

``run.py`` starts this file once per measurement; it is not meant to
be called by hand.  Three modes:

``setup``
    Set the workload up (everything before the first timed op, one
    warm op included), tear it down, report ``setup_s``.  ``run.py``
    takes the median over several such fresh processes.
``measure``
    Set up, run closed-loop windows of ops for ``--seconds`` with
    tracing off, verify every op, report the end-to-end metrics.
``trace``
    Set up, run a quarter of the time untraced and a quarter traced,
    then the per-layer probes; report the per-layer metrics (and the
    end-to-end metrics of the untraced quarter) and write the spans.

The last line of standard output is one JSON object; everything else
goes to standard error.
"""

from __future__ import annotations

import atexit
import time

T0 = time.perf_counter()  # set-up time counts the imports below


def _reap_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it, so no
    process of this run outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# Registered before multiprocessing is first imported, so it runs after
# multiprocessing's own exit hook has unlinked its semaphores.
atexit.register(_reap_resource_tracker)

import argparse
import json
import multiprocessing
import os
import resource
import sys
import threading
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
if SRC not in sys.path:
    sys.path.insert(1, SRC)  # after this directory, before site-packages

from compare import quartile_summary  # noqa: E402


class Window:
    """``window_ops`` consecutive ops of one client."""

    def __init__(self, client: int, kind: str) -> None:
        self.client = client
        self.kind = kind
        self.ops: list = []
        self.start = self.end = 0.0
        #: session id -> server wall_ms, read from the stats ring when
        #: the window ends (traced run, served workloads).
        self.walls: Dict[str, int] = {}


def run_windows(workload, seconds: float, first_index: int,
                read_rings: bool) -> List[Window]:
    """Closed loop: each client thread runs whole windows until
    ``seconds`` have passed (and at least one window of each kind)."""
    windows: List[Window] = []
    lock = threading.Lock()
    errors: List[BaseException] = []
    t_start = perf_counter()

    def client_main(client: int) -> None:
        index = first_index + client
        done = 0
        try:
            kinds = workload.kinds
            while done < len(kinds) or perf_counter() - t_start < seconds:
                window = Window(client, kinds[done % len(kinds)])
                window.start = perf_counter()
                for _ in range(workload.window_ops):
                    window.ops.append(
                        workload.run_op(index, client, window.kind))
                    index += workload.clients
                window.end = perf_counter()
                if read_rings:
                    window.walls = workload.session_walls_ms()
                with lock:
                    windows.append(window)
                done += 1
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    # Every client gets a thread of its own, also when there is only
    # one: CPython 3.11 keeps frames on 16 KB data-stack chunks and maps
    # a fresh chunk on every call that crosses a chunk end, so the same
    # op runs up to 2.5x slower at an unlucky caller depth.  The top of
    # a dedicated thread is a fixed, shallow depth that does not move
    # when this harness changes (see "Known limits" in the README).
    threads = [threading.Thread(target=client_main, args=(c,),
                                name=f"client-{c}")
               for c in range(workload.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return windows


def _p(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean_per_program(ops: list, field: str) -> float:
    """Mean of ``op.<field>`` per program, then over programs, so the
    figure does not depend on where a round-robin run happened to stop."""
    by_program: Dict[str, List[float]] = {}
    for op in ops:
        by_program.setdefault(op.program, []).append(getattr(op, field))
    means = [sum(v) / len(v) for v in by_program.values()]
    return sum(means) / len(means)


def end_to_end(workload, windows: List[Window]) -> dict:
    """The end-to-end metrics of the measured (kind ``"op"``) windows.

    ``op_p50_ms`` and ``ops_per_s`` are medians over windows, so one
    stalled window does not move them; ``op_p95_ms`` is taken over all
    ops pooled.
    """
    measured = [w for w in windows if w.kind == "op"]
    ok_ops = [op for w in measured for op in w.ops if op.error is None]
    if not ok_ops:
        raise AssertionError("no op of the measured windows succeeded")
    medians_ms, rates = [], []
    for w in measured:
        good = [op.seconds for op in w.ops if op.error is None]
        if good:
            medians_ms.append(median(good) * 1e3)
            rates.append(workload.clients * len(good) / (w.end - w.start))
    latencies_ms = [op.seconds * 1e3 for op in ok_ops]
    return {
        "op_p50_ms": {"value": median(medians_ms), **quartile_summary(medians_ms)},
        "op_p95_ms": {"value": _p(latencies_ms, 0.95), "n": len(latencies_ms)},
        "ops_per_s": {"value": median(rates), **quartile_summary(rates)},
        "wire_bytes_per_op": {"value": mean_per_program(ok_ops, "wire_bytes"),
                              "n": len(ok_ops)},
    }


def peak_rss_mb() -> float:
    """This process plus its largest reaped descendant (serve workers
    hang off the forkserver, which ``stop_forkserver`` has reaped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_forkserver() -> None:
    """Stop and reap the forkserver the serve pools were spawned from,
    which folds the workers' peak memory into ``RUSAGE_CHILDREN`` and
    leaves no process behind."""
    from multiprocessing import forkserver

    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


def verify_ops(workload, windows: List[Window], expected: dict) -> dict:
    """Check every op against its oracle and the committed table
    count; a failed check is a failed op."""
    tables = expected["tables_per_op"]
    attempted = failed = 0
    errors: List[str] = []
    for window in windows:
        for op in window.ops:
            attempted += 1
            if workload.verify(op) and op.tables != tables.get(op.program):
                op.error = (f"{op.tables} garbled tables, expected "
                            f"{tables.get(op.program)}")
            if op.error is not None:
                failed += 1
                errors.append(f"op {op.index} ({op.program}): {op.error}")
    for line in errors[:10]:
        print(line, file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "errors": errors[:10]}


def serve_checks(workload, counters: dict,
                 router: Optional[dict]) -> Dict[str, bool]:
    """The serve-tier invariants asserted after every served run;
    ``router`` is the router's stats reply where there is a router."""
    checks = {
        "accepted_is_completed_plus_failed":
            counters["accepted"] == counters["completed"] + counters["failed"],
        "no_failed_sessions": counters["failed"] == 0,
        "no_busy_rejects": counters["rejected_busy"] == 0,
        "children_reaped": counters["children_alive"] == 0,
    }
    if workload.precompute:
        checks["no_material_misses"] = counters["material_misses"] == 0
    else:
        checks["no_material_hits"] = counters["material_hits"] == 0
    if router is not None:
        checks["router_routed_every_session"] = (
            router["routed_sessions"] == workload.routed_sent)
    return checks


def pin_to_one_core() -> None:
    """Run this process, and the servers it will start, on one core.

    A one-client workload is a strictly serial chain (caller, garbler,
    evaluator, server and worker take turns), so a second core adds no
    overlap, only cross-core wake-ups.  On a virtualised host waking a
    halted core is slow and erratic: unpinned, the same op runs ~25%
    slower and several times less steadily.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def policy(workload, windows: List[Window], seconds: float) -> dict:
    measured = [w for w in windows if w.kind == "op"]
    return {
        "loop": "closed", "loopback": True, "clients": workload.clients,
        "cpus": sorted(os.sched_getaffinity(0)),
        "window_ops": workload.window_ops, "windows": len(measured),
        "ops": sum(len(w.ops) for w in measured),
        "other_windows": len(windows) - len(measured),
        "seconds": seconds,
        "circuits": sorted(workload.circuits),
    }


# ---------------------------------------------------------------------------
# measure: the end-to-end run
# ---------------------------------------------------------------------------


def measure(workload, args, expected: dict) -> dict:
    workload.setup()
    setup_s = perf_counter() - T0
    windows = run_windows(workload, args.seconds, 0, read_rings=False)
    verdict = verify_ops(workload, windows, expected)
    router = workload.router_counters()
    counters = workload.teardown()
    checks = serve_checks(workload, counters, router) \
        if workload.served else {}
    metrics = end_to_end(workload, windows)
    metrics.update(process_metrics(setup_s, verdict))
    want = expected["wire_bytes_per_op"].get(workload.name + _quick(args))
    checks["wire_bytes_as_committed"] = (
        metrics["wire_bytes_per_op"]["value"] == want)
    return {
        "correct": verdict["failed"] == 0 and all(
            ok for name, ok in checks.items()
            if name != "wire_bytes_as_committed"),
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "metrics": metrics, "checks": checks, "errors": verdict["errors"],
        "policy": policy(workload, windows, args.seconds),
    }


def _quick(args) -> str:
    return "@quick" if args.quick else ""


def process_metrics(setup_s: float, verdict: dict) -> dict:
    """The end-to-end metrics that describe the worker process rather
    than its windows.  Call after ``teardown()``."""
    stop_forkserver()  # so that the workers' memory is counted
    return {
        "setup_s": {"value": setup_s, "n": 1},
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
        "failed_share": {"value": verdict["failed"] / verdict["attempted"],
                         "n": verdict["attempted"]},
    }


# ---------------------------------------------------------------------------
# trace: the per-layer run
# ---------------------------------------------------------------------------


def _span_ms(tracer, name: str) -> Optional[float]:
    durations = tracer.durations(name)
    return median(durations) * 1e3 if durations else None


def _ops(windows: List[Window], kind: str = "op") -> list:
    return [op for w in windows if w.kind == kind
            for op in w.ops if op.error is None]


def serve_layers(workload, tracer, windows: List[Window], counters: dict,
                 start_span: str = "serve.server.start") -> Dict[str, float]:
    """``serve.*`` and ``gc.material`` numbers of a served workload,
    from its ops, the stats rings read at each window end, and the
    counters ``teardown()`` returned."""
    ops = _ops(windows)
    walls = {}
    for w in windows:
        walls.update(w.walls)
    matched = [(op.seconds * 1e3, walls[op.session]) for op in ops
               if op.session in walls]
    client_p50 = median(m[0] for m in matched)
    server_p50 = median(m[1] for m in matched)
    served = counters["material_hits"] + counters["material_misses"]
    return {
        "serve.server.session_wall_p50_ms": float(server_p50),
        "serve.client.gap_p50_ms": client_p50 - server_p50,
        "serve.client.cpu_ms_per_op": median(op.cpu_s for op in ops) * 1e3,
        "serve.client.retries": sum(op.retries for op in ops),
        "serve.server.accepted": counters["accepted"],
        "serve.server.completed": counters["completed"],
        "serve.server.failed": counters["failed"],
        "serve.server.rejected_busy": counters["rejected_busy"],
        "serve.server.start_ms": _span_ms(tracer, start_span),
        "serve.server.shutdown_ms": counters["shutdown_ms"],
        "gc.material.hit_ratio":
            counters["material_hits"] / served if served else 0.0,
        "gc.material.epochs_built": counters["material_epochs"],
    }


def router_layers(workload, windows: List[Window], router: dict,
                  probes: int) -> Dict[str, float]:
    routed = median(op.seconds for op in _ops(windows, "op")) * 1e3
    direct = median(op.seconds for op in _ops(windows, "direct")) * 1e3
    return {
        "serve.router.direct_p50_ms": direct,
        "serve.router.hop_p50_ms": routed - direct,
        "serve.router.hello_rtt_ms":
            workload.hello_rtt_ms(workload.front, probes),
        "serve.router.routed_sessions": router["routed_sessions"],
    }


def reference_serve(tracer, seed: int, need_server: bool,
                    probes: int) -> Dict[str, float]:
    """Serve-tier unit costs for a workload that never crosses (part
    of) the serve tier: a one-shard thread-pool fleet serving sum32,
    a handful of routed and direct sessions, the same arithmetic as
    the real workloads.  Keeps every layer's cost in every traced run.
    """
    import workloads

    fleet = workloads.ReferenceFleet(seed, True, tracer)
    with tracer.span("reference.serve"):
        tracer.prefix = "reference."
        try:
            fleet.setup()
            windows = run_windows(fleet, 0.0, 0, read_rings=True)
            for op in (op for w in windows for op in w.ops):
                if not fleet.verify(op):
                    raise AssertionError(f"reference fleet: {op.error}")
            out = router_layers(fleet, windows, fleet.router_counters(),
                                probes)
            edge = fleet.hello_rtt_ms(fleet.shard_addr(), probes)
            counters = fleet.teardown()
        finally:
            tracer.prefix = ""
    del out["serve.router.routed_sessions"]  # a count of the workload's own
    if need_server:
        served = serve_layers(fleet, tracer, windows, counters,
                              "reference.serve.server.start")
        for name in ("serve.server.session_wall_p50_ms",
                     "serve.server.start_ms", "serve.server.shutdown_ms",
                     "serve.client.gap_p50_ms", "serve.client.cpu_ms_per_op"):
            out[name] = served[name]
        out["serve.edge.hello_rtt_ms"] = edge
    return out


def circuit_layers(workload, tracer, plain_walls: List[float],
                   plain_waits: List[tuple], scale: float,
                   reps: int) -> Dict[str, float]:
    """Layers measured on the workload's own netlist: the compiled
    sweep, the protocol phases, the obs phase table and one epoch of
    offline garbling."""
    import layers
    from repro import api

    net, cycles = workload.probe_circuit()
    out: Dict[str, float] = {}
    if not plain_walls:
        # A served workload: run its circuit in-process as well, plain
        # and with phase spans, to see the protocol without the server.
        for i in range(reps):
            t0 = perf_counter()
            res = api.run(net, workload.probe_inputs(i), mode="protocol",
                          ot="extension", cycles=cycles)
            plain_walls.append(perf_counter() - t0)
            plain_waits.append((res.alice_wait_seconds,
                                res.bob_wait_seconds))
            layers.run_parties(net, cycles, workload.probe_inputs(i),
                               tracer, None)
    out.update(layers.protocol_phase_ms(tracer))
    out["core.protocol.garbler_wait_s"] = median(w[0] for w in plain_waits)
    out["core.protocol.evaluator_wait_s"] = median(w[1] for w in plain_waits)
    obs, profiled_wall = layers.probe_obs(
        net, cycles, workload.probe_inputs(0))
    out.update(obs)
    out["obs.overhead_share"] = profiled_wall / median(plain_walls) - 1.0
    out.update(layers.probe_plan_cycle(net, workload.public_init(), cycles,
                                       budget_s=1.0 * scale))
    with tracer.span("gc.material.build"):
        out.update(layers.probe_material(net, cycles,
                                         workload.garbler_inputs(), reps=1))
    return out


def explained_ms(m: Dict[str, float], workload) -> Dict[str, float]:
    """Counts times unit costs, per layer, in ms per op.  The formula
    is spelled out in the README; it is a starting point for the
    waterfall of ROADMAP 1(b), not a gate."""
    hit = m["gc.material.hit_ratio"] if workload.served else 0.0
    tables = m["gc.garble.tables_per_op"]
    payload_mb = m["net.codec.payload_bytes_per_op"] / 1e6
    wire_mb = payload_mb * (1.0 + m["net.frame.overhead_share"])
    parts = {
        # Replayed material spares the garbler's sweep and its garbling.
        "core.plan": (2.0 - hit) * m["core.plan.cycles_per_op"]
                     * m["core.plan.us_per_cycle"] / 1e3,
        "gc.garble": tables * ((1.0 - hit) * m["gc.garble.us_per_garble"]
                               + m["gc.garble.us_per_eval"]) / 1e3,
        "gc.ot": m["gc.ot.base_phases_per_op"] * m["gc.ot.base_phase_ms"]
                 + m["gc.ot.transfers_per_op"]
                 * m["gc.ot_extension.us_per_ot"] / 1e3,
        "net.codec": payload_mb * 1e3 * (1.0 / m["net.codec.encode_mb_s"]
                                         + 1.0 / m["net.codec.decode_mb_s"]),
    }
    if workload.served:
        parts["net.frame"] = wire_mb * 1e3 * (
            1.0 / m["net.frame.encode_mb_s"] + 1.0 / m["net.frame.decode_mb_s"])
        parts["serve.edge"] = m["serve.edge.hello_rtt_ms"]
    if m["serve.router.routed_sessions"]:
        parts["serve.router"] = m["serve.router.hop_p50_ms"]
    return parts


def trace(workload, tracer, args, expected: dict) -> dict:
    import layers
    from repro.gc.hashing import HASH_STATS

    scale = 0.1 if args.quick else 1.0
    probes = 20 if args.quick else 200
    workload.setup()
    setup_s = perf_counter() - T0
    quarter = args.seconds / 4.0

    tracer.enabled = False
    hashes0 = HASH_STATS.calls
    plain = run_windows(workload, quarter, 0, workload.served)
    tracer.enabled = True
    first = sum(len(w.ops) for w in plain) + workload.clients
    traced = run_windows(workload, quarter, first, workload.served)
    hashes = HASH_STATS.calls - hashes0
    windows = plain + traced
    verdict = verify_ops(workload, windows, expected)
    all_ops = [op for w in windows for op in w.ops if op.error is None]

    m: Dict[str, float] = {}
    checks: Dict[str, bool] = {}
    if workload.served:
        edge = workload.hello_rtt_ms(workload.shard_addr(), probes)
        router = workload.router_counters()
        if router is not None:
            m.update(router_layers(workload, windows, router, probes))
        counters = workload.teardown()
        checks = serve_checks(workload, counters, router)
        m.update(serve_layers(workload, tracer, windows, counters))
        m["serve.edge.hello_rtt_ms"] = edge
        if router is None:
            m.update(reference_serve(tracer, args.seed, False, probes))
            m["serve.router.routed_sessions"] = 0
        plain_walls: List[float] = []
        plain_waits: List[tuple] = []
    else:
        workload.teardown()
        m.update(reference_serve(tracer, args.seed, True, probes))
        for name in ("serve.server.accepted", "serve.server.completed",
                     "serve.server.failed", "serve.server.rejected_busy",
                     "serve.client.retries", "serve.router.routed_sessions",
                     "gc.material.hit_ratio", "gc.material.epochs_built"):
            m[name] = 0
        plain_ops = _ops(plain)
        plain_walls = [op.seconds for op in plain_ops]
        plain_waits = [(op.garbler_wait_s, op.evaluator_wait_s)
                       for op in plain_ops]

    # Counts per op, from the workload's own ops.
    payload = mean_per_program(all_ops, "payload_bytes")
    m["gc.hashing.calls_per_op"] = hashes / len(all_ops)
    m["gc.garble.tables_per_op"] = mean_per_program(all_ops, "tables")
    m["net.codec.payload_bytes_per_op"] = payload
    m["net.frame.overhead_share"] = (
        mean_per_program(all_ops, "wire_bytes") / payload - 1.0)
    m["core.plan.cycles_per_op"] = (
        sum(c for _n, c in workload.circuits.values())
        / len(workload.circuits))
    m["gc.ot.base_phases_per_op"] = workload.base_ot_phases_per_op
    m["gc.ot.transfers_per_op"] = workload.ot_transfers_per_op()

    # Layers on the workload's netlist, then the workload-independent
    # unit costs.
    m.update(circuit_layers(workload, tracer, plain_walls, plain_waits, scale,
                            reps=1 if args.quick else 3))
    for probe in (layers.probe_hashing, layers.probe_garble, layers.probe_ot,
                  layers.probe_codec_frame, layers.probe_transport):
        with tracer.span(f"probe.{probe.__name__[6:]}"):
            m.update(probe(scale))

    # Build-stage spans: the workload's own where it has the stage,
    # the reference input otherwise.
    m["core.plan.compile_ms"] = _span_ms(tracer, "core.plan.compile")
    if _span_ms(tracer, "cc.compile") is None:
        layers.build_arm_machine("hamming32", tracer)
    if _span_ms(tracer, "workloads.build") is None:
        from repro.workloads import get_workload
        with tracer.span("workloads.build"):
            get_workload("psi-hash8x16").build()
    m["cc.compile_ms"] = _span_ms(tracer, "cc.compile")
    m["arm.machine_build_ms"] = _span_ms(tracer, "arm.machine_build")
    m["workloads.build_ms"] = _span_ms(tracer, "workloads.build")

    e2e = end_to_end(workload, plain)
    traced_p50 = end_to_end(workload, traced)["op_p50_ms"]["value"]
    parts = explained_ms(m, workload)
    m["bench.explained_share"] = sum(parts.values()) / e2e["op_p50_ms"]["value"]
    m["bench.trace_overhead_share"] = (
        traced_p50 / e2e["op_p50_ms"]["value"] - 1.0)
    e2e.update(process_metrics(setup_s, verdict))

    from spans import self_time_by_name, tree_errors

    os.makedirs(args.out, exist_ok=True)
    span_file = os.path.join(
        args.out, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write_jsonl(span_file)
    checks["span_tree_well_formed"] = not tree_errors(tracer.spans)
    return {
        "correct": verdict["failed"] == 0 and all(checks.values()),
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "metrics": {name: {"value": value} for name, value in m.items()},
        "untraced_end_to_end": e2e,
        "explained_ms": parts,
        "self_time_s": self_time_by_name(tracer.spans),
        "span_file": span_file,
        "span_counts": {"spans": len(tracer.spans),
                        "ops_traced": len(_ops(traced))},
        "checks": checks, "errors": verdict["errors"],
        "policy": policy(workload, plain, quarter),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    if cls.clients > nproc:
        print(f"{cls.name} needs {cls.clients} client threads but the host "
              f"has {nproc} cores; refusing to oversubscribe",
              file=sys.stderr)
        return 2
    if cls.clients == 1:
        pin_to_one_core()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    tracer = Tracer(enabled=args.mode == "trace")
    workload = cls(args.seed, args.quick, tracer)
    try:
        if args.mode == "setup":
            workload.setup()
            result = {"setup_s": perf_counter() - T0}
            workload.teardown()
        elif args.mode == "measure":
            result = measure(workload, args, expected)
        else:
            result = trace(workload, tracer, args, expected)
    finally:
        workload.stop()  # a no-op unless the run died half-way
        stop_forkserver()
    alive = multiprocessing.active_children()
    if alive:
        print(f"children still alive: {alive}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
