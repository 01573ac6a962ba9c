"""Load generator: K concurrent evaluator clients against one server.

Spawns ``clients`` evaluator sessions against a running
:class:`~repro.serve.server.GarbleServer`, with a configurable
arrival pattern:

* ``"burst"`` — all clients released simultaneously through a barrier
  (stress admission control and worker-pool contention);
* ``"paced"`` — client *i* starts at ``i * interval`` seconds
  (steady-state arrivals).

Clients run as threads by default; ``client_procs=True`` runs each
client in its own OS process (forkserver) instead.  Thread clients
share one GIL, so with a multi-core *server* the load generator itself
becomes the bottleneck — the evaluator does real garbled-circuit work
per session.  The throughput-scaling benchmark uses process clients so
the measured figure is the server's.

Every session is **verified**: all sessions over the same operand must
be bit-identical to each other (outputs and non-XOR gate counts — the
determinism the paper's cost metric rests on), and when the caller
knows the server's garbler operand, each decoded value is additionally
checked against the local plain-simulator run of the same circuit.

The report carries sessions/sec and p50/p95 session latency — the
numbers ``benchmarks/bench_serve_throughput.py`` tracks.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import uuid
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter, sleep
from typing import Dict, List, Optional

from .client import ServeClient
from .handshake import ServerBusy


@dataclass
class SessionOutcome:
    """One client's view of its session."""

    session: str
    value: int
    ok: bool = False
    busy: bool = False
    seconds: float = 0.0
    result_value: Optional[int] = None
    outputs: Optional[List[int]] = None
    garbled_nonxor: Optional[int] = None
    reconnects: int = 0
    retries: int = 0
    error: Optional[str] = None


@dataclass
class LoadgenReport:
    """Aggregate of one load-generation run."""

    circuit: str
    clients: int
    arrival: str
    ok: int
    busy: int
    failed: int
    wall_seconds: float
    sessions_per_sec: float
    p50_seconds: float
    p95_seconds: float
    retries: int = 0
    outcomes: List[SessionOutcome] = field(default_factory=list)
    verify_errors: List[str] = field(default_factory=list)
    #: The workload family the run verified semantically (e.g.
    #: ``"psi"``), None for plain bench circuits.
    workload: Optional[str] = None

    def to_record(self) -> dict:
        """Flat JSON-able summary (the CLI's ``--json`` output)."""
        return {
            "circuit": self.circuit,
            "clients": self.clients,
            "arrival": self.arrival,
            "ok": self.ok,
            "busy": self.busy,
            "failed": self.failed,
            "retries": self.retries,
            "wall_seconds": round(self.wall_seconds, 4),
            "sessions_per_sec": round(self.sessions_per_sec, 3),
            "p50_seconds": round(self.p50_seconds, 4),
            "p95_seconds": round(self.p95_seconds, 4),
            "verify_errors": list(self.verify_errors),
            "workload": self.workload,
        }


def _client_id(spec: dict, i: int) -> Optional[str]:
    """Stable per-client identity (None when the run is anonymous)."""
    prefix = spec.get("client_prefix")
    return f"{prefix}-client-{i}" if prefix else None


def _make_client(host: str, port: int, i: int, spec: dict) -> ServeClient:
    """Client *i*'s endpoint handle, carrying its session defaults."""
    return ServeClient(
        host, port,
        client_id=_client_id(spec, i),
        timeout=spec["timeout"], max_attempts=spec["max_attempts"],
        engine=spec["engine"], ot=spec["ot"], ot_group=spec["ot_group"],
    )


def _warmup_client(i: int, value: int, client: ServeClient, circuit: str,
                   net, spec: dict) -> None:
    """Unmeasured sessions before the release barrier.

    Primes the serve-side caches for this client's identity (base-OT
    material after the first extension session) so the measured window
    observes the steady online phase, not first-contact costs.
    """
    for w in range(spec.get("warmup", 0)):
        client.run(circuit, value,
                   session_id=f"{spec['prefix']}-warm-{i}-{w}", net=net)


def _one_session(out: SessionOutcome, client: ServeClient, circuit: str,
                 net, spec: dict) -> None:
    """Run one evaluator session, recording the outcome in ``out``.

    A busy/overload reject is retried up to ``spec["busy_retries"]``
    times, sleeping the server's ``retry_after_s`` backoff hint between
    attempts — the structured reject exists so honest clients yield
    exactly as long as the server asks, instead of hammering or giving
    up.  Exhausting the budget records the session as ``busy``.
    """
    budget = spec.get("busy_retries", 0)
    t0 = perf_counter()
    try:
        while True:
            try:
                res = client.run(circuit, out.value,
                                 session_id=out.session, net=net)
            except ServerBusy as exc:
                if budget <= 0:
                    out.busy = True
                    out.error = str(exc)
                    return
                budget -= 1
                out.retries += 1
                hint = exc.welcome.get("retry_after_s")
                delay = hint if isinstance(hint, (int, float)) else 0.1
                sleep(min(max(float(delay), 0.0), 5.0))
            except BaseException as exc:
                out.error = f"{type(exc).__name__}: {exc}"
                return
            else:
                out.ok = True
                out.result_value = res.value
                out.outputs = list(res.outputs)
                out.garbled_nonxor = res.stats.garbled_nonxor
                out.reconnects = res.reconnects
                return
    finally:
        out.seconds = perf_counter() - t0


def _proc_client_main(i: int, barrier, outq, host: str, port: int,
                      circuit: str, arrival: str, interval: float,
                      session: str, value: int, spec: dict) -> None:
    """One process client (module-level so forkserver can import it).

    Builds its own netlist *before* the release barrier so per-process
    setup cost never pollutes the measured window, then runs exactly
    the thread client's session path.
    """
    out = SessionOutcome(session=session, value=value)
    try:
        from ..core.trace import residual_trace
        from ..net.cli import _registry

        net, cycles = _registry()[circuit].build()
        # Thread clients share one process-wide trace cache, so all
        # but the first session replay a warm trace; give each client
        # process the same footing before the measured window.
        residual_trace(net, cycles, engine=spec["engine"])
        client = _make_client(host, port, i, spec)
        warmed = True
        try:
            _warmup_client(i, value, client, circuit, net, spec)
        except BaseException as exc:
            # Reach the barrier regardless: one client's warmup failure
            # must not strand the others' release.
            out.error = f"warmup failed: {type(exc).__name__}: {exc}"
            warmed = False
        barrier.wait()
        if warmed:
            if arrival == "paced" and i:
                sleep(i * interval)
            _one_session(out, client, circuit, net, spec)
    except BaseException as exc:  # noqa: BLE001 - ship, don't hang parent
        if out.error is None:
            out.error = f"{type(exc).__name__}: {exc}"
    finally:
        outq.put((i, out))


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty).

    Uses the ceil-based nearest-rank definition: the smallest value
    with at least ``q`` of the sample at or below it.  The previous
    ``round(q * (n - 1))`` form leaned on banker's rounding, so at
    small N the p95 could land *below* the p50's rank neighbourhood
    (e.g. n=2 gave p95 = the minimum).
    """
    n = len(sorted_vals)
    if not n:
        return 0.0
    idx = min(n - 1, max(0, ceil(q * n) - 1))
    return sorted_vals[idx]


def run_loadgen(
    host: str,
    port: int,
    circuit: str,
    clients: int = 4,
    *,
    arrival: str = "burst",
    interval: float = 0.05,
    base_value: int = 1000,
    values: Optional[List[int]] = None,
    server_value: Optional[int] = None,
    session_prefix: Optional[str] = None,
    timeout: Optional[float] = 30.0,
    max_attempts: int = 3,
    engine: str = "compiled",
    ot: str = "simplest",
    ot_group: str = "modp512",
    verify: bool = True,
    client_procs: bool = False,
    client_prefix: Optional[str] = None,
    warmup: int = 0,
    busy_retries: int = 2,
    workload: Optional[str] = None,
) -> LoadgenReport:
    """Run ``clients`` verified sessions and aggregate the outcome.

    Client *i* uses Bob operand ``values[i]`` (default
    ``base_value + i``).  ``server_value`` — the garbler's operand, if
    the caller controls the server — arms full result verification
    against the local simulator.  A :class:`ServerBusy` reject counts
    as ``busy``, any other failure as ``failed``; both leave
    ``ok`` sessions unaffected.  ``client_procs=True`` runs each
    client in its own process (see the module docstring).

    ``client_prefix`` gives client *i* the stable identity
    ``f"{client_prefix}-client-{i}"`` across its sessions, arming the
    serve layer's per-client caches (base-OT reuse).  ``warmup`` runs
    that many unmeasured sessions per client *before* the release
    barrier, so the measured window is the steady online phase — the
    offline/online split benchmark measures its "online" wave this
    way.  A warmup failure marks the client failed without running its
    measured session.

    ``busy_retries`` is each client's budget for re-dialing after a
    busy/overload reject, sleeping the server's ``retry_after_s`` hint
    between attempts; the total number of such retries lands in the
    report's ``retries`` counter.  Pass 0 for the old fail-fast
    behaviour (admission-control tests want the reject itself).

    ``workload`` names a workload family (``"psi"``) whose circuits
    carry application semantics beyond the bit-level contract: on top
    of the standard ``_verify`` pass (cross-session bit-identity +
    local simulator), each ok outcome's decoded result is checked
    against the family's plain-python oracle
    (:func:`repro.workloads.verify_outcomes` — intersection sizes and
    membership flags for PSI).  Requires ``server_value``.
    """
    if arrival not in ("burst", "paced"):
        raise ValueError(f"unknown arrival pattern {arrival!r}")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if workload is not None:
        from ..workloads import WORKLOAD_FAMILIES

        if workload not in WORKLOAD_FAMILIES:
            raise ValueError(
                f"unknown workload family {workload!r}; "
                f"known: {list(WORKLOAD_FAMILIES)}"
            )
    from ..net.cli import _registry

    entry = _registry()[circuit]
    #: One netlist shared by every client thread: same sharing shape
    #: as the server, exercising the thread-safe plan cache.  (Process
    #: clients each rebuild their own; this one still feeds _verify.)
    net, cycles = entry.build()
    vals = list(values) if values is not None else [
        base_value + i for i in range(clients)
    ]
    if len(vals) != clients:
        raise ValueError("values must have one entry per client")
    prefix = session_prefix or f"loadgen-{uuid.uuid4().hex[:8]}"
    spec = {
        "timeout": timeout, "max_attempts": max_attempts,
        "engine": engine, "ot": ot, "ot_group": ot_group,
        "client_prefix": client_prefix, "warmup": warmup,
        "prefix": prefix, "busy_retries": busy_retries,
    }

    outcomes = [
        SessionOutcome(session=f"{prefix}-{i}", value=vals[i])
        for i in range(clients)
    ]

    if client_procs:
        wall = _run_process_clients(
            outcomes, host, port, circuit, arrival, interval, spec
        )
    else:
        wall = _run_thread_clients(
            outcomes, host, port, circuit, net, arrival, interval, spec
        )

    ok = [o for o in outcomes if o.ok]
    busy = [o for o in outcomes if o.busy]
    failed = [o for o in outcomes if not o.ok and not o.busy]
    verify_errors: List[str] = []
    if verify and ok:
        verify_errors = _verify(entry, net, cycles, ok, server_value)
    if workload and ok:
        from ..workloads import verify_outcomes

        verify_errors = verify_errors + verify_outcomes(
            circuit, server_value, ok
        )

    latencies = sorted(o.seconds for o in ok)
    return LoadgenReport(
        circuit=circuit,
        clients=clients,
        arrival=arrival,
        ok=len(ok),
        busy=len(busy),
        failed=len(failed),
        wall_seconds=wall,
        sessions_per_sec=(len(ok) / wall) if wall > 0 else 0.0,
        p50_seconds=_percentile(latencies, 0.50),
        p95_seconds=_percentile(latencies, 0.95),
        retries=sum(o.retries for o in outcomes),
        outcomes=outcomes,
        verify_errors=verify_errors,
        workload=workload,
    )


def _run_thread_clients(outcomes: List[SessionOutcome], host: str,
                        port: int, circuit: str, net, arrival: str,
                        interval: float, spec: dict) -> float:
    """Thread clients behind a release barrier; returns wall seconds."""
    clients = len(outcomes)
    barrier = threading.Barrier(clients + 1)
    t_zero: List[float] = [0.0]

    def client_main(i: int) -> None:
        client = _make_client(host, port, i, spec)
        warmed = True
        try:
            _warmup_client(i, outcomes[i].value, client, circuit, net,
                           spec)
        except BaseException as exc:
            outcomes[i].error = (
                f"warmup failed: {type(exc).__name__}: {exc}"
            )
            warmed = False
        barrier.wait()
        if not warmed:
            return
        if arrival == "paced":
            wake = t_zero[0] + i * interval
            delay = wake - perf_counter()
            if delay > 0:
                sleep(delay)
        _one_session(outcomes[i], client, circuit, net, spec)

    threads = [
        threading.Thread(target=client_main, args=(i,),
                         name=f"loadgen-{i}", daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t_zero[0] = perf_counter()
    wall0 = perf_counter()
    for t in threads:
        t.join()
    return perf_counter() - wall0


def _run_process_clients(outcomes: List[SessionOutcome], host: str,
                         port: int, circuit: str, arrival: str,
                         interval: float, spec: dict) -> float:
    """One OS process per client; returns wall seconds.

    The barrier releases only after every process has built its
    netlist, so the measured window starts with all clients poised to
    dial, matching the thread path's semantics.
    """
    clients = len(outcomes)
    ctx = multiprocessing.get_context("forkserver")
    barrier = ctx.Barrier(clients + 1)
    outq = ctx.Queue()
    procs = [
        ctx.Process(
            target=_proc_client_main,
            args=(i, barrier, outq, host, port, circuit, arrival,
                  interval, outcomes[i].session, outcomes[i].value, spec),
            name=f"loadgen-{i}", daemon=True,
        )
        for i in range(clients)
    ]
    for p in procs:
        p.start()
    try:
        # A child that dies before reaching the barrier (import error,
        # OOM kill) must break it rather than deadlock the run; the
        # break propagates to the surviving children, whose outcome
        # messages then carry the BrokenBarrierError.
        barrier.wait(timeout=120.0)
    except threading.BrokenBarrierError:
        pass
    wall0 = perf_counter()
    got = 0
    while got < clients:
        try:
            i, out = outq.get(timeout=5.0)
        except queue.Empty:
            if any(p.is_alive() for p in procs):
                continue
            # Every process exited without reporting (killed hard):
            # whatever outcomes are missing stay at their error-free
            # defaults with ok=False, which counts as failed below.
            for o in outcomes:
                if o.error is None and not o.ok and not o.busy:
                    o.error = "client process died without reporting"
            break
        outcomes[i] = out
        got += 1
    wall = perf_counter() - wall0
    for p in procs:
        p.join()
    return wall


def _verify(entry, net, cycles, ok_outcomes, server_value) -> List[str]:
    """Cross-session and (optionally) against-simulator verification."""
    errors: List[str] = []
    # Sessions sharing an operand must be bit-identical to each other.
    by_value: Dict[int, SessionOutcome] = {}
    for o in ok_outcomes:
        first = by_value.setdefault(o.value, o)
        if first is not o:
            if o.outputs != first.outputs:
                errors.append(
                    f"{o.session}: outputs diverge from {first.session} "
                    f"for the same operand"
                )
            if o.garbled_nonxor != first.garbled_nonxor:
                errors.append(
                    f"{o.session}: gate count {o.garbled_nonxor} != "
                    f"{first.garbled_nonxor} ({first.session})"
                )
    if server_value is None:
        return errors
    # Full result check against the local plain run of the circuit.
    from .. import api

    expected: Dict[int, object] = {}
    for o in ok_outcomes:
        ref = expected.get(o.value)
        if ref is None:
            ref = api.run(
                net,
                {
                    "alice": entry.alice_source(server_value, cycles),
                    "bob": entry.bob_source(o.value, cycles),
                },
                mode="local",
                cycles=cycles,
            )
            expected[o.value] = ref
        if o.result_value != ref.value or o.outputs != list(ref.outputs):
            errors.append(
                f"{o.session}: decoded value {o.result_value} != "
                f"local reference {ref.value}"
            )
        if o.garbled_nonxor != ref.stats.garbled_nonxor:
            errors.append(
                f"{o.session}: gate count {o.garbled_nonxor} != local "
                f"reference {ref.stats.garbled_nonxor}"
            )
    return errors
