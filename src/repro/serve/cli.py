"""``python -m repro serve`` / ``python -m repro loadgen``.

Two-terminal deployment of the garbling service::

    # terminal 1 — long-lived garbler serving the registry circuits:
    python -m repro serve --circuit sum32 --value 1234 \\
        --listen 127.0.0.1:9200 --workers 4 --queue-depth 8

    # terminal 2 — 4 concurrent verified evaluator sessions:
    python -m repro loadgen --connect 127.0.0.1:9200 --circuit sum32 \\
        --clients 4 --server-value 1234

The server prints one ``ready`` line (JSON with the bound port) as
soon as it accepts, runs until SIGTERM/SIGINT (or ``--max-sessions``),
drains gracefully, and exits with a final stats record.  The load
generator exits non-zero if any session failed, was rejected, or
failed verification — the CI ``serve-smoke`` job is exactly this pair
of commands.
"""

from __future__ import annotations

import json
import signal
import sys

from ..net.tcp import parse_hostport


def _emit(args, record: dict) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True), flush=True)
        return
    for k, v in record.items():
        print(f"{k:20s}: {v}", flush=True)


def run_serve(args) -> int:
    from ..net.cli import circuit_names
    from ..obs import JsonlSink, Obs
    from .config import ServeConfig
    from .server import GarbleServer, registry_program

    names = list(args.circuit or ())
    if getattr(args, "workload", None):
        from ..workloads import SERVE_SETS

        for family in args.workload:
            names.extend(
                n for n in SERVE_SETS[family] if n not in names
            )
    if not names:
        names = list(circuit_names())
    programs = {name: registry_program(name, args.value) for name in names}
    obs = Obs(sink=JsonlSink(args.trace)) if args.trace else None
    config = ServeConfig.from_args(args)
    server = GarbleServer(
        programs,
        config=config,
        **({"obs": obs} if obs is not None else {}),
    )

    def _on_signal(signum, frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.start()
    # The ready line is a machine-readable contract: CI and the bench
    # wait for it (and read the bound port, crucial with port 0).
    print(
        json.dumps(
            {"event": "ready", "host": server.host, "port": server.port,
             "programs": sorted(programs), "workers": config.workers,
             "queue_depth": config.queue_depth, "pool": server.pool,
             "fleet": config.fleet},
            sort_keys=True,
        ),
        flush=True,
    )
    server.serve_forever()
    if obs is not None:
        obs.close()
    record = {"event": "stats"}
    record.update(server.stats_snapshot())
    record.pop("sessions", None)
    _emit(args, record)
    return 0 if server.stats.failed == 0 else 1


def run_router(args) -> int:
    from ..obs import JsonlSink, Obs
    from .config import RouterConfig
    from .router import SessionRouter

    obs = Obs(sink=JsonlSink(args.trace)) if args.trace else None
    config = RouterConfig.from_args(args)
    router = SessionRouter(
        config, **({"obs": obs} if obs is not None else {})
    )

    def _on_signal(signum, frame):
        router.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    router.start()
    # Same machine-readable ready contract as `repro serve`: CI waits
    # for this line and reads the bound port (crucial with port 0).
    print(
        json.dumps(
            {"event": "ready", "host": router.host, "port": router.port,
             "shards": [list(addr) for addr in config.shards]},
            sort_keys=True,
        ),
        flush=True,
    )
    router.serve_forever()
    if obs is not None:
        obs.close()
    record = {"event": "stats"}
    record.update(router.stats_snapshot())
    record.pop("config", None)
    _emit(args, record)
    return 0


def run_loadgen_cmd(args) -> int:
    from .loadgen import run_loadgen

    host, port = parse_hostport(args.connect)
    circuit = args.circuit
    if getattr(args, "workload", None) and circuit == "sum32":
        # --workload picked, --circuit left at its default: run the
        # family's default circuit.
        from ..workloads import DEFAULT_CIRCUIT

        circuit = DEFAULT_CIRCUIT[args.workload]
    report = run_loadgen(
        host,
        port,
        circuit,
        clients=args.clients,
        arrival=args.arrival,
        interval=args.interval,
        base_value=args.value_base,
        server_value=args.server_value,
        timeout=args.timeout,
        engine=args.engine,
        ot=args.ot,
        ot_group=args.ot_group,
        verify=not args.no_verify,
        client_procs=args.client_procs,
        client_prefix=args.client_prefix,
        warmup=args.warmup,
        busy_retries=args.busy_retries,
        workload=getattr(args, "workload", None),
    )
    _emit(args, report.to_record())
    if not args.json:
        for out in report.outcomes:
            status = "ok" if out.ok else ("busy" if out.busy else "FAILED")
            extra = f" ({out.error})" if out.error else ""
            print(f"  {out.session:28s} {status:6s} "
                  f"{out.seconds * 1e3:8.1f} ms{extra}")
    bad = report.failed + report.busy + len(report.verify_errors)
    return 0 if bad == 0 else 1


def run_chaos_cmd(args) -> int:
    from .chaos import run_chaos

    host, port = parse_hostport(args.connect)
    report = run_chaos(
        host,
        port,
        args.circuit,
        clients=args.clients,
        server_value=args.server_value,
        loris=args.loris,
        disconnects=args.disconnects,
        crashes=args.crashes,
        p95_factor=args.p95_factor,
        p95_slack=args.p95_slack,
        timeout=args.timeout,
        byte_interval=args.byte_interval,
    )
    record = report.to_record()
    adversaries = record.pop("adversaries")
    _emit(args, record)
    if not args.json:
        for a in adversaries:
            mark = "ok" if a["ok"] else "FAILED"
            extra = f" ({a['detail']})" if a["detail"] else ""
            print(f"  {a['kind']:28s} {mark}{extra}")
        for failure in report.failures:
            print(f"  FAILURE: {failure}")
    return 0 if report.ok else 1


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="long-lived multi-session garbling server",
        description="Serve the garbler side of registry circuits to many "
        "concurrent evaluator sessions over one TCP listener, with a "
        "bounded worker pool, admission control and graceful drain on "
        "SIGTERM.",
    )
    p.add_argument("--circuit", action="append", metavar="NAME",
                   help="registry circuit to serve (repeatable; "
                        "default: every registry circuit)")
    p.add_argument("--workload", action="append", choices=("psi",),
                   metavar="FAMILY",
                   help="serve a workload family's circuit set (its "
                        "default shape plus registered batch shapes; "
                        "repeatable, composes with --circuit)")
    p.add_argument("--value", type=lambda s: int(s, 0), default=0,
                   help="the garbler operand used for every session")
    p.add_argument("--listen", default="127.0.0.1:9200", metavar="HOST:PORT")
    p.add_argument("--workers", type=int, default=4,
                   help="concurrent session workers — one OS process "
                        "each under the default process pool (default 4)")
    p.add_argument("--pool", choices=("auto", "process", "thread"),
                   default="auto",
                   help="how workers are started: 'process' pins one "
                        "forkserver process per worker (true multi-core "
                        "garbling), 'thread' runs the same worker in "
                        "threads of this process, 'auto' (default) picks "
                        "process when the platform and programs allow it")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded accept queue; beyond it new sessions get "
                        "an immediate structured busy reject (default 8)")
    p.add_argument("--checkpoint-every", type=int, default=4, metavar="N",
                   help="checkpoint cadence imposed on every session")
    p.add_argument("--max-attempts", type=int, default=6,
                   help="per-session reconnect budget")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="receive deadline / resume window in seconds")
    p.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS")
    p.add_argument("--handshake-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="deadline from the first hello byte to a complete "
                        "hello; a slow-loris client is rejected here "
                        "(default 5)")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="how long a connection may sit without sending a "
                        "single byte before being closed (default 60)")
    p.add_argument("--replay-ttl", type=float, default=120.0,
                   metavar="SECONDS",
                   help="how long a finished session's result stays "
                        "replayable for a redialing client; 0 disables "
                        "the replay buffer (default 120)")
    p.add_argument("--max-connections", type=int, default=10000, metavar="N",
                   help="open-connection ceiling at the edge; beyond it "
                        "idle connections are shed before new ones are "
                        "refused (default 10000)")
    p.add_argument("--max-sessions", type=int, default=None, metavar="N",
                   help="drain and exit after N sessions finished (CI)")
    p.add_argument("--engine", choices=("compiled", "reference"),
                   default="compiled")
    p.add_argument("--ot", choices=("simplest", "extension"),
                   default="simplest")
    p.add_argument("--ot-group", choices=("modp512", "modp2048"),
                   default="modp512")
    p.add_argument("--no-precompute", action="store_true",
                   help="disable the offline phase (pre-garbled material "
                        "per program); every session garbles inline")
    p.add_argument("--material-depth", type=int, default=2, metavar="N",
                   help="delta epochs pre-garbled per program per worker "
                        "in the offline phase (default 2)")
    p.add_argument("--fleet", action="store_true",
                   help="run as a fleet shard: honor drain/adopt hellos "
                        "so a router can hand live sessions between "
                        "shards (see `repro router`)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write serve/session trace events as JSON lines")
    p.add_argument("--json", action="store_true",
                   help="emit the final stats as one JSON record")
    p.set_defaults(func=run_serve)


def add_router_parser(sub) -> None:
    p = sub.add_parser(
        "router",
        help="digest-affinity session router fronting serve shards",
        description="Front N `repro serve --fleet` shards with one "
        "listener: hellos are terminated here, sessions are redirected "
        "(`moved`) to a shard by program-digest rendezvous hashing (with "
        "session affinity), unhealthy shards are routed around, and "
        "op:drain hands a shard's live sessions to its peers mid-session.",
    )
    p.add_argument("--listen", default="127.0.0.1:9300", metavar="HOST:PORT")
    p.add_argument("--shard", action="append", required=True,
                   metavar="HOST:PORT", dest="shard",
                   help="a fleet shard's serve address, as clients "
                        "dial it (repeatable)")
    p.add_argument("--poll-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="health/backpressure stats poll cadence "
                        "(default 1.0)")
    p.add_argument("--dead-after", type=int, default=3, metavar="N",
                   help="consecutive failed polls before a shard is "
                        "routed around (default 3)")
    p.add_argument("--connect-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="deadline for dialing a shard (default 5)")
    p.add_argument("--handshake-timeout", type=float, default=5.0,
                   metavar="SECONDS",
                   help="deadline from first hello byte to a complete "
                        "hello (default 5)")
    p.add_argument("--idle-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="silent pre-hello connections are closed after "
                        "this (default 60)")
    p.add_argument("--max-connections", type=int, default=10000,
                   metavar="N",
                   help="open-connection ceiling (default 10000)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write router trace events as JSON lines")
    p.add_argument("--json", action="store_true",
                   help="emit the final stats as one JSON record")
    p.set_defaults(func=run_router)


def add_loadgen_parser(sub) -> None:
    p = sub.add_parser(
        "loadgen",
        help="spawn K verified evaluator clients against a serve instance",
        description="Run K concurrent evaluator sessions against a running "
        "`repro serve` server and verify every result; exits non-zero on "
        "any failed, rejected or unverified session.",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--circuit", default="sum32")
    p.add_argument("--workload", choices=("psi",), default=None,
                   help="treat the circuit as this workload family: "
                        "defaults --circuit to the family's default "
                        "shape and adds semantic verification of every "
                        "decoded result against the plain-python "
                        "oracle (requires --server-value)")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--arrival", choices=("burst", "paced"), default="burst")
    p.add_argument("--interval", type=float, default=0.05,
                   help="inter-arrival gap for --arrival paced (seconds)")
    p.add_argument("--value-base", type=lambda s: int(s, 0), default=1000,
                   help="client i uses operand value-base + i")
    p.add_argument("--server-value", type=lambda s: int(s, 0), default=None,
                   help="the server's --value; arms full result "
                        "verification against the local simulator")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--engine", choices=("compiled", "reference"),
                   default="compiled")
    p.add_argument("--ot", choices=("simplest", "extension"),
                   default="simplest")
    p.add_argument("--ot-group", choices=("modp512", "modp2048"),
                   default="modp512")
    p.add_argument("--client-procs", action="store_true",
                   help="run each client in its own OS process so the "
                        "load generator scales past one core (use when "
                        "measuring a multi-core server)")
    p.add_argument("--client-prefix", default=None, metavar="PREFIX",
                   help="give client i the stable identity "
                        "PREFIX-client-i across its sessions, arming "
                        "per-client base-OT reuse on the server")
    p.add_argument("--warmup", type=int, default=0, metavar="N",
                   help="unmeasured sessions per client before the "
                        "release barrier (measure the steady online "
                        "phase)")
    p.add_argument("--busy-retries", type=int, default=2, metavar="N",
                   help="per-client budget for re-dialing after a busy/"
                        "overload reject, honoring the server's "
                        "retry_after_s backoff hint (default 2; 0 "
                        "fails fast on the first reject)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=run_loadgen_cmd)


def add_chaos_parser(sub) -> None:
    p = sub.add_parser(
        "chaos",
        help="adversarial clients + verified load against a serve instance",
        description="Drive a running `repro serve` server with slow-loris "
        "hellos, mid-handshake disconnects and post-result crash/redial "
        "clients while a verified load generator runs; exits non-zero if "
        "any honest session suffered, any adversary escaped its "
        "structured reject, the replay recovery was not bit-identical, "
        "or p95 latency blew the budget.",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--circuit", default="sum32")
    p.add_argument("--clients", type=int, default=4,
                   help="well-behaved sessions per loadgen round")
    p.add_argument("--server-value", type=lambda s: int(s, 0), default=None,
                   help="the server's --value; arms bit-identity checks "
                        "for both the loadgen and the replay recovery")
    p.add_argument("--loris", type=int, default=2,
                   help="slow-loris adversaries (default 2)")
    p.add_argument("--disconnects", type=int, default=2,
                   help="mid-handshake disconnect adversaries (default 2)")
    p.add_argument("--crashes", type=int, default=1,
                   help="post-result crash + redial adversaries (default 1)")
    p.add_argument("--p95-factor", type=float, default=1.2,
                   help="adversarial p95 must stay within this factor of "
                        "the no-adversary baseline (default 1.2)")
    p.add_argument("--p95-slack", type=float, default=0.25,
                   metavar="SECONDS",
                   help="additive p95 slack absorbing scheduler noise on "
                        "sub-100ms baselines (default 0.25)")
    p.add_argument("--byte-interval", type=float, default=0.2,
                   metavar="SECONDS",
                   help="slow-loris trickle rate (default one byte per "
                        "0.2s)")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=run_chaos_cmd)
