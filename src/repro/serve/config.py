"""Frozen configuration for the serve tier.

:class:`ServeConfig` gathers the ~20 tuning knobs that used to travel
as loose keyword arguments through ``GarbleServer``, ``AsyncEdge`` and
``serve/cli.py`` into one frozen dataclass: build it once (directly,
or from the CLI namespace via :meth:`ServeConfig.from_args`), hand it
to ``GarbleServer(programs, config=cfg)`` or
``repro.api.run(mode="serve", config=cfg)``, and read it back verbatim
from any ``op: "stats"`` reply (the ``config`` field of the snapshot).

:class:`RouterConfig` is the equivalent for the fleet router tier
(:mod:`repro.serve.router`): listener knobs shared with the edge plus
the routing-specific ones (shard poll cadence, failure threshold,
reconnect-stickiness table size).

Both are frozen — a running server's behavior is fully described by
the config it echoes, and nothing mutates it after construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Tuple

from ..net.tcp import parse_hostport  # re-exported: its public home
from .handshake import MAX_HELLO_BYTES

__all__ = ["ServeConfig", "RouterConfig", "parse_hostport"]


@dataclass(frozen=True)
class ServeConfig:
    """Every tuning knob of one :class:`~repro.serve.server.GarbleServer`.

    Defaults match the historical keyword defaults, so
    ``GarbleServer(programs)`` and
    ``GarbleServer(programs, config=ServeConfig())`` are the same
    server.  The workload (``programs``) and instrumentation (``obs``)
    stay separate arguments — they are not tuning knobs.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    queue_depth: int = 8
    checkpoint_every: int = 4
    timeout: Optional[float] = 30.0
    resume_window: Optional[float] = None
    max_attempts: int = 6
    handshake_timeout: float = 5.0
    idle_timeout: Optional[float] = 60.0
    replay_ttl: float = 120.0
    replay_capacity: int = 256
    max_connections: int = 10_000
    max_hello_bytes: int = MAX_HELLO_BYTES
    ot: str = "simplest"
    ot_group: str = "modp512"
    engine: str = "compiled"
    heartbeat: Optional[float] = None
    max_sessions: Optional[int] = None
    pool: str = "auto"
    #: Offline/online split: pre-garble ``material_depth`` delta epochs
    #: per program before serving, so admitted sessions replay cached
    #: material and the online path is evaluate+OT.
    precompute: bool = True
    material_depth: int = 2
    #: Fleet flag: accept ``op: "adopt"`` hellos carrying another
    #: shard's handoff bundle (pickled session state — shards share a
    #: trust domain, so this stays off outside a fleet deployment) and
    #: honor ``op: "drain"`` requests naming handoff peers.
    fleet: bool = False

    @classmethod
    def from_args(cls, args) -> "ServeConfig":
        """Build from the ``repro serve`` argparse namespace."""
        host, port = parse_hostport(args.listen)
        return cls(
            host=host,
            port=port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            checkpoint_every=args.checkpoint_every,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            handshake_timeout=args.handshake_timeout,
            idle_timeout=args.idle_timeout,
            replay_ttl=args.replay_ttl,
            max_connections=args.max_connections,
            ot=args.ot,
            ot_group=args.ot_group,
            engine=args.engine,
            heartbeat=args.heartbeat,
            max_sessions=args.max_sessions,
            pool=args.pool,
            precompute=not args.no_precompute,
            material_depth=args.material_depth,
            fleet=getattr(args, "fleet", False),
        )

    def replace(self, **changes) -> "ServeConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Flat JSON-friendly dict — echoed under ``config`` in every
        ``op: "stats"`` snapshot."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of one :class:`~repro.serve.router.SessionRouter`."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Shards to route over, as ``[(host, port), ...]``.
    shards: Tuple[Tuple[str, int], ...] = ()
    handshake_timeout: float = 5.0
    idle_timeout: Optional[float] = 60.0
    max_hello_bytes: int = MAX_HELLO_BYTES
    max_connections: int = 10_000
    #: Seconds between background ``op: "stats"`` health polls.
    poll_interval: float = 1.0
    #: Consecutive failed polls before a shard is considered dead and
    #: taken out of the rendezvous ring.
    dead_after: int = 3
    #: Dial deadline for shard connections (polls and control ops).
    connect_timeout: float = 5.0
    #: Bounded session-id -> shard stickiness table (a result probe,
    #: or a client redialling the front, must find the session's shard).
    route_table_size: int = 10_000

    @classmethod
    def from_args(cls, args) -> "RouterConfig":
        """Build from the ``repro router`` argparse namespace."""
        host, port = parse_hostport(args.listen)
        shards = tuple(parse_hostport(s) for s in (args.shard or ()))
        return cls(
            host=host,
            port=port,
            shards=shards,
            handshake_timeout=args.handshake_timeout,
            idle_timeout=args.idle_timeout,
            max_connections=args.max_connections,
            poll_interval=args.poll_interval,
            dead_after=args.dead_after,
            connect_timeout=args.connect_timeout,
        )

    def replace(self, **changes) -> "RouterConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["shards"] = [list(s) for s in self.shards]
        return data
