"""Digest-affinity session router for a sharded serve fleet.

:class:`SessionRouter` is a lightweight asyncio tier that fronts N
independent :class:`~repro.serve.server.GarbleServer` shards.  It is
the second owner of the serve tier's one front door,
:class:`~repro.serve.edge.AsyncEdge`: the edge listens, parses the
``serve-hello`` under its per-state deadlines, sheds idle connections
and writes every pre-admission reject, exactly as it does for a shard.
The router starts at the parsed hello and makes the one decision a
fleet needs — *which shard holds this program's material, base-OT
state and checkpoints* — then answers ``{"status": "moved", "peer":
[host, port]}`` and steps aside.  The client follows the redirect
(the same one a draining shard sends on handoff), re-sends its hello
to the shard and rewrites its dial target, so the session, every
redial of it and every garbled table travel point-to-point: no
protocol byte ever crosses the router.  The shard addresses the router
is given are therefore the addresses clients dial, and must be
reachable from them.

Routing policy:

* **Session affinity** — a hello naming a known session id routes to
  the shard already pinned for it (a bounded FIFO table), so a result
  probe — which names no program — and a client that redials the front
  find their worker.
* **Digest affinity** — a fresh session routes by rendezvous (HRW)
  hashing over the live, non-draining shard set, keyed by the
  *program digest* learned from shard stats polls (falling back to the
  program name before the first poll lands).  This is the same
  :func:`~repro.serve.fleet.rendezvous_select` a draining shard uses
  to pick adoption peers, so router routing and drain-time handoff
  agree without coordination; and because HRW moves only the keys a
  leaving shard owned, shard churn re-routes the minimum.
* **Health / backpressure** — a background task (on the edge's loop)
  polls every shard's ``op: "stats"`` on ``poll_interval``;
  ``dead_after`` consecutive failures mark a shard dead (routed around
  until it answers again), and a draining shard stops receiving fresh
  sessions immediately.  With no live shard the router answers the
  fleet-level structured ``busy`` reject with the edge's
  ``retry_after_s`` backoff guidance.
* **Fleet ops** — ``op: "fleet-stats"`` probes every shard live and
  answers the aggregated fleet view; ``op: "drain"`` tells one shard
  (named in the hello) to drain, handing it the rest of the live fleet
  as adoption peers, and relays the shard's answer.

The router holds no session state beyond the pin table: kill it
mid-session and nothing in flight notices (redials go straight to the
shard); restart it, and a client dialling the front re-pins via
rendezvous (same digest, same shard) or follows the shard's own
``moved`` redirect.
"""

from __future__ import annotations

import asyncio
import threading
from time import monotonic
from typing import Dict, List, Optional, Tuple

from ..gc.channel import FrameCorruption
from ..net.codec import decode, encode
from ..net.frame import FRAME_DATA, FrameDecoder, encode_frame
from ..obs import NULL_OBS
from .config import RouterConfig
from .edge import AsyncEdge
from .fleet import aggregate_shard_stats, rendezvous_select
from .handshake import HELLO, WELCOME

#: Router-side counters (reported by ``op: "stats"``).  The second
#: block is the edge's vocabulary: the names it bumps before a hello
#: is parsed, the same ones a shard reports.
ROUTER_COUNTERS = (
    "routed_sessions",
    "routed_results",
    "rejected_busy",
    "rejected_error",
    "stats_probes",
    "fleet_probes",
    "drains",
    "shard_reloads",
    "poll_errors",
    "handshake_rejects",
    "handshake_timeouts",
    "idle_timeouts",
    "idle_shed",
    "rejected_overload",
)


def _frame(tag: str, payload) -> bytes:
    return encode_frame(FRAME_DATA, 1, tag, encode(payload))


class _ShardState:
    """Router-side view of one shard, updated by the poll task."""

    __slots__ = ("addr", "healthy", "draining", "fails", "snapshot",
                 "digests", "polled_at")

    def __init__(self, addr: Tuple[str, int]) -> None:
        self.addr = addr
        #: Optimistic until proven dead: the fleet must route before
        #: the first poll round completes.
        self.healthy = True
        self.draining = False
        self.fails = 0
        self.snapshot: Optional[dict] = None
        self.digests: Dict[str, str] = {}
        self.polled_at = 0.0

    @property
    def id(self) -> str:
        return "%s:%d" % self.addr

    def describe(self) -> dict:
        return {
            "id": self.id,
            "healthy": self.healthy,
            "draining": self.draining,
            "stats": self.snapshot,
        }


class SessionRouter:
    """Asyncio router fronting a fleet of garbling shards."""

    def __init__(self, config: RouterConfig, obs=NULL_OBS) -> None:
        if not config.shards:
            raise ValueError("a router needs at least one shard")
        self.config = config
        self.obs = obs
        self.shards: List[_ShardState] = [
            _ShardState((str(h), int(p))) for h, p in config.shards
        ]
        self._by_addr = {s.addr: s for s in self.shards}
        #: sid -> shard addr, bounded FIFO (dict preserves insertion
        #: order; the oldest pin is evicted at capacity).
        self._pins: Dict[str, Tuple[str, int]] = {}
        self._counters = {name: 0 for name in ROUTER_COUNTERS}
        self._counter_lock = threading.Lock()
        # The front door: everything up to a parsed hello is the
        # edge's, counted into this router's table.
        self._edge = AsyncEdge(config, self._on_hello, counter=self.bump)
        self.host, self.port = self._edge.host, self._edge.port
        self._stop_requested = threading.Event()
        self._poll = None  # the poll loop's future, once started
        self._routing: set = set()  # in-flight ``_route`` tasks

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SessionRouter":
        if self._poll is not None:
            return self
        self._edge.start()
        loop = self._edge.loop
        # One blocking poll round before announcing readiness:
        # routing prefers the program digest, and the digest map
        # comes from shard stats — without this, the first
        # sessions race the first poll and fall back to routing
        # by program name, which may hash to a different shard.
        asyncio.run_coroutine_threadsafe(self._poll_round(), loop).result()
        # Held so the task is referenced; the edge cancels and awaits
        # it, with every in-flight ``_route``, when it stops.
        self._poll = asyncio.run_coroutine_threadsafe(self._poll_loop(), loop)
        return self

    def _on_hello(self, conn, hello: dict, leftover: bytes) -> None:
        """Edge callback (loop thread): answer later, from a task.
        ``leftover`` is ignored — a client sends nothing before its
        welcome, and re-sends its hello to the shard after ``moved``."""
        task = asyncio.get_running_loop().create_task(
            self._route(conn, hello))
        # The loop holds its tasks only weakly.
        self._routing.add(task)
        task.add_done_callback(self._routing.discard)

    async def _route(self, conn, hello: dict) -> None:
        """Answer one hello: a control op locally, a session or result
        hello with the ``moved`` redirect to its shard."""
        answer = conn.answer
        try:
            op = hello.get("op", "session")
            if op == "stats":
                self.bump("stats_probes")
                answer({"status": "stats", "stats": self.stats_snapshot()})
                return
            if op == "fleet-stats":
                self.bump("fleet_probes")
                answer({"status": "fleet-stats",
                        **(await self.fleet_stats())})
                return
            if op == "drain":
                self.bump("drains")
                answer(await self.start_drain(hello))
                return
            if op == "reload-shards":
                answer(await self.reload_shards(hello))
                return
            sid = hello.get("session")
            if not isinstance(sid, str) or not sid:
                answer({"status": "error",
                        "reason": "hello carries no session id"},
                       counter="rejected_error")
                return
            shard = self.route(sid, hello)
            if shard is None:
                # The fleet-level structured ``busy`` reject.
                answer(
                    {"status": "busy",
                     "reason": "no live shard can take this session",
                     "retry_after_s": self._edge.retry_after(pressure=True)},
                    counter="rejected_busy",
                )
                return
            self.bump("routed_results" if op == "result"
                      else "routed_sessions")
            answer({"status": "moved", "peer": list(shard.addr)})
        except Exception:
            answer({"status": "error", "reason": "router internal error"},
                   counter="rejected_error")

    def shutdown(self) -> None:
        """Idempotent, as :meth:`AsyncEdge.stop` is."""
        self._stop_requested.set()
        self._edge.stop()

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask :meth:`serve_forever` to return."""
        self._stop_requested.set()

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (or ``shutdown``)."""
        self._stop_requested.wait()
        self.shutdown()

    def __enter__(self) -> "SessionRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- counters -----------------------------------------------------

    def bump(self, name: str, n: int = 1) -> None:
        with self._counter_lock:
            # ``get``: also the edge's counter hook, run inside loop
            # callbacks, where a name outside ROUTER_COUNTERS must
            # count rather than raise.
            self._counters[name] = self._counters.get(name, 0) + n
        if self.obs.enabled:
            self.obs.inc(f"router.{name}", n)

    def stats_snapshot(self) -> dict:
        with self._counter_lock:
            snap = dict(self._counters)
        snap.update(
            shards=[s.describe() for s in self.shards],
            pinned_sessions=len(self._pins),
            open_connections=self._edge.connection_counts()["open"],
            config=self.config.to_dict(),
        )
        return snap

    # -- routing policy -----------------------------------------------

    def _live(self, fresh: bool) -> List[Tuple[str, int]]:
        """Shard addresses eligible for routing; ``fresh`` excludes
        draining shards (they reject new sessions but must still see
        redials of the sessions they hold)."""
        return [
            s.addr for s in self.shards
            if s.healthy and not (fresh and s.draining)
        ]

    def _digest_for(self, program: Optional[str]) -> Optional[str]:
        if not isinstance(program, str):
            return None
        for s in self.shards:
            d = s.digests.get(program)
            if d:
                return d
        return None

    def route(self, sid: str, hello: dict) -> Optional[_ShardState]:
        """Pick the shard for this hello (loop thread only)."""
        pinned = self._pins.get(sid)
        if pinned is not None:
            shard = self._by_addr.get(pinned)
            if shard is not None and shard.healthy:
                return shard
        fresh = hello.get("op", "session") == "session" and pinned is None
        live = self._live(fresh=fresh)
        if not live:
            return None
        key = self._digest_for(hello.get("program")) \
            or hello.get("program") or sid
        if not isinstance(key, str):
            key = sid
        addr = rendezvous_select(key, live)
        if addr is None:
            return None
        self.pin(sid, addr)
        return self._by_addr[addr]

    def pin(self, sid: str, addr: Tuple[str, int]) -> None:
        pins = self._pins
        pins.pop(sid, None)
        pins[sid] = addr
        while len(pins) > self.config.route_table_size:
            pins.pop(next(iter(pins)))

    # -- shard control probes -----------------------------------------

    async def _probe(self, addr: Tuple[str, int], hello: dict,
                     timeout: Optional[float] = None) -> dict:
        """One async hello/welcome exchange against a shard."""
        timeout = timeout or self.config.connect_timeout
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(addr[0], addr[1]), timeout=timeout
        )
        try:
            writer.write(_frame(HELLO, hello))
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            decoder = FrameDecoder()
            deadline = monotonic() + max(timeout, 5.0)
            while True:
                chunk = await asyncio.wait_for(
                    reader.read(65536),
                    timeout=max(deadline - monotonic(), 0.01),
                )
                if not chunk:
                    raise OSError("shard closed during probe")
                for frame in decoder.feed(chunk):
                    if frame.ftype != FRAME_DATA or frame.tag != WELCOME:
                        continue  # heartbeats / stray frames
                    payload = decode(frame.payload)
                    if isinstance(payload, dict):
                        return payload
                    raise OSError("malformed welcome from shard")
        finally:
            writer.close()

    async def _poll_shard(self, shard: _ShardState) -> None:
        try:
            welcome = await self._probe(shard.addr, {"op": "stats"})
            stats = welcome.get("stats")
            if welcome.get("status") != "stats" \
                    or not isinstance(stats, dict):
                raise OSError(f"bad stats reply from {shard.id}")
        except (OSError, asyncio.TimeoutError, ValueError,
                FrameCorruption):
            shard.fails += 1
            self.bump("poll_errors")
            if shard.fails >= self.config.dead_after:
                shard.healthy = False
            return
        shard.fails = 0
        shard.healthy = True
        shard.draining = bool(stats.get("draining"))
        shard.snapshot = stats
        digests = stats.get("program_digests")
        if isinstance(digests, dict):
            shard.digests = {str(k): str(v) for k, v in digests.items()}
        shard.polled_at = monotonic()

    async def _poll_round(self) -> None:
        await asyncio.gather(*(self._poll_shard(s) for s in self.shards))

    async def _poll_loop(self) -> None:
        while True:
            await self._poll_round()
            await asyncio.sleep(self.config.poll_interval)

    async def fleet_stats(self) -> dict:
        """Live fleet aggregate: probe every shard now (a dead shard
        contributes its health flag and no stats)."""
        await asyncio.gather(*(self._poll_shard(s) for s in self.shards))
        members = [s.describe() for s in self.shards]
        snapshots = [s.snapshot for s in self.shards
                     if s.healthy and s.snapshot is not None]
        return {
            "router": self.stats_snapshot(),
            "shards": members,
            "aggregate": aggregate_shard_stats(snapshots),
        }

    async def start_drain(self, hello: dict) -> dict:
        """``op: "drain"``: drain the named shard, giving it the rest
        of the live fleet as adoption peers."""
        target = hello.get("shard")
        try:
            addr = (str(target[0]), int(target[1]))
        except (TypeError, ValueError, IndexError):
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "drain needs a shard: [host, port]"}
        shard = self._by_addr.get(addr)
        if shard is None:
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": f"unknown shard {target!r}",
                    "shards": [list(s.addr) for s in self.shards]}
        peers = [list(s.addr) for s in self.shards
                 if s.addr != addr and s.healthy and not s.draining]
        # Mark draining immediately: fresh sessions must stop landing
        # on this shard even before the next poll confirms.
        shard.draining = True
        try:
            welcome = await self._probe(
                addr, {"op": "drain", "peers": peers}
            )
        except (OSError, asyncio.TimeoutError, FrameCorruption):
            return {"status": "error",
                    "reason": f"shard {shard.id} did not answer the "
                              "drain"}
        return welcome

    async def reload_shards(self, hello: dict) -> dict:
        """``op: "reload-shards"``: swap shard membership live.

        The hello's ``shards`` list is the complete new membership.
        Disruption is minimal by construction: surviving shards keep
        their :class:`_ShardState` (health, digest map, snapshot) and
        their pins, so sessions routed to them stay put; HRW hashing
        guarantees a key only ever *moves to a joiner*, never between
        survivors.  Pins to departed shards are dropped — those
        sessions re-route on their next dial (the departed shard is
        expected to be drained first; see ``op: "drain"``).  Joiners
        are polled before the reply so the digest map covers them
        immediately.
        """
        raw = hello.get("shards")
        try:
            addrs = [(str(h), int(p)) for h, p in raw]
        except (TypeError, ValueError):
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "reload-shards needs shards: "
                              "[[host, port], ...]"}
        seen: set = set()
        addrs = [a for a in addrs
                 if not (a in seen or seen.add(a))]
        if not addrs:
            self.bump("rejected_error")
            return {"status": "error",
                    "reason": "reload-shards needs at least one shard"}
        current = {s.addr for s in self.shards}
        added = [a for a in addrs if a not in current]
        removed = sorted(current - set(addrs))
        states = [self._by_addr.get(a) or _ShardState(a) for a in addrs]
        self.shards = states
        self._by_addr = {s.addr: s for s in states}
        gone = set(removed)
        dropped = [sid for sid, addr in self._pins.items()
                   if addr in gone]
        for sid in dropped:
            self._pins.pop(sid, None)
        # Keep the config echo (stats_snapshot) truthful about the
        # membership now in force.
        self.config = self.config.replace(shards=tuple(addrs))
        joiners = [s for s in states if s.polled_at == 0.0]
        if joiners:
            await asyncio.gather(
                *(self._poll_shard(s) for s in joiners)
            )
        self.bump("shard_reloads")
        return {
            "status": "ok",
            "shards": [list(a) for a in addrs],
            "added": len(added),
            "removed": len(removed),
            "dropped_pins": len(dropped),
        }
