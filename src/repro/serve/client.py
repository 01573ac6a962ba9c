"""Evaluator-side client of a :class:`~repro.serve.server.GarbleServer`.

:func:`run_session` runs one full evaluator session against a serving
garbler: dial, ``serve-hello`` handshake (program + session id), then
the ordinary resumable protocol session.  The server's welcome is
authoritative for the cycle count and checkpoint cadence, so a client
only needs the circuit structure (for the digest handshake) and its
own private bits.  On a dropped connection the session redials the
*same* server with the *same* session id; the server routes the fresh
link to the live worker and both sides resume from the last common
checkpoint.

A client that names itself (``client_id=``) opts into **base-OT
reuse**: after its first successful ``ot="extension"`` session the
receiver-side base-OT seeds are cached per ``(host, port, client_id)``
together with the id of the session that ran their base phase, the
next hello advertises that id (``"base_ot": "<session id>"``), and a
server whose stored sender side came from the same session answers
``"base_ot": "cached"`` — both sides then skip the kappa base DH OTs
and re-derive fresh extension pools under a session-unique PRG salt.
Any disagreement — including one identity whose sessions reach two
shards, or one shard both directly and through a router — degrades to
a fresh base phase, never to a protocol error.

:func:`fetch_stats` is the one-shot stats probe
(``op: "stats"`` hello), used by the CLI and the load generator.

**Result recovery.**  A client that dies after the final frame — the
garbler decoded the output but the result never made it home — simply
redials with the same session id: the server answers a redial of a
finished session with a ``status: "result"`` welcome replayed from its
bounded TTL'd buffer, and :func:`run_session` returns the recovered
:class:`~repro.net.session.SessionResult` (``replayed=True``)
bit-identically.  :func:`recover_result` asks for the parked result
explicitly (``op: "result"``) without ever joining the session.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable, Optional, Sequence, Union

from ..circuit.netlist import Netlist
from ..core.protocol import EvaluatorParty, _expand_bits
from ..gc.channel import ChannelStats
from ..gc.ot_extension import OTExtensionReceiver, session_salt
from ..net.links import Link, LinkTimeout, PrefacedLink
from ..net.session import ResumableSession, SessionResult
from ..net.tcp import connect_with_backoff
from ..obs import NULL_OBS
from .handshake import (
    HELLO,
    WELCOME,
    ResultPending,
    ServeError,
    ServerBusy,
    recv_control,
    send_control,
)

BitSource = Union[Sequence[int], Callable[[int], Sequence[int]]]

#: Receiver-side base-OT seeds by (host, port, client_id), stored as
#: ``(session id of the fresh base phase, seeds)``.  Process local by
#: design: the seeds are secret key material, so they never leave the
#: process that ran the base phase.
_RECEIVER_BASES: dict = {}
_RECEIVER_BASES_LOCK = threading.Lock()


def _cached_receiver_base(key):
    with _RECEIVER_BASES_LOCK:
        return _RECEIVER_BASES.get(key)


def _store_receiver_base(key, base) -> None:
    if base is None:
        return
    with _RECEIVER_BASES_LOCK:
        _RECEIVER_BASES[key] = base


def forget_receiver_bases() -> None:
    """Drop every cached receiver base (tests and key-rotation)."""
    with _RECEIVER_BASES_LOCK:
        _RECEIVER_BASES.clear()


def _hello_exchange(
    host: str,
    port: int,
    hello: dict,
    timeout: Optional[float],
    dial_attempts: int = 8,
) -> tuple:
    """Dial, send one hello, read one welcome.

    Returns ``(welcome, link)`` where ``link`` preserves any
    already-read bytes of the server's next frame.  Raises
    :class:`ServerBusy` / :class:`ServeError` on structured rejects.
    """
    link = connect_with_backoff(
        host, port, attempts=dial_attempts,
        connect_timeout=5.0 if timeout is None else timeout,
    )
    try:
        send_control(link, HELLO, hello)
        tag, welcome, leftover = recv_control(link, timeout=timeout)
    except BaseException:
        link.close()
        raise
    if tag != WELCOME or not isinstance(welcome, dict):
        link.close()
        raise ServeError(f"expected {WELCOME!r}, got {tag!r}")
    status = welcome.get("status")
    if status in ("busy", "draining"):
        link.close()
        raise ServerBusy(
            f"server rejected session: {welcome.get('reason', status)}",
            welcome=welcome,
        )
    if status not in ("ok", "stats", "fleet-stats", "result", "pending",
                      "moved"):
        link.close()
        raise ServeError(
            f"server rejected session: {welcome.get('reason', status)}"
        )
    return welcome, PrefacedLink(link, leftover)


#: Dial attempts against a peer named by a ``moved`` redirect: the front
#: that named it is up, so fail fast and ask it again (:class:`ServerBusy`).
REDIRECT_DIAL_ATTEMPTS = 3


def _exchange_follow_moved(
    target: dict,
    hello: dict,
    timeout: Optional[float],
    max_hops: int = 4,
) -> tuple:
    """Dial ``target`` (a mutable ``{"host", "port"}`` dict), following
    ``moved`` redirects.

    A ``moved`` welcome is how a router names the shard that owns the
    session, and how a draining shard names the peer that adopted it;
    the target is rewritten in place so every subsequent redial of
    this session goes straight to that shard.  A redirect to a peer
    that cannot be dialled raises :class:`ServerBusy`: redial the
    front, whose health polling routes around a dead shard.
    """
    for hop in range(max_hops):
        host, port = target["host"], target["port"]
        budget = {"dial_attempts": REDIRECT_DIAL_ATTEMPTS} if hop else {}
        try:
            welcome, link = _hello_exchange(
                host, port, hello, timeout=timeout, **budget)
        except LinkTimeout as exc:  # only the dial raises this
            if not hop:
                raise
            raise ServerBusy(
                f"redirected to unreachable {host}:{port}: {exc}",
                welcome={"status": "busy", "peer": [host, port]},
            ) from exc
        if welcome.get("status") != "moved":
            return welcome, link
        link.close()
        peer = welcome.get("peer")
        try:
            target["host"], target["port"] = str(peer[0]), int(peer[1])
        except (TypeError, ValueError, IndexError):
            raise ServeError(
                f"malformed moved redirect: {welcome!r}"
            ) from None
    raise ServeError(
        f"session {hello.get('session')!r}: too many moved redirects"
    )


class _Replayed(Exception):
    """Internal: the server answered a (re)dial with a parked result
    instead of a live session."""

    def __init__(self, welcome: dict) -> None:
        super().__init__("session result served from replay")
        self.welcome = welcome


class _ReplayStats:
    """Stats shim carried by a replayed result (the protocol did not
    run on this connection, so there are no live RunStats)."""

    def __init__(self, garbled_nonxor: int) -> None:
        self.garbled_nonxor = garbled_nonxor


def _result_from_welcome(welcome: dict) -> SessionResult:
    return SessionResult(
        outputs=[int(b) for b in welcome.get("outputs", ())],
        value=welcome.get("value", 0),
        stats=_ReplayStats(welcome.get("garbled_nonxor", -1)),
        sent=ChannelStats(),
        received=ChannelStats(),
        reconnects=0,
        checkpoint_cycles=[],
        tables_sent=welcome.get("tables_sent"),
        material_epoch=None,
        replayed=True,
    )


def recover_result(
    host: str,
    port: int,
    session_id: str,
    *,
    client_id: Optional[str] = None,
    timeout: Optional[float] = 5.0,
    attempts: int = 4,
) -> SessionResult:
    """Fetch the parked result of a finished session.

    Sends an ``op: "result"`` hello; the session itself is never
    joined or re-run.  A ``pending`` answer (session still running) is
    retried up to ``attempts`` times honouring the server's
    ``retry_after_s`` guidance, then raises :class:`ResultPending`.
    An expired or never-parked result raises :class:`ServeError`
    (the server's structured ``unknown-session`` reject).
    """
    hello = {"op": "result", "session": session_id}
    if client_id:
        hello["client"] = client_id
    welcome: dict = {}
    target = {"host": host, "port": port}
    for i in range(max(attempts, 1)):
        welcome, link = _exchange_follow_moved(target, hello,
                                               timeout=timeout)
        link.close()
        status = welcome.get("status")
        if status == "result":
            return _result_from_welcome(welcome)
        if status != "pending":
            raise ServeError(f"unexpected result-probe reply: {welcome!r}")
        if i < attempts - 1:
            time.sleep(min(float(welcome.get("retry_after_s", 0.1)), 2.0))
    raise ResultPending(
        f"session {session_id!r} still running after {attempts} probes",
        welcome=welcome,
    )


def fetch_stats(host: str, port: int, timeout: Optional[float] = 5.0) -> dict:
    """One-shot ``stats`` control probe against a running server."""
    welcome, link = _hello_exchange(
        host, port, {"op": "stats"}, timeout=timeout
    )
    link.close()
    if welcome.get("status") != "stats":
        raise ServeError(f"unexpected stats reply: {welcome!r}")
    return welcome["stats"]


def fetch_fleet_stats(
    host: str, port: int, timeout: Optional[float] = 5.0
) -> dict:
    """One-shot ``fleet-stats`` probe: the aggregated fleet view.

    Against a router this probes every shard live; against a single
    shard it answers the same shape with that shard as the only
    member.  Returns ``{"router", "shards", "aggregate"}``.
    """
    welcome, link = _hello_exchange(
        host, port, {"op": "fleet-stats"}, timeout=timeout
    )
    link.close()
    if welcome.get("status") != "fleet-stats":
        raise ServeError(f"unexpected fleet-stats reply: {welcome!r}")
    return {k: welcome.get(k) for k in ("router", "shards", "aggregate")}


def request_drain(
    host: str,
    port: int,
    *,
    shard: Optional[tuple] = None,
    peers: Sequence[tuple] = (),
    timeout: Optional[float] = 10.0,
) -> dict:
    """Ask a fleet member to drain with session handoff.

    Against a **router**, name the ``shard`` to drain — the router
    hands it the rest of the live fleet as adoption peers.  Against a
    **shard** directly, pass the adoption ``peers`` yourself.  Returns
    the drain welcome (``{"status": "ok", "draining": True,
    "handoffs": n}`` on success).
    """
    hello: dict = {"op": "drain"}
    if shard is not None:
        hello["shard"] = [str(shard[0]), int(shard[1])]
    if peers:
        hello["peers"] = [[str(h), int(p)] for h, p in peers]
    welcome, link = _hello_exchange(host, port, hello, timeout=timeout)
    link.close()
    if welcome.get("status") != "ok":
        raise ServeError(f"drain rejected: {welcome!r}")
    return welcome


def request_reload(
    host: str,
    port: int,
    shards: Sequence[tuple],
    *,
    timeout: Optional[float] = 10.0,
) -> dict:
    """Swap a router's shard membership live (``op: "reload-shards"``).

    ``shards`` is the complete new membership as ``(host, port)``
    pairs.  Surviving shards keep their health state and pins; joiners
    are polled before the reply; pins to departed shards are dropped
    (those sessions re-route on their next dial).  Returns the reload
    welcome (``{"status": "ok", "shards": [...], "added": n,
    "removed": n}``).
    """
    if not shards:
        raise ValueError("reload-shards needs at least one shard")
    hello = {
        "op": "reload-shards",
        "shards": [[str(h), int(p)] for h, p in shards],
    }
    welcome, link = _hello_exchange(host, port, hello, timeout=timeout)
    link.close()
    if welcome.get("status") != "ok":
        raise ServeError(f"reload-shards rejected: {welcome!r}")
    return welcome


def run_session(
    host: str,
    port: int,
    program: str,
    net: Netlist,
    *,
    session_id: Optional[str] = None,
    client_id: Optional[str] = None,
    garbler_key: Optional[str] = None,
    bob: BitSource = (),
    bob_init: Sequence[int] = (),
    public: BitSource = (),
    public_init: Sequence[int] = (),
    cycles: Optional[int] = None,
    ot: str = "simplest",
    ot_group: str = "modp512",
    engine: str = "compiled",
    timeout: Optional[float] = 30.0,
    max_attempts: int = 6,
    heartbeat: Optional[float] = None,
    wrap=None,
    obs=NULL_OBS,
) -> SessionResult:
    """Run one evaluator session against a garbling server.

    ``net`` must be structurally identical to the server's program
    netlist (the ``net-hello`` digest check enforces this).  ``cycles``
    may be omitted — the server's welcome names it; if given, a
    mismatch fails before any protocol traffic.  ``client_id`` is a
    stable identity across sessions; with ``ot="extension"`` it
    enables base-OT reuse (see the module docstring) and lets the
    server audit that pre-garbled delta epochs are never shared across
    identities.  ``wrap(attempt, link) -> link`` is the
    fault-injection splice point (tests wrap a connection attempt in a
    :class:`~repro.net.fault.FaultyTransport`).  ``garbler_key``
    selects a per-session garbler operand out of the program's keyed
    table (servers built with ``alice_by_key``).  Returns the
    evaluator's :class:`~repro.net.session.SessionResult` — possibly
    recovered from the server's replay buffer (``replayed=True``) when
    a redial found the session already finished.
    """
    sid = session_id or uuid.uuid4().hex
    hello = {"op": "session", "session": sid, "program": program}
    if garbler_key is not None:
        hello["garbler_key"] = garbler_key
    base_key = None
    advertised_base = None
    if client_id:
        hello["client"] = client_id
        base_key = (host, port, client_id)
        if ot == "extension":
            # Snapshot the cached base now: the hello's advertisement
            # and the base actually used must be the same material.
            # The advertisement is the id of the session whose base
            # phase made it (servers that predate the tag read it as
            # the plain truthy flag it used to be).
            advertised_base = _cached_receiver_base(base_key)
            if advertised_base is not None:
                hello["base_ot"] = advertised_base[0]
    state = {"attempt": 0, "first": None}
    #: Mutable dial target: a drain-time ``moved`` redirect rewrites
    #: it so mid-session redials chase the session to its new shard.
    target = {"host": host, "port": port}

    def connect() -> Link:
        attempt = state["attempt"]
        state["attempt"] = attempt + 1
        welcome, link = _exchange_follow_moved(target, hello,
                                               timeout=timeout)
        if welcome.get("status") == "result":
            # The session finished without us (we died after the final
            # frame and are redialing): the server replayed the parked
            # result instead of admitting a session.
            link.close()
            raise _Replayed(welcome)
        if cycles is not None and welcome.get("cycles") != cycles:
            link.close()
            raise ServeError(
                f"server runs {welcome.get('cycles')} cycles, "
                f"client expected {cycles}"
            )
        state["welcome"] = welcome
        if wrap is not None:
            link = wrap(attempt, link)
        return link

    # Eager first connect: the welcome carries the authoritative cycle
    # count and checkpoint cadence the ResumableSession must be
    # constructed with.  Admission rejects (ServerBusy) surface here,
    # before any party state exists.
    try:
        first = connect()
    except _Replayed as exc:
        return _result_from_welcome(exc.welcome)
    welcome = state["welcome"]
    run_cycles = welcome["cycles"] if cycles is None else cycles
    state["first"] = first

    # A welcome carrying "base_ot" marks a material-aware extension-OT
    # server: both sides then derive their extension pools under the
    # session-unique salt, and skip the base phase entirely when the
    # server answered "cached" (it kept our sender side).
    base_mode = welcome.get("base_ot") if ot == "extension" else None
    ot_factory = None
    if base_mode is not None:
        reuse = advertised_base[1] if base_mode == "cached" else None
        salt = session_salt(sid)

        def ot_factory(chan, _base=reuse, _salt=salt):
            return OTExtensionReceiver(
                chan, group=ot_group, base=_base, salt=_salt
            )

    party = EvaluatorParty(
        net,
        run_cycles,
        _expand_bits(net, "bob", bob, bob_init, run_cycles),
        public=public,
        public_init=public_init,
        ot_group=ot_group,
        ot=ot,
        obs=obs,
        engine=engine,
        ot_factory=ot_factory,
    )

    def connect_or_first() -> Link:
        link = state["first"]
        if link is not None:
            state["first"] = None
            return link
        return connect()

    session = ResumableSession(
        party,
        connect=connect_or_first,
        checkpoint_every=welcome["checkpoint_every"],
        timeout=timeout,
        max_attempts=max_attempts,
        heartbeat_interval=heartbeat,
        obs=obs,
    )
    try:
        result = session.run()
    except _Replayed as exc:
        # A reconnect raced the session's completion: the resume redial
        # found the session finished and got the parked result instead.
        return _result_from_welcome(exc.welcome)
    if base_mode == "fresh" and base_key is not None:
        # This session ran a real base phase: keep the receiver side so
        # the next session under this identity can skip it.
        export = getattr(party.backend._ot, "export_base", None)
        if export is not None:
            _store_receiver_base(base_key, (sid, export()))
    return result


class ServeClient:
    """Handle to one serving endpoint — a single shard or a router.

    This is the object :func:`repro.api.connect` returns: it bundles
    the endpoint address with per-client defaults (identity, OT
    flavour, engine, timeout) so call sites stop threading a dozen
    kwargs through every session.  Each operation opens its own
    connection (the serve protocol is a hello/welcome exchange per
    connection), so the handle itself holds no socket; the context-
    manager form exists for scoping and API symmetry::

        with api.connect(("127.0.0.1", 9200)) as client:
            result = client.run("sum32", 7)
            print(client.stats()["completed"])

    Per-call keyword arguments override the client defaults.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        ot: str = "simplest",
        ot_group: str = "modp512",
        engine: str = "compiled",
        max_attempts: int = 6,
        heartbeat: Optional[float] = None,
        obs=NULL_OBS,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.client_id = client_id
        self.timeout = timeout
        self.ot = ot
        self.ot_group = ot_group
        self.engine = engine
        self.max_attempts = max_attempts
        self.heartbeat = heartbeat
        self.obs = obs
        #: Circuit name -> ``(net, cycles)``, built on first use.
        self._circuits: dict = {}

    # -- sessions -----------------------------------------------------

    def _session_defaults(self, kwargs: dict) -> dict:
        merged = {
            "client_id": self.client_id,
            "timeout": self.timeout,
            "ot": self.ot,
            "ot_group": self.ot_group,
            "engine": self.engine,
            "max_attempts": self.max_attempts,
            "heartbeat": self.heartbeat,
            "obs": self.obs,
        }
        merged.update(kwargs)
        return merged

    def submit(self, program: str, net: Netlist, **kwargs) -> SessionResult:
        """Run one evaluator session for ``program`` against this
        endpoint (see :func:`run_session` for the keyword surface)."""
        return run_session(
            self.host, self.port, program, net,
            **self._session_defaults(kwargs),
        )

    def run(self, circuit: str, value: int, **kwargs) -> SessionResult:
        """Run a bench-registry circuit with operand ``value`` as Bob
        (see :func:`run_registry_session`).  The handle builds each
        circuit once and reuses its ``(net, cycles)``."""
        built = self._circuits.get(circuit)
        if built is None:
            from ..net.cli import _registry

            built = self._circuits[circuit] = _registry()[circuit].build()
        kwargs.setdefault("net", built[0])
        kwargs.setdefault("cycles", built[1])
        return run_registry_session(
            self.host, self.port, circuit, value,
            **self._session_defaults(kwargs),
        )

    def run_batch(self, workload: str, values: Sequence[int], **kwargs):
        """Answer a vector of workload queries in **one** session.

        ``workload`` is a base workload name (``"psi-hash8x16"``);
        ``values`` seeds one query set each.  The endpoint must be
        serving the batched sibling program (``<name>@b<N>`` — routers
        route it by digest like any other program).  One garbling pass,
        one handshake, one base-OT phase and one garbler-input transfer
        answer all ``N`` queries; returns a
        :class:`~repro.workloads.batch.BatchResult` whose per-query
        ``outputs`` are bit-identical to ``N`` fresh :meth:`run` calls.
        Extra keyword arguments flow to :func:`run_session`
        (``garbler_key``, ``session_id``, ...).
        """
        from ..workloads import batched_name, get_workload
        from ..workloads.batch import BatchResult, encode_batch, split_batch

        name = batched_name(workload, len(values))
        batched = get_workload(name)
        net, cycles = batched.build()
        res = run_session(
            self.host, self.port, name, net,
            bob=encode_batch(workload, values),
            cycles=cycles,
            **self._session_defaults(kwargs),
        )
        outputs = list(res.outputs)
        return BatchResult(
            workload=workload,
            program=name,
            batch=len(values),
            queries=split_batch(workload, len(values), outputs),
            outputs=outputs,
            garbled_nonxor=res.stats.garbled_nonxor,
            raw=res,
        )

    # -- control plane ------------------------------------------------

    def recover_result(self, session_id: str, **kwargs) -> SessionResult:
        """Fetch the parked result of a finished session
        (``op: "result"``; see :func:`recover_result`)."""
        kwargs.setdefault("client_id", self.client_id)
        return recover_result(self.host, self.port, session_id, **kwargs)

    def stats(self, timeout: Optional[float] = 5.0) -> dict:
        """This endpoint's ``op: "stats"`` snapshot."""
        return fetch_stats(self.host, self.port, timeout=timeout)

    def fleet_stats(self, timeout: Optional[float] = 5.0) -> dict:
        """The aggregated fleet view (``op: "fleet-stats"``)."""
        return fetch_fleet_stats(self.host, self.port, timeout=timeout)

    def drain(
        self,
        shard: Optional[tuple] = None,
        peers: Sequence[tuple] = (),
        timeout: Optional[float] = 10.0,
    ) -> dict:
        """Trigger a drain with session handoff (see
        :func:`request_drain`)."""
        return request_drain(
            self.host, self.port, shard=shard, peers=peers,
            timeout=timeout,
        )

    def reload_shards(
        self, shards: Sequence[tuple], timeout: Optional[float] = 10.0
    ) -> dict:
        """Swap the router's shard membership live (see
        :func:`request_reload`)."""
        return request_reload(
            self.host, self.port, shards, timeout=timeout
        )

    # -- context manager ----------------------------------------------

    def close(self) -> None:
        """Nothing to release (each call opens its own connection);
        kept so the handle is a well-behaved context manager."""

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ServeClient({self.host!r}, {self.port})"


def run_registry_session(
    host: str,
    port: int,
    circuit: str,
    value: int,
    session_id: Optional[str] = None,
    net: Optional[Netlist] = None,
    cycles: Optional[int] = None,
    **kwargs,
) -> SessionResult:
    """Run a session for a bench-registry circuit with operand
    ``value`` as Bob.  ``net`` lets callers share one netlist instance
    (and thus one residual trace) across many client threads; the
    circuit is built only when ``net`` or ``cycles`` is missing."""
    from ..net.cli import _registry

    entry = _registry()[circuit]
    if net is None or cycles is None:
        built, built_cycles = entry.build()
        net = built if net is None else net
        cycles = built_cycles if cycles is None else cycles
    return run_session(
        host,
        port,
        circuit,
        net,
        session_id=session_id,
        bob=entry.bob_source(value, cycles),
        cycles=cycles,
        **kwargs,
    )
