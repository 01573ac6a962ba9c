"""One front door for every way of running a garbled computation.

:func:`run` executes a netlist or an ARM program in any of the three
execution modes with one normalized argument spelling::

    import repro.api

    # Local counting run of a netlist (cost metric + outputs):
    res = repro.api.run(net, {"alice": a_bits, "bob": b_bits}, cycles=32)

    # Same computation through the real two-party crypto protocol:
    res = repro.api.run(net, {"alice": a_bits, "bob": b_bits},
                        mode="protocol", cycles=32)

    # An ARM program on the garbled processor:
    res = repro.api.run("loop: ADD r1, r1, r2\\n B loop",
                        {"alice": [5], "bob": [7]}, cycles=40)

    # One resumable protocol party over TCP (the ``party`` CLI):
    res = repro.api.run(net, {"alice": a_bits}, mode="party",
                        role="garbler", listen=("127.0.0.1", 9100),
                        cycles=32)

Every result exposes the shared surface of
:class:`~repro.core.results.BaseResult` — ``outputs``, ``value``,
``stats``, ``timing``, ``garbled_nonxor`` — so callers can switch
modes without touching their result handling (``mode="party"``
returns the session-flavoured :class:`~repro.net.session.SessionResult`,
which carries the same ``outputs`` / ``value`` / ``stats`` names).

No mode runs a SkipGate engine per call: every mode replays the
program's residual trace (:mod:`repro.core.trace`), recorded once per
process from public data.  The two-party modes replay it against their
crypto backends; ``mode="local"`` replays it in the clear
(:mod:`repro.core.run`) and checks every output bit against the plain
simulator or the ISA emulator.  Only the trace builder picks an engine
(``residual_trace`` / ``make_engine``'s ``engine=``).

:func:`run` is the **operator** half of the API: it executes a
computation (or starts the server that will).  :func:`connect` is the
**client** half: it returns a
:class:`~repro.serve.client.ServeClient` handle bound to an already-
running serve endpoint — a single shard or a
:class:`~repro.serve.router.SessionRouter` fleet front — for
submitting sessions, recovering parked results and reading
stats/fleet-stats.  Start infrastructure with ``run``; talk to it with
``connect``::

    server = repro.api.run(net, {"alice": bits}, mode="serve",
                           listen=("127.0.0.1", 0), cycles=32)
    with repro.api.connect((server.host, server.port)) as client:
        result = client.submit(net.name or "default", net, bob=bob_bits)
    server.shutdown()
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

from .circuit.netlist import Netlist

__all__ = ["run", "run_batch", "connect"]

#: Keys accepted in the ``inputs`` mapping.
_INPUT_KEYS = frozenset(
    ("alice", "bob", "public", "alice_init", "bob_init", "public_init")
)

ProgramOrNetlist = Union[Netlist, str, Sequence[int]]


def _split_inputs(inputs: Optional[Mapping]) -> dict:
    if inputs is None:
        return {}
    unknown = set(inputs) - _INPUT_KEYS
    if unknown:
        raise TypeError(
            f"unknown input keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_INPUT_KEYS)}"
        )
    return dict(inputs)


def _make_obs(profile: bool, obs):
    if obs is not None:
        return obs
    if profile:
        from .obs import Obs

        return Obs()
    return None


def run(
    program_or_netlist: ProgramOrNetlist,
    inputs: Optional[Mapping] = None,
    *,
    mode: str = "local",
    profile: bool = False,
    obs=None,
    cycles: Optional[int] = None,
    seed: Optional[int] = None,
    # machine memory layout (program runs only)
    machine_config: Optional[Mapping] = None,
    # protocol / party options
    # Only benchmarks/spine passes it; ROADMAP item 1(b) deletes it.
    ot: str = "extension",
    ot_group: str = "modp512",
    timeout: Optional[float] = None,
    # party-mode options
    role: Optional[str] = None,
    listen: Optional[Tuple[str, int]] = None,
    connect: Optional[Tuple[str, int]] = None,
    checkpoint_every: int = 1,
    max_attempts: int = 1,
    heartbeat: Optional[float] = None,
    wrap=None,
    # serve-mode options
    workers: int = 4,
    queue_depth: int = 8,
    precompute: bool = True,
    material_depth: int = 2,
    config=None,
):
    """Run a garbled computation.

    Args:
        program_or_netlist: a :class:`~repro.circuit.netlist.Netlist`,
            ARM assembly text, or a sequence of instruction words
            (e.g. from :func:`repro.cc.compile_c`).
        inputs: mapping with any of the normalized input keys
            ``alice`` / ``bob`` / ``public`` (per-cycle bit sources —
            or, for programs, lists of 32-bit words) and
            ``alice_init`` / ``bob_init`` / ``public_init`` (netlist
            init-vector bits).
        mode: ``"local"`` (the residual trace replayed in the clear,
            every output bit checked against the plain simulator or the
            ISA emulator; a mismatch raises ``AssertionError``),
            ``"protocol"`` (both crypto parties in-process
            over the in-memory channel), ``"party"`` (resumable
            session(s) over a real transport; see ``role``), or
            ``"serve"`` (a started multi-session
            :class:`~repro.serve.server.GarbleServer` garbling this
            computation for many concurrent evaluators; the caller
            shuts it down).
        profile: collect per-phase timing into ``result.timing``
            (shorthand for passing a fresh :class:`repro.obs.Obs`).
        obs: explicit observability sink (overrides ``profile``).
        cycles: clock cycles to run (netlists default to 1; programs
            derive the count from the reference emulator when omitted).
        seed: protocol mode only: the parties' label RNG seed
            (deterministic labels for tests; a local replay has no
            labels to seed).
        machine_config: memory layout for program runs — keys
            ``alice_words``, ``bob_words``, ``output_words``,
            ``data_words``, ``imem_words``.
        ot_group: DH group of the IKNP base OTs (crypto modes); Bob's
            input labels always travel by IKNP extension.  ``ot`` names
            that one transfer (``"extension"``); anything else is a
            ``ValueError``.
        timeout: channel receive deadline for crypto modes.
        role: party mode only: ``"garbler"``, ``"evaluator"`` or
            ``"both"`` (both parties over the in-memory transport).
        listen / connect: party mode ``(host, port)``: the garbler
            listens, the evaluator dials.
        checkpoint_every / max_attempts / heartbeat / wrap: party-mode
            resume cadence, reconnect budget, keepalive interval and
            the fault-injection link hook (tests).

    Returns:
        ``mode="local"``: :class:`~repro.core.run.RunResult` for a
        netlist, :class:`~repro.arm.machine.MachineResult` for a
        program.  ``mode="protocol"``:
        :class:`~repro.core.protocol.ProtocolResult`.
        ``mode="party"``: one
        :class:`~repro.net.session.SessionResult`, or the
        ``(garbler, evaluator)`` pair for ``role="both"``.
        ``mode="serve"``: the started
        :class:`~repro.serve.server.GarbleServer` (listening on
        ``server.port``; ``workers`` / ``queue_depth`` size the pool;
        ``precompute`` / ``material_depth`` control the offline
        pre-garbling phase).  A
        :class:`~repro.serve.config.ServeConfig` may be passed as
        ``config=`` instead of loose serve kwargs (``listen``, when
        also given, overrides the config's address).  Talk to the
        started server with :func:`connect`.
    """
    from .gc.ot_extension import check_session_ot

    check_session_ot(ot)
    obs = _make_obs(profile, obs)
    bits = _split_inputs(inputs)
    is_netlist = isinstance(program_or_netlist, Netlist)

    if mode == "local":
        if is_netlist:
            from .core.run import _evaluate

            return _evaluate(
                program_or_netlist,
                cycles if cycles is not None else 1,
                obs=obs,
                **bits,
            )
        machine = _make_machine(program_or_netlist, bits, machine_config)
        return machine.run(
            alice=bits.get("alice", ()),
            bob=bits.get("bob", ()),
            cycles=cycles,
            obs=obs,
        )

    if mode == "protocol":
        from .core.protocol import _run_protocol

        if is_netlist:
            net = program_or_netlist
            run_cycles = cycles if cycles is not None else 1
        else:
            net, run_cycles, bits = _program_protocol_args(
                program_or_netlist, bits, machine_config, cycles
            )
        return _run_protocol(
            net,
            run_cycles,
            ot_group=ot_group,
            timeout=timeout,
            obs=obs,
            seed=seed,
            **bits,
        )

    if mode == "party":
        if not is_netlist:
            raise TypeError("mode='party' runs a netlist; compile the "
                            "program first (GarbledMachine(...).net)")
        return _run_party(
            program_or_netlist, bits, role,
            cycles=cycles if cycles is not None else 1,
            ot_group=ot_group, timeout=timeout, obs=obs,
            listen=listen, connect=connect,
            checkpoint_every=checkpoint_every, max_attempts=max_attempts,
            heartbeat=heartbeat, wrap=wrap,
        )

    if mode == "serve":
        if is_netlist:
            net = program_or_netlist
            run_cycles = cycles if cycles is not None else 1
        else:
            net, run_cycles, bits = _program_protocol_args(
                program_or_netlist, bits, machine_config, cycles
            )
        if listen is None and config is None:
            raise ValueError(
                "mode='serve' needs listen=(host, port) or config="
            )
        from .obs import NULL_OBS
        from .serve.config import ServeConfig
        from .serve.server import GarbleServer, ServeProgram

        name = net.name or "default"
        programs = {
            name: ServeProgram(
                net=net,
                cycles=run_cycles,
                alice=bits.get("alice", ()),
                alice_init=bits.get("alice_init", ()),
                public=bits.get("public", ()),
                public_init=bits.get("public_init", ()),
            )
        }
        if config is None:
            config = ServeConfig(
                host=listen[0],
                port=listen[1],
                workers=workers,
                queue_depth=queue_depth,
                checkpoint_every=checkpoint_every,
                timeout=timeout,
                max_attempts=max_attempts,
                ot_group=ot_group,
                heartbeat=heartbeat,
                precompute=precompute,
                material_depth=material_depth,
            )
        elif listen is not None:
            config = config.replace(host=listen[0], port=listen[1])
        server = GarbleServer(
            programs, config=config,
            obs=NULL_OBS if obs is None else obs,
        )
        return server.start()

    raise ValueError(
        f"unknown mode {mode!r} (use 'local', 'protocol', 'party' or 'serve')"
    )


def run_batch(workload, values, **kwargs):
    """Run a registered workload over a vector of evaluator queries in
    **one** garbling pass.

    ``workload`` names a base workload shape (e.g. ``"psi-hash8x16"``,
    see :func:`repro.workloads.workload_names`); ``values`` is a
    sequence of evaluator operands — for PSI, set seeds
    (:func:`repro.workloads.psi.set_from_seed`).  The batched sibling
    circuit (``<name>@b<N>``) shares Alice's input wires across all
    ``N`` query slots, so the per-session costs — handshake, base OT,
    garbler-input transfer — are paid once instead of ``N`` times.

    Runs in-process (``mode="local"`` simulator by default, or
    ``mode="protocol"`` for the real crypto); for a query batch against
    a running server use :meth:`repro.serve.client.ServeClient.run_batch`
    with the same semantics.  Returns a
    :class:`~repro.workloads.batch.BatchResult` whose per-query
    outputs are bit-identical to fresh single-query runs.
    """
    from .workloads.batch import run_batch as _run_batch

    return _run_batch(workload, values, **kwargs)


def connect(addr, **kwargs):
    """Open a client handle to a running serve endpoint.

    ``addr`` is ``"host:port"`` or a ``(host, port)`` pair naming a
    :class:`~repro.serve.server.GarbleServer` shard **or** a
    :class:`~repro.serve.router.SessionRouter` fleet front (the client
    cannot tell the difference, by design).  Keyword arguments become
    the handle's per-client defaults — ``client_id``, ``timeout``,
    ``ot_group``, ``max_attempts``, ``heartbeat``, ``obs`` —
    overridable per call.

    Returns a :class:`~repro.serve.client.ServeClient` usable as a
    context manager::

        with repro.api.connect("127.0.0.1:9200") as client:
            result = client.run("sum32", 7)
            fleet = client.fleet_stats()

    This is the client half of the API; :func:`run` is the operator
    half that executes computations and starts servers.
    """
    from .serve.client import ServeClient
    from .serve.config import parse_hostport

    if isinstance(addr, str):
        host, port = parse_hostport(addr)
    else:
        host, port = addr
    return ServeClient(host, int(port), **kwargs)


def _make_machine(program, bits: dict, machine_config: Optional[Mapping]):
    from .arm.machine import GarbledMachine

    cfg = dict(machine_config or {})
    cfg.setdefault("alice_words", max(len(bits.get("alice", ())), 1))
    cfg.setdefault("bob_words", max(len(bits.get("bob", ())), 1))
    return GarbledMachine(program, **cfg)


def _program_protocol_args(program, bits, machine_config, cycles):
    """Lower a program run to netlist-level protocol arguments."""
    from .circuit.bits import pack_words

    machine = _make_machine(program, bits, machine_config)
    cfg = machine.config
    alice = list(bits.get("alice", ()))
    bob = list(bits.get("bob", ()))
    if cycles is None:
        cycles, _ = machine.required_cycles(alice, bob)
    imem = machine.program + [0] * (cfg.imem_words - len(machine.program))
    net_bits = {
        "alice_init": pack_words(
            alice + [0] * (cfg.alice_words - len(alice)), 32
        ),
        "bob_init": pack_words(bob + [0] * (cfg.bob_words - len(bob)), 32),
        "public_init": pack_words(imem, 32),
    }
    return machine.net, cycles, net_bits


def _run_party(
    net, bits, role, *, cycles, ot_group, timeout, obs,
    listen, connect, checkpoint_every, max_attempts, heartbeat, wrap,
):
    from .net.session import ResumableSession, run_resumable_pair
    from .obs import NULL_OBS

    if role == "both":
        return run_resumable_pair(
            net,
            cycles,
            ot_group=ot_group,
            checkpoint_every=checkpoint_every,
            timeout=timeout,
            max_attempts=max_attempts,
            wrap=wrap,
            heartbeat_interval=heartbeat,
            obs=NULL_OBS if obs is None else obs,
            **bits,
        )
    if role not in ("garbler", "evaluator"):
        raise ValueError(
            "mode='party' needs role='garbler', 'evaluator' or 'both'"
        )

    from .core.protocol import EvaluatorParty, GarblerParty, _expand_bits
    from .net.tcp import TcpDialer, TcpListener

    if role == "garbler":
        if listen is None:
            raise ValueError("role='garbler' needs listen=(host, port)")
        factory = TcpListener(host=listen[0], port=listen[1])
        party = GarblerParty(
            net,
            cycles,
            _expand_bits(net, "alice", bits.get("alice", ()),
                         bits.get("alice_init", ()), cycles),
            public=bits.get("public", ()),
            public_init=bits.get("public_init", ()),
            ot_group=ot_group,
            obs=obs,
        )
    else:
        if connect is None:
            raise ValueError("role='evaluator' needs connect=(host, port)")
        factory = TcpDialer(connect[0], connect[1])
        party = EvaluatorParty(
            net,
            cycles,
            _expand_bits(net, "bob", bits.get("bob", ()),
                         bits.get("bob_init", ()), cycles),
            public=bits.get("public", ()),
            public_init=bits.get("public_init", ()),
            ot_group=ot_group,
            obs=obs,
        )

    session = ResumableSession(
        party,
        connect=lambda: factory.connect(timeout=timeout),
        checkpoint_every=checkpoint_every,
        timeout=timeout,
        max_attempts=max_attempts,
        heartbeat_interval=heartbeat,
    )
    try:
        return session.run()
    finally:
        factory.close()
