"""Per-layer probes: unit costs measured from outside each module.

Every probe times calls into a layer's *public* functions on fixed
synthetic inputs and returns ``{metric name: value}``.  The unit costs
do not depend on the workload, so every traced run measures all of
them; the workload contributes the *counts* (tables, hashes, cycles,
bytes per op) that the unit costs are multiplied by in
``bench.explained_share``.

``scale`` shrinks the probe sizes for ``--quick`` runs (1.0 is the
size the README documents).
"""

from __future__ import annotations

import random
import threading
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(n * scale))


# -- gc.hashing / gc.garble -------------------------------------------------


def probe_hashing(scale: float = 1.0) -> Dict[str, float]:
    from repro.gc.hashing import hash_labels

    n = _scaled(200_000, scale)
    rng = random.Random(1)
    pairs = [(rng.getrandbits(128), i) for i in range(n)]
    t0 = perf_counter()
    out = hash_labels(pairs)
    dt = perf_counter() - t0
    if len(out) != n:
        raise AssertionError("hash_labels dropped pairs")
    return {"gc.hashing.ns_per_hash": dt / n * 1e9}


def probe_garble(scale: float = 1.0) -> Dict[str, float]:
    from repro.gc import evaluate_gate, garble_gate, random_delta, random_label

    n = _scaled(50_000, scale)
    rng = random.Random(2)
    delta = random_delta(rng)
    tt_and = 0b1000
    wires = [(random_label(rng), random_label(rng)) for _ in range(n)]
    t0 = perf_counter()
    garbled = [garble_gate(tt_and, a0, b0, delta, gid)
               for gid, (a0, b0) in enumerate(wires)]
    t_garble = perf_counter() - t0
    # Evaluate on (a=1, b=1): the only row whose output label is out1.
    t0 = perf_counter()
    evaluated = [
        evaluate_gate(tt_and, a0 ^ delta, b0 ^ delta, table, gid)
        for gid, ((a0, b0), (_out0, table)) in enumerate(zip(wires, garbled))
    ]
    t_eval = perf_counter() - t0
    for (out0, _table), got in zip(garbled, evaluated):
        if got != out0 ^ delta:
            raise AssertionError("half-gate evaluation mismatch")
    return {
        "gc.garble.us_per_garble": t_garble / n * 1e6,
        "gc.garble.us_per_eval": t_eval / n * 1e6,
    }


# -- gc.ot / gc.ot_extension -------------------------------------------------


def _run_pair(sender_main: Callable[[], None],
              receiver_main: Callable[[], None]) -> float:
    """Run the two sides of a two-party exchange on two threads;
    returns the wall seconds until both are done."""
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            sender_main()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    thread = threading.Thread(target=guarded, name="probe-sender")
    t0 = perf_counter()
    thread.start()
    receiver_main()
    thread.join(timeout=60.0)
    dt = perf_counter() - t0
    if thread.is_alive():
        raise AssertionError("probe sender did not finish")
    if errors:
        raise errors[0]
    return dt


def probe_ot(scale: float = 1.0) -> Dict[str, float]:
    """The base phase is timed as the first extended transfer, which
    runs the 128 base OTs (and one pool extension, a few percent of
    it); the steady-state cost per transfer is timed after it."""
    from repro.gc import OTExtensionReceiver, OTExtensionSender, channel_pair

    rng = random.Random(3)
    n_ext = _scaled(4096, scale, floor=256)
    a_end, b_end = channel_pair(timeout=30.0)
    sender = OTExtensionSender(a_end)
    receiver = OTExtensionReceiver(b_end)
    first: List[int] = []
    base_s = _run_pair(lambda: sender.send(1, 2),
                       lambda: first.append(receiver.receive(1)))
    pairs = [(rng.getrandbits(128), rng.getrandbits(128))
             for _ in range(n_ext)]
    bits = [rng.getrandbits(1) for _ in range(n_ext)]
    out: List[int] = []
    ext_s = _run_pair(
        lambda: [sender.send(m0, m1) for m0, m1 in pairs],
        lambda: out.extend(receiver.receive(c) for c in bits),
    )
    if first != [2] or out != [m[c] for m, c in zip(pairs, bits)]:
        raise AssertionError("extended OT delivered the wrong messages")
    return {
        "gc.ot.base_phase_ms": base_s * 1e3,
        "gc.ot_extension.us_per_ot": ext_s / n_ext * 1e6,
    }


# -- net.codec / net.frame ----------------------------------------------------


def _mb_per_s(nbytes: int, fn: Callable[[], object], reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return nbytes / median(times) / 1e6


def probe_codec_frame(scale: float = 1.0) -> Dict[str, float]:
    from repro.net.codec import decode, encode
    from repro.net.frame import FRAME_DATA, FrameDecoder, encode_frame

    n = _scaled(20_000, scale)
    rng = random.Random(4)
    # The shape GarblerBackend.end_cycle sends: kept keys + table blob.
    batch = (list(range(n)), rng.randbytes(32 * n))
    data = encode(batch)
    if decode(data) != batch:
        raise AssertionError("codec round trip changed the batch")
    frame = encode_frame(FRAME_DATA, 1, "tables", data)
    frames = FrameDecoder().feed(frame)
    if len(frames) != 1 or frames[0].payload != data:
        raise AssertionError("frame round trip changed the payload")
    reps = 5
    return {
        "net.codec.encode_mb_s": _mb_per_s(len(data), lambda: encode(batch), reps),
        "net.codec.decode_mb_s": _mb_per_s(len(data), lambda: decode(data), reps),
        "net.frame.encode_mb_s": _mb_per_s(
            len(frame), lambda: encode_frame(FRAME_DATA, 1, "tables", data), reps),
        "net.frame.decode_mb_s": _mb_per_s(
            len(frame), lambda: FrameDecoder().feed(frame), reps),
    }


# -- net.transport / net.tcp --------------------------------------------------


def probe_transport(scale: float = 1.0) -> Dict[str, float]:
    from repro.net.tcp import TcpListener, connect_with_backoff
    from repro.net.transport import FramedEndpoint

    n_connect = _scaled(20, scale, floor=5)
    n_ping = _scaled(500, scale, floor=50)
    n_bulk = _scaled(10, scale, floor=2)
    ping = bytes(64)
    bulk = bytes(1_000_000)

    with TcpListener("127.0.0.1", 0) as listener:
        connects = []
        for _ in range(n_connect):
            t0 = perf_counter()
            link = connect_with_backoff(listener.host, listener.port)
            peer = listener.accept(timeout=5.0)
            connects.append(perf_counter() - t0)
            link.close()
            peer.close()

        link = connect_with_backoff(listener.host, listener.port)
        server = FramedEndpoint(listener.accept(timeout=5.0), timeout=30.0)
        client = FramedEndpoint(link, timeout=30.0)
        rtts: List[float] = []

        def echo() -> None:
            for _ in range(n_ping):
                server.send("pong", server.recv("ping"))
            for _ in range(n_bulk):
                server.recv("bulk")
            server.send("ack", None)

        def drive() -> None:
            for _ in range(n_ping):
                t0 = perf_counter()
                client.send("ping", ping)
                client.recv("pong")
                rtts.append(perf_counter() - t0)
            t0 = perf_counter()
            for _ in range(n_bulk):
                client.send("bulk", bulk)
            client.recv("ack")
            rtts.append(perf_counter() - t0)  # last entry: the bulk phase

        try:
            _run_pair(echo, drive)
        finally:
            client.close()
            server.close()
    bulk_s = rtts.pop()
    return {
        "net.transport.rtt_us": median(rtts) * 1e6,
        "net.transport.bulk_mb_s": n_bulk * len(bulk) / bulk_s / 1e6,
        "net.tcp.connect_ms": median(connects) * 1e3,
    }


# -- cc / arm -------------------------------------------------------------------


def build_arm_machine(program_name: str, tracer) -> Tuple[object, object]:
    """C source -> instruction words -> garbled-CPU netlist, with one
    span per stage.  Returns ``(BenchProgram, GarbledMachine)``."""
    from repro.arm import GarbledMachine
    from repro.cc import compile_c
    from repro.programs import REGISTRY

    prog = REGISTRY[program_name]
    with tracer.span("cc.compile"):
        words = compile_c(prog.source).words
    with tracer.span("arm.machine_build"):
        machine = GarbledMachine(
            words,
            alice_words=prog.alice_words, bob_words=prog.bob_words,
            output_words=prog.output_words, data_words=prog.data_words,
            imem_words=prog.imem_words,
        )
    return prog, machine


# -- core.plan -----------------------------------------------------------------


def warm_plan_timed(net, public_init: Sequence[int], tracer) -> None:
    """``compile_plan`` plus the first step (which generates the
    sweep) on a netlist no engine has run yet."""
    from repro.core import CountingBackend, compile_plan, make_engine

    with tracer.span("core.plan.compile"):
        compile_plan(net)
        engine = make_engine(net, CountingBackend(), public_init=public_init,
                             engine="compiled")
        engine.step(final=False)


def probe_plan_cycle(net, public_init: Sequence[int], cycles: int,
                     budget_s: float) -> Dict[str, float]:
    """Compiled sweep per cycle under the counting backend: the
    engine's own bookkeeping, no crypto and no channel."""
    from repro.core import CountingBackend, make_engine

    per_cycle: List[float] = []
    deadline = perf_counter() + budget_s
    while not per_cycle or (perf_counter() < deadline and len(per_cycle) < 25):
        engine = make_engine(net, CountingBackend(), public_init=public_init,
                             engine="compiled")
        t0 = perf_counter()
        for i in range(cycles):
            engine.step(final=(i == cycles - 1))
        per_cycle.append((perf_counter() - t0) / cycles)
    return {"core.plan.us_per_cycle": median(per_cycle) * 1e6}


# -- core.protocol -------------------------------------------------------------


class PartiesRun:
    """Outcome of :func:`run_parties`: what ``ProtocolResult`` carries,
    gathered by the benchmark's own driver."""

    def __init__(self) -> None:
        self.outputs: List[int] = []
        self.tables_sent = 0
        self.garbled_nonxor = 0
        self.sent_bytes = 0
        self.garbler_wait_s = 0.0
        self.evaluator_wait_s = 0.0


def run_parties(net, cycles: int, inputs: dict, tracer,
                op_id: Optional[int]) -> PartiesRun:
    """One in-process two-party run driven through ``make_parties`` and
    ``channel_pair``, with a span around each party's ``attach``,
    ``run_cycles`` and ``finish``.  This is what ``api.run(...,
    mode="protocol")`` does, opened up so the phases can be timed."""
    from repro.core.protocol import make_parties
    from repro.gc import channel_pair

    a_end, b_end = channel_pair()
    garbler, evaluator = make_parties(net, cycles, ot="extension", **inputs)
    box: dict = {}

    def phases(party, role: str, parent: Optional[int]) -> List[int]:
        with tracer.span(f"core.protocol.{role}.attach", op_id, parent):
            party.attach(a_end if role == "garbler" else b_end)
        with tracer.span(f"core.protocol.{role}.cycles", op_id, parent):
            party.run_cycles()
        with tracer.span(f"core.protocol.{role}.finish", op_id, parent):
            return party.finish()

    with tracer.span("core.protocol.run", op_id) as root:

        def evaluator_main() -> None:
            try:
                box["outputs"] = phases(evaluator, "evaluator", root)
            except BaseException as exc:  # re-raised on the caller's thread
                box["error"] = exc
                b_end.abort()

        thread = threading.Thread(target=evaluator_main, name="evaluator",
                                  daemon=True)
        thread.start()
        try:
            outputs = phases(garbler, "garbler", root)
        except BaseException:
            a_end.abort()
            thread.join(timeout=5.0)
            raise
        thread.join(timeout=60.0)
    if "error" in box:
        raise box["error"]
    if thread.is_alive() or box.get("outputs") != outputs:
        raise AssertionError("evaluator did not finish with the garbler's outputs")
    run = PartiesRun()
    run.outputs = outputs
    run.tables_sent = garbler.backend.tables_sent
    run.garbled_nonxor = garbler.engine.stats.garbled_nonxor
    run.sent_bytes = a_end.sent.payload_bytes + b_end.sent.payload_bytes
    run.garbler_wait_s = a_end.received.wait_seconds
    run.evaluator_wait_s = b_end.received.wait_seconds
    return run


PROTOCOL_PHASES = ("attach", "cycles", "finish")


def protocol_phase_ms(tracer) -> Dict[str, float]:
    """Median per op of each protocol phase; a phase lasts as long as
    the slower of the two parties spends in it."""
    out = {}
    for phase in PROTOCOL_PHASES:
        garbler = tracer.durations(f"core.protocol.garbler.{phase}")
        evaluator = tracer.durations(f"core.protocol.evaluator.{phase}")
        both = [max(g, e) for g, e in zip(garbler, evaluator)]
        out[f"core.protocol.{phase}_ms"] = median(both) * 1e3 if both else 0.0
    return out


# -- obs -----------------------------------------------------------------------

OBS_PHASES = {"step": "step", "macro": "macro", "reduce": "reduce",
              "garble": "garble", "eval": "eval",
              "channel_wait": "channel.wait"}


def probe_obs(net, cycles: int, inputs: dict) -> Tuple[Dict[str, float], float]:
    """One profiled protocol run: the phase table ``repro.obs`` keeps,
    and the run's wall seconds (for the overhead share)."""
    from repro import api

    t0 = perf_counter()
    result = api.run(net, inputs, mode="protocol", ot="extension",
                     cycles=cycles, profile=True)
    wall = perf_counter() - t0
    timing = result.timing or {}
    metrics = {f"obs.phase.{key}_s": float(timing.get(phase, 0.0))
               for key, phase in OBS_PHASES.items()}
    return metrics, wall


# -- gc.material ---------------------------------------------------------------


def probe_material(net, cycles: int, garbler_inputs: dict,
                   reps: int) -> Dict[str, float]:
    """Offline garbling of one delta epoch of ``net``."""
    from repro.gc.material import build_material

    times = []
    for epoch in range(reps):
        material = build_material(net, cycles, ot="extension", epoch=epoch,
                                  **garbler_inputs)
        times.append(material.build_seconds)
    return {"gc.material.build_ms_per_epoch": median(times) * 1e3}
