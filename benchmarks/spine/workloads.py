"""The five workloads of the measurement spine.

An *op* is one complete secure computation: an in-process two-party
run, or one served session.  Every workload generates its inputs from
the run's seed, runs its ops closed-loop (a client starts its next op
when the previous one returns) over loopback, and checks each op's
output against an oracle that does not share code with the garbling
path.  Why each workload exists is recorded in ``BENCHMARK.json`` and
the README.

Workload objects are driven by ``worker.py``: ``setup()`` is
everything before the first timed op, ``run_op()`` is one timed op,
``verify()`` checks it after the measured window, ``teardown()``
stops what ``setup()`` started and returns the layer counters.
"""

from __future__ import annotations

import multiprocessing
import random
from statistics import median
from time import perf_counter, sleep, thread_time
from typing import Dict, List, Optional, Sequence

import layers

#: Garbler operand (registry circuits) or garbler set seed (PSI) of
#: every served program.
SERVER_VALUE = 1234


class Op:
    """One timed op and what is needed to verify and account it."""

    __slots__ = ("index", "start", "end", "program", "observed", "expected",
                 "tables", "payload_bytes", "wire_bytes", "cpu_s", "retries",
                 "session", "garbler_wait_s", "evaluator_wait_s", "error")

    def __init__(self, index: int, program: str) -> None:
        self.index = index
        self.program = program
        self.start = self.end = 0.0
        self.observed = self.expected = None
        self.tables = self.payload_bytes = self.wire_bytes = 0
        self.cpu_s = 0.0
        self.retries = 0
        self.session: Optional[str] = None
        self.garbler_wait_s = self.evaluator_wait_s = 0.0
        self.error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Workload:
    name = ""
    #: Closed-loop client threads (never more than the host's cores).
    clients = 1
    #: Ops per client per window; a run is a whole number of windows.
    window_ops = 1
    #: Whether ops cross the serve tier (framed TCP, server, client).
    served = False
    #: Fresh base-OT phases (128 DH transfers) one op pays.
    base_ot_phases_per_op = 1
    #: Window kinds, taken in turn.  ``"op"`` windows are measured;
    #: the other kinds feed one layer.  A run is at least one of each.
    kinds: Sequence[str] = ("op",)

    def __init__(self, seed: int, quick: bool, tracer) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        #: name -> (netlist, cycles) of every circuit ops run.
        self.circuits: Dict[str, tuple] = {}

    def op_rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)

    def stop(self) -> None:
        """Stop whatever ``setup()`` started; safe to call twice."""

    def router_counters(self) -> Optional[dict]:
        """The router's ``op: "stats"`` reply; ``None`` without one."""
        return None

    def teardown(self) -> dict:
        """Stop everything and return the serve counters (if any)."""
        self.stop()
        return {}

    # -- the circuit the per-layer probes run on --------------------------

    def probe_circuit(self) -> tuple:
        """``(net, cycles)`` of the workload's (first) circuit."""
        return next(iter(self.circuits.values()))

    def probe_inputs(self, index: int) -> dict:
        raise NotImplementedError

    def garbler_inputs(self) -> dict:
        """The garbler-side subset of ``probe_inputs`` (material build)."""
        return {k: v for k, v in self.probe_inputs(0).items()
                if k in ("alice", "alice_init", "public", "public_init")}

    def public_init(self) -> Sequence[int]:
        return self.probe_inputs(0).get("public_init", ())

    def ot_transfers_per_op(self) -> float:
        total = 0
        for net, cycles in self.circuits.values():
            bob_init = len(self.probe_inputs(0).get("bob_init", ()))
            total += len(net.inputs["bob"]) * cycles + bob_init
        return total / len(self.circuits)


# ---------------------------------------------------------------------------
# In-process workloads: both parties in this process, memory channel.
# ---------------------------------------------------------------------------


class InProcessWorkload(Workload):
    program = ""

    def build(self) -> None:
        """Set ``self.circuits[self.program]`` (with build spans)."""
        raise NotImplementedError

    def make_inputs(self, index: int) -> tuple:
        """``(api.run inputs, expected)`` for op ``index``."""
        raise NotImplementedError

    def decode(self, outputs: List[int]):
        """Output bits -> the value the oracle predicts."""
        raise NotImplementedError

    def probe_inputs(self, index: int) -> dict:
        return self.make_inputs(index)[0]

    def setup(self) -> None:
        self.build()
        net, _cycles = self.circuits[self.program]
        layers.warm_plan_timed(net, self.public_init(), self.tracer)
        with self.tracer.span("setup.warm_op"):
            warm = self.run_op(-1, 0, "op")
        if not self.verify(warm):
            raise AssertionError(f"{self.name}: warm op failed: {warm.error}")

    def run_op(self, index: int, client: int, kind: str) -> Op:
        from repro import api

        net, cycles = self.circuits[self.program]
        inputs, expected = self.make_inputs(index)
        op = Op(index, self.program)
        op.expected = expected
        op.start = perf_counter()
        if self.tracer.enabled:
            # The traced op drives the parties itself so that each
            # protocol phase gets a span; api.run hides them.
            with self.tracer.span("op", op_id=index):
                run = layers.run_parties(net, cycles, inputs, self.tracer,
                                         index)
            op.end = perf_counter()
            outputs, op.tables = run.outputs, run.tables_sent
            op.payload_bytes = run.sent_bytes
            op.garbler_wait_s = run.garbler_wait_s
            op.evaluator_wait_s = run.evaluator_wait_s
        else:
            res = api.run(net, inputs, mode="protocol", ot="extension",
                          cycles=cycles)
            op.end = perf_counter()
            outputs, op.tables = list(res.outputs), res.tables_sent
            op.payload_bytes = res.alice_sent_bytes + res.bob_sent_bytes
            op.garbler_wait_s = res.alice_wait_seconds
            op.evaluator_wait_s = res.bob_wait_seconds
        op.wire_bytes = op.payload_bytes  # the memory channel adds no framing
        op.observed = self.decode(outputs)
        return op

    def verify(self, op: Op) -> bool:
        if op.error is None and op.observed != op.expected:
            op.error = f"output {op.observed!r} != oracle {op.expected!r}"
        return op.error is None


class ArmSweep(InProcessWorkload):
    """C -> ``repro.cc`` -> garbled ARM CPU under SkipGate."""

    name = "arm_sweep"
    window_ops = 3

    def __init__(self, seed, quick, tracer) -> None:
        super().__init__(seed, quick, tracer)
        self.source = "hamming32" if quick else "hamming160"
        self.program = f"arm-{self.source}"

    def build(self) -> None:
        self.prog, self.machine = layers.build_arm_machine(
            self.source, self.tracer)
        cfg = self.machine.config
        program = self.machine.program
        self.imem = program + [0] * (cfg.imem_words - len(program))
        alice, bob = self.prog.gen_inputs(self.op_rng(0))
        cycles, fixed = self.machine.required_cycles(alice, bob)
        if not fixed:
            raise AssertionError("cycle count depends on the inputs")
        self.circuits[self.program] = (self.machine.net, cycles)

    def make_inputs(self, index: int) -> tuple:
        from repro.circuit.bits import pack_words

        cfg = self.machine.config
        alice, bob = self.prog.gen_inputs(self.op_rng(index))
        inputs = {
            "alice_init": pack_words(
                alice + [0] * (cfg.alice_words - len(alice)), 32),
            "bob_init": pack_words(bob + [0] * (cfg.bob_words - len(bob)), 32),
            "public_init": pack_words(self.imem, 32),
        }
        return inputs, self.prog.oracle(alice, bob)

    def decode(self, outputs: List[int]) -> List[int]:
        from repro.circuit.bits import unpack_words

        return unpack_words(outputs, 32)[: self.prog.output_words]

    def setup(self) -> None:
        super().setup()
        # The warm op is also checked against the local simulator, so
        # the oracle and the repo's own reference agree on this build.
        from repro import api

        net, cycles = self.circuits[self.program]
        inputs, expected = self.make_inputs(-1)
        with self.tracer.span("setup.local_check"):
            local = api.run(net, inputs, mode="local", cycles=cycles)
        if self.decode(list(local.outputs)) != expected:
            raise AssertionError("local simulator disagrees with the oracle")


class GcHeavy(InProcessWorkload):
    """Batched hash-bucket PSI: one cycle, every gate garbled."""

    name = "gc_heavy"
    window_ops = 1
    batch = 4

    def __init__(self, seed, quick, tracer) -> None:
        super().__init__(seed, quick, tracer)
        self.base = "psi-hash8x16" if quick else "psi-hash16x32"
        self.program = f"{self.base}@b{self.batch}"

    def build(self) -> None:
        from repro.workloads import get_workload

        self.workload = get_workload(self.program)
        self.spec = get_workload(self.base).spec
        with self.tracer.span("workloads.build"):
            self.circuits[self.program] = self.workload.build()

    def make_inputs(self, index: int) -> tuple:
        from repro.workloads import psi
        from repro.workloads.batch import encode_batch

        rng = self.op_rng(index)
        values = [rng.getrandbits(31) for _ in range(self.batch)]
        _net, cycles = self.circuits[self.program]
        inputs = {
            "alice": self.workload.alice_source(SERVER_VALUE, cycles),
            "bob": encode_batch(self.base, values),
        }
        mine = set(psi.set_from_seed(self.spec, SERVER_VALUE))
        sizes = [len(mine & set(psi.set_from_seed(self.spec, v)))
                 for v in values]
        return inputs, sizes

    def decode(self, outputs: List[int]) -> List[int]:
        from repro.workloads.batch import split_batch

        return [q.size for q in split_batch(self.base, self.batch, outputs)]


# ---------------------------------------------------------------------------
# Served workloads: a GarbleServer (or a routed fleet) on loopback.
# ---------------------------------------------------------------------------


class ServedWorkload(Workload):
    served = True
    programs: Sequence[str] = ()
    precompute = True
    workers = 2
    material_depth = 64

    def config(self):
        from repro.serve import ServeConfig

        return ServeConfig(pool="process", workers=self.workers,
                           ot="extension", precompute=self.precompute,
                           material_depth=self.material_depth)

    # -- programs, operands, oracles ----------------------------------------

    def serve_program(self, name: str):
        from repro.serve import registry_program

        return registry_program(name, SERVER_VALUE)

    def build_programs(self) -> dict:
        with self.tracer.span("workloads.build"):
            programs = {name: self.serve_program(name)
                        for name in self.programs}
        self.serve_programs = programs
        for name, prog in programs.items():
            self.circuits[name] = (prog.net, prog.cycles)
        return programs

    def operand(self, index: int, program: str) -> int:
        net, _cycles = self.circuits[program]
        return self.op_rng(index).getrandbits(
            min(31, len(net.inputs["bob"])))

    def bob_bits(self, program: str, value: int) -> List[int]:
        from repro.circuit.bits import int_to_bits

        net, _cycles = self.circuits[program]
        return int_to_bits(value, len(net.inputs["bob"]))

    def expected_outputs(self, program: str, value: int) -> List[int]:
        """``mode="local"`` outputs: the plain simulator as oracle."""
        from repro import api

        net, cycles = self.circuits[program]
        prog = self.serve_programs[program]
        local = api.run(net, {"alice": prog.alice,
                              "bob": self.bob_bits(program, value)},
                        mode="local", cycles=cycles)
        return list(local.outputs)

    def probe_inputs(self, index: int) -> dict:
        program = self.programs[0]
        return {"alice": self.serve_programs[program].alice,
                "bob": self.bob_bits(program, self.operand(index, program))}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the server(s); set ``self.servers`` and ``self.front``
        (the address ops dial)."""
        from repro.serve import GarbleServer

        server = GarbleServer(self.build_programs(), config=self.config())
        with self.tracer.span("serve.server.start"):
            server.start()
            self.servers = [server]
            self.wait_ready()
        self.front = (server.host, server.port)

    def wait_ready(self) -> None:
        """Block until every worker has pre-garbled its material pool
        (``material_epochs`` is the server's public counter)."""
        if not self.precompute:
            return
        want = self.workers * len(self.programs) * self.material_depth
        deadline = perf_counter() + 60.0
        for server in self.servers:
            while server.counters()["material_epochs"] < want:
                if perf_counter() > deadline:
                    raise AssertionError("material pools never filled")
                sleep(0.005)

    def make_clients(self) -> None:
        """One handle per closed-loop connection, each with a stable
        identity (which is what lets the server reuse its base OT)."""
        from repro.serve import ServeClient

        self.handles = {
            (client, "op", program): ServeClient(
                *self.front, client_id=self.client_id(client), ot="extension")
            for client in range(self.clients) for program in self.programs
        }

    def client_id(self, client: int) -> Optional[str]:
        return f"spine-{self.seed}-{client}"

    def setup(self) -> None:
        self.start()
        for net, _cycles in self.circuits.values():
            layers.warm_plan_timed(net, (), self.tracer)
        self.make_clients()
        with self.tracer.span("setup.warm_op"):
            self.warm()

    def warm(self) -> None:
        """One verified session per client, window kind and program
        (op indices below zero), so that no timed op is a first."""
        for client in range(self.clients):
            for tag, kind in enumerate(self.kinds):
                for k in range(len(self.programs)):
                    op = self.run_op(-1 - 100 * tag - k, client, kind)
                    if not self.verify(op):
                        raise AssertionError(
                            f"{self.name}: warm op: {op.error}")

    def session_id(self, index: int, client: int, kind: str) -> str:
        tag = self.kinds.index(kind)
        return "%08x%02x%02x%020x" % (self.seed & 0xFFFFFFFF, tag, client,
                                       index & (2 ** 80 - 1))

    def run_op(self, index: int, client: int, kind: str) -> Op:
        program = self.programs[index % len(self.programs)]
        value = self.operand(index, program)
        handle = self.handles[client, kind, program]
        op = Op(index, program)
        op.session = self.session_id(index, client, kind)
        op.expected = value  # resolved to output bits by verify()
        net, _cycles = self.circuits[program]
        cpu0 = thread_time()
        op.start = perf_counter()
        try:
            with self.tracer.span("op", op_id=index):
                with self.tracer.span("serve.client.run"):
                    res = handle.run(program, value, session_id=op.session,
                                     net=net)
        except Exception as exc:  # a failed or refused session is a failed op
            op.end = perf_counter()
            op.error = f"{type(exc).__name__}: {exc}"
            return op
        op.end = perf_counter()
        op.cpu_s = thread_time() - cpu0
        op.observed = list(res.outputs)
        op.tables = res.stats.garbled_nonxor
        op.payload_bytes = res.sent.payload_bytes + res.received.payload_bytes
        op.wire_bytes = res.sent.wire_bytes + res.received.wire_bytes
        op.retries = res.reconnects
        return op

    def verify(self, op: Op) -> bool:
        if op.error is None:
            expected = self.expected_outputs(op.program, op.expected)
            if op.observed != expected:
                op.error = "outputs differ from the oracle's"
        return op.error is None

    # -- counters ------------------------------------------------------------

    def session_walls_ms(self) -> Dict[str, int]:
        """session id -> server-side ``wall_ms`` from the stats rings
        (the last 64 sessions of each server)."""
        walls = {}
        for server in self.servers:
            for record in server.stats_snapshot()["sessions"]:
                if record.get("state") == "done":
                    walls[record["session"]] = record["wall_ms"]
        return walls

    def hello_rtt_ms(self, addr, n: int) -> float:
        from repro.serve import fetch_stats

        times = []
        for _ in range(n):
            t0 = perf_counter()
            fetch_stats(*addr)
            times.append(perf_counter() - t0)
        return median(times) * 1e3

    def shard_addr(self):
        return (self.servers[0].host, self.servers[0].port)

    def stop(self) -> None:
        for server in getattr(self, "servers", ()):
            server.shutdown()

    def teardown(self) -> dict:
        t0 = perf_counter()
        self.stop()
        shutdown_ms = (perf_counter() - t0) * 1e3
        # Read after the drain: a session's counters settle a moment
        # after its last frame reaches the client.
        counters = {key: sum(s.counters()[key] for s in self.servers)
                    for key in ("accepted", "completed", "failed",
                                "rejected_busy", "material_hits",
                                "material_misses", "material_epochs")}
        counters["shutdown_ms"] = shutdown_ms
        counters["children_alive"] = len(multiprocessing.active_children())
        return counters


class ServeOnline(ServedWorkload):
    """One server, material replay and cached base OT: what is left is
    the fixed per-session cost of the serve and net layers."""

    name = "serve_online"
    programs = ("sum32",)
    window_ops = 100
    base_ot_phases_per_op = 0

    def __init__(self, seed, quick, tracer) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.window_ops = 10


class ServeFull(ServedWorkload):
    """The same server shape the other way: no precompute, anonymous
    clients, so every session pays base OT and inline garbling, with
    two sessions in flight."""

    name = "serve_full"
    programs = ("psi-hash8x16",)
    clients = 2
    window_ops = 2
    precompute = False

    def __init__(self, seed, quick, tracer) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.window_ops = 1
        self.psi: dict = {}

    def client_id(self, client: int) -> Optional[str]:
        return None  # anonymous: no base-OT reuse across sessions

    def serve_program(self, name: str):
        from repro.workloads import get_workload, workload_program

        self.psi[name] = get_workload(name)
        return workload_program(name, value=SERVER_VALUE)

    def bob_bits(self, program: str, value: int) -> List[int]:
        _net, cycles = self.circuits[program]
        return list(self.psi[program].bob_source(value, cycles))

    def expected_outputs(self, program: str, value: int) -> List[int]:
        """The python set oracle of the PSI workload."""
        return list(self.psi[program].oracle(SERVER_VALUE, value))

    def warm(self) -> None:
        # Both workers compile and both connections warm up at once.
        import threading

        ops: List[Op] = []
        threads = [
            threading.Thread(
                target=lambda c=c: ops.append(
                    self.run_op(-1 - c, c, "op")))
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        if len(ops) != self.clients or not all(self.verify(o) for o in ops):
            raise AssertionError(
                f"{self.name}: warm ops: {[o.error for o in ops]}")


class FleetRouted(ServedWorkload):
    """Two shards behind the session router: the only workload with
    ``serve.router`` on the path.  Windows alternate between sessions
    through the router (the ops) and the same sessions dialled straight
    to the owning shard (which only feed ``serve.router.*``)."""

    name = "fleet_routed"
    programs = ("sum32", "mult8", "compare32", "hamming32")
    window_ops = 24
    workers = 1
    shards = 2
    base_ot_phases_per_op = 0
    kinds = ("op", "direct")

    def __init__(self, seed, quick, tracer) -> None:
        super().__init__(seed, quick, tracer)
        if quick:
            self.window_ops = 8
        #: Sessions dialled through the router, warm-ups included.
        self.routed_sent = 0

    def run_op(self, index: int, client: int, kind: str) -> Op:
        if kind == "op":
            self.routed_sent += 1
        return super().run_op(index, client, kind)

    def start(self) -> None:
        from repro.serve import LocalFleet, rendezvous_select

        programs = self.build_programs()
        with self.tracer.span("serve.server.start"):
            self.fleet = LocalFleet(programs, shards=self.shards,
                                    config=self.config())
            self.servers = self.fleet.servers
            self.wait_ready()
        self.front = (self.fleet.host, self.fleet.port)
        digests = self.servers[0].program_digests
        self.owner = {name: rendezvous_select(digests[name],
                                              self.fleet.shard_addrs)
                      for name in self.programs}

    def make_clients(self) -> None:
        """The one connection keeps one stable identity per shard it
        reaches and per endpoint it dials.  The server keeps base-OT
        sender state per client id and shard, the client keeps receiver
        state per client id and endpoint; one id whose sessions land on
        two shards (or that dials a shard both directly and through the
        router) desyncs the two caches and the session fails.
        """
        from repro.serve import ServeClient

        self.handles = {}
        for program in self.programs:
            shard = self.fleet.shard_addrs.index(self.owner[program])
            for kind, addr in (("op", self.front),
                               ("direct", self.owner[program])):
                self.handles[0, kind, program] = ServeClient(
                    *addr, client_id=f"spine-{self.seed}-{kind}-{shard}",
                    ot="extension")

    def router_counters(self) -> dict:
        from repro.serve import fetch_stats

        return fetch_stats(*self.front)

    def stop(self) -> None:
        if hasattr(self, "fleet"):
            self.fleet.shutdown()


class ReferenceFleet(FleetRouted):
    """The smallest routed fleet: one thread-pool shard serving sum32.
    Traced runs of workloads that never cross the serve tier (or the
    router) measure those layers' unit costs on it."""

    name = "reference_fleet"
    programs = ("sum32",)
    window_ops = 6
    shards = 1
    material_depth = 4

    def config(self):
        return super().config().replace(pool="thread")


WORKLOADS = {cls.name: cls for cls in
             (ArmSweep, GcHeavy, ServeOnline, ServeFull, FleetRouted)}
