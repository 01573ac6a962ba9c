"""The SkipGate engine: sequential garbled execution with gate skipping.

This module implements Algorithms 1-6 of the paper.  The engine runs a
sequential netlist for a number of clock cycles; in each cycle it makes
a single topological pass that fuses the paper's Phase 1 (Categories
i-ii: gates with public inputs, Algorithm 3) and Phase 2 (Categories
iii-iv: gates with secret inputs, Algorithms 4-5).  The two phases are
presented separately in the paper so Alice's garbling of cycle ``c+1``
can overlap Bob's evaluation of cycle ``c``; the *decisions* they make
per gate depend only on upstream wire states, so a fused pass produces
the identical set of garbled tables and reductions.  Our two-party
protocol (:mod:`repro.core.protocol`) reproduces the pipelining at the
cycle level by running the parties in separate threads.

Wire states
-----------
Each wire, in each cycle, carries either

* a **public** value — a plain ``int`` 0/1 known to both parties, or
* a **secret** value — a tuple ``(label, flip, origin)`` where ``label``
  is the raw label material (identical labels <=> bit-identical keys in
  the real protocol), ``flip`` is the logical-inversion bit of
  Section 3.3 (free-XOR NOT gates flip semantics without changing the
  key, so both parties track inversions with one extra bit), and
  ``origin`` indexes the per-cycle *gate record* that produced the
  label (-1 for inputs and flip-flops, where recursive reduction
  stops).

Gate records and label_fanout
-----------------------------
``label_fanout`` (Section 3.2) is kept per produced label in per-cycle
record arrays.  A record is created whenever a gate produces or passes
a secret label; its fanout is initialized to the gate's static fanout
(consumer pin count).  :meth:`SkipGateEngine._reduce` is Algorithm 6:
decrement, and on reaching zero recurse into the records of the gate's
secret inputs.  At the end of each cycle the garbled tables whose
record fanout dropped to zero are filtered out (Algorithm 4 line 18)
and never communicated.

Memory macros expand *dynamic* gate records through the same code path
(:class:`MacroContext`), so their cost and reduction behaviour is
identical to the equivalent MUX-tree subcircuit by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..circuit import gates as G
from ..circuit.netlist import ALICE, BOB, CONST, Netlist, PUBLIC
from ..obs import NULL_OBS
from .backend import Backend, CountingBackend
from .stats import CycleStats, RunStats

# Wire state type: int (public bit) or (label, flip, origin_record).
WireState = Union[int, Tuple[int, int, int]]

PublicInputs = Union[None, Sequence[int], Callable[[int], Sequence[int]]]

_XOR = G.GateType.XOR
_XNOR = G.GateType.XNOR


class MacroContext:
    """The only door through which macro ports reach an engine.

    Macros expand the minimal necessary sub-circuit per cycle (lazy
    MUX trees, decoders, conditional writes) by calling :meth:`gate`.
    Each call registers a *dynamic* gate record subject to the same
    category analysis, fanout bookkeeping and table filtering as static
    gates, so the macro's cost equals the gate-level circuit's cost.

    Wire states cross this facade in the tuple dialect of the module
    docstring whatever the engine stores: an engine with another wire
    representation supplies a subclass overriding :meth:`get` and
    :meth:`drive` (``repro.core.plan``), and every port's
    ``engine_step`` runs unchanged against it.
    """

    __slots__ = ("_eng",)

    def __init__(self, engine: "SkipGateEngine") -> None:
        self._eng = engine

    def get(self, wire: int) -> WireState:
        """Current state of a wire."""
        return self._eng.state[wire]

    @property
    def is_final(self) -> bool:
        """True during the pre-announced last sequential cycle."""
        return self._eng.in_final_cycle

    def wire_fanout(self, wire: int) -> int:
        """Static consumer-pin count of a wire (for root-gate fanout)."""
        if self._eng.in_final_cycle:
            return self._eng._final_consumers[wire]
        return self._eng._wire_consumers[wire]

    def gate(self, tt: int, sa: WireState, sb: WireState) -> WireState:
        """Process a dynamic gate.

        Fanout accounting convention: the output record starts at
        fanout 0 and every *dynamic* consumer bumps it — a ``gate``
        call bumps the records of its secret inputs, :meth:`drive`
        bumps by the static consumer count of the macro output wire,
        and :meth:`retain` accounts for a label being latched into
        persistent storage.  The statically counted port input pins
        are balanced by one :meth:`release` each when the expansion
        finishes.  A dynamic record starts at 0, unlike a static one,
        so a reader that resolves publicly can drop it back to 0 (and
        release its parents) while another read is due: a macro holds
        such a record with :meth:`retain` until its last read.  Only
        then does its label_fanout evolve as the gate-level
        subcircuit's would.
        """
        eng = self._eng
        eng._cs.dynamic_gates += 1
        rf = eng._rec_fanout
        if type(sa) is not int and sa[2] >= 0:
            rf[sa[2]] += 1
        if type(sb) is not int and sb[2] >= 0:
            rf[sb[2]] += 1
        return eng._process(tt, sa, sb, 0)

    def drive(self, wire: int, state: WireState) -> None:
        """Drive a macro output wire, crediting its static consumers."""
        eng = self._eng
        if type(state) is not int and state[2] >= 0:
            eng._rec_fanout[state[2]] += self.wire_fanout(wire)
        eng.state[wire] = state

    def retain(self, state: WireState) -> WireState:
        """Credit one consumer: a storage flip-flop pin, or a hold."""
        if type(state) is not int and state[2] >= 0:
            self._eng._rec_fanout[state[2]] += 1
        return state

    def release(self, state: WireState) -> None:
        """Release one consumer pin of a state (Algorithm 6 step).

        Used for statically counted macro-port input pins whose label
        the expansion did not store or consume, and to end a hold.
        """
        if type(state) is not int:
            self._eng._reduce(state[2])

    def resolve_init(self, init) -> WireState:
        """Initial state of a flip-flop / memory bit from its InitSpec."""
        return self._eng._resolve_init(init)

    def storage(self, macro: object) -> object:
        """Persistent storage handle of a macro."""
        return self._eng.macro_storage(macro)

    def defer(self, fn: Callable[[], None]) -> None:
        """Schedule a storage commit for the end of the current cycle."""
        self._eng._deferred.append(fn)

    @staticmethod
    def strip(state: WireState) -> WireState:
        """Drop the per-cycle origin record for persistent storage."""
        if type(state) is int:
            return state
        return (state[0], state[1], -1)


class SkipGateEngine:
    """Runs a netlist under the GC protocol with the SkipGate algorithm.

    Args:
        net: the sequential circuit (``c = f(a, b, p)``).
        backend: label backend; defaults to a :class:`CountingBackend`.
        public_init: bit vector referenced by ``InitSpec("public", i)``
            flip-flop/memory initializers — this is the public input
            ``p`` of the paper (e.g. the compiled ARM binary).
        obs: optional :class:`repro.obs.Obs`.  When enabled, each
            cycle reports per-phase wall-clock time (garble/eval,
            reduce, macro, step) and emits one per-cycle trace event;
            when disabled (the default) the overhead is a handful of
            attribute checks per cycle.
    """

    #: Execution-strategy discriminator (``repro.api`` reports it);
    #: the cycle-plan subclass overrides with ``"compiled"``.
    engine_name = "reference"

    def __init__(
        self,
        net: Netlist,
        backend: Optional[Backend] = None,
        public_init: Sequence[int] = (),
        obs=None,
    ) -> None:
        net.validate()
        self.net = net
        self.backend = backend if backend is not None else CountingBackend()
        self.obs = NULL_OBS if obs is None else obs
        self._profiling = self.obs.enabled
        #: Phase name for backend.garble time: "garble" on the garbler
        #: and counting backends, "eval" on the evaluator.
        self._garble_phase = getattr(self.backend, "PROFILE_PHASE", "garble")
        self._garble_seconds = 0.0
        self._reduce_seconds = 0.0
        self._macro_seconds = 0.0
        if self._profiling:
            # Shadow the method so the non-profiled path pays nothing.
            self._reduce = self._timed_reduce  # type: ignore[assignment]
        self.public_init = list(public_init)
        self.stats = RunStats(
            conventional_nonxor_per_cycle=net.n_nonxor_equivalent()
        )
        self.state: List[WireState] = [0] * net.n_wires
        self.state[1] = 1
        self.cycle = 0
        self.in_final_cycle = False
        self._static_fanout = net.static_fanout()
        self._wire_consumers = net.wire_consumers()
        self._final_fanout, self._final_consumers = self._final_cycle_fanout()
        self._ctx = MacroContext(self)
        self._deferred: List[Callable[[], None]] = []
        # Per-cycle gate records.
        self._rec_fanout: List[int] = []
        self._rec_oa: List[int] = []
        self._rec_ob: List[int] = []
        self._tables: List[Tuple[int, int]] = []  # (key, record)
        self._next_key = 0
        self._cs = CycleStats()
        # Persistent flip-flop state.
        self._ff_state: List[WireState] = [
            self._resolve_init(ff.init) for ff in net.dffs
        ]
        # Macro persistent storage, keyed by macro object identity.
        self._macro_store: Dict[int, object] = {}
        for macro in net.macros:
            self._macro_store[id(macro)] = macro.engine_init(self._ctx)  # type: ignore[attr-defined]

    # -- initialization ------------------------------------------------------

    def _final_cycle_fanout(self):
        """Fanout arrays for the pre-announced final cycle.

        The number of sequential cycles ``cc`` is an agreed input of
        the protocol (Algorithms 1-2), so both parties know which cycle
        is last.  In the final cycle a store into a flip-flop whose
        output is not a circuit output can never influence ``c`` — it
        is a dead store, and the gates feeding it are "gates not
        contributing to the final output" in the sense of Section 1.
        We therefore drop the d-pin fanout contribution of such
        flip-flops (Table 1's Sum rows — exactly one skipped gate, the
        last carry — come from this rule).
        """
        out_set = set(self.net.outputs)
        consumers = [0] * self.net.n_wires
        for a in self.net.gate_a:
            consumers[a] += 1
        for b in self.net.gate_b:
            consumers[b] += 1
        for ff in self.net.dffs:
            if ff.q in out_set:
                consumers[ff.d] += 1
        for w in self.net.outputs:
            consumers[w] += 1
        for port in self.net.macro_ports:
            for w in port.input_wires():  # type: ignore[attr-defined]
                consumers[w] += 1
        fanout = [0] * self.net.n_gates
        for gi, out in enumerate(self.net.gate_out):
            fanout[gi] = consumers[out]
        return fanout, consumers

    def _resolve_init(self, init) -> WireState:
        if init.src == CONST:
            return init.idx
        if init.src == PUBLIC:
            if init.idx >= len(self.public_init):
                raise ValueError(
                    f"public init bit {init.idx} out of range "
                    f"({len(self.public_init)} provided)"
                )
            return self.public_init[init.idx] & 1
        if init.src == "shared":
            # XOR-shared input (Section 5.7): free under free-XOR.
            la = self.backend.secret_label(("init", ALICE, init.idx))
            lb = self.backend.secret_label(("init", BOB, init.idx))
            return (self.backend.xor(la, lb), 0, -1)
        label = self.backend.secret_label(("init", init.src, init.idx))
        return (label, 0, -1)

    def macro_storage(self, macro: object) -> object:
        """Persistent storage handle of a macro (used by macro ports)."""
        return self._macro_store[id(macro)]

    # -- Algorithm 6: recursive fanout reduction ------------------------------

    def _reduce(self, origin: int) -> None:
        """Recursive label_fanout reduction, iteratively (Algorithm 6)."""
        if origin < 0:
            return
        rf = self._rec_fanout
        roa = self._rec_oa
        rob = self._rec_ob
        cs = self._cs
        stack = [origin]
        while stack:
            r = stack.pop()
            if r < 0:
                continue
            cs.reduction_calls += 1
            f = rf[r]
            if f <= 0:
                continue
            f -= 1
            rf[r] = f
            if f == 0:
                stack.append(roa[r])
                stack.append(rob[r])

    def _timed_reduce(self, origin: int) -> None:
        """Profiling variant of :meth:`_reduce` (installed via ``obs``)."""
        t0 = perf_counter()
        SkipGateEngine._reduce(self, origin)
        self._reduce_seconds += perf_counter() - t0

    def _new_record(self, fanout: int, oa: int, ob: int) -> int:
        self._rec_fanout.append(fanout)
        self._rec_oa.append(oa)
        self._rec_ob.append(ob)
        return len(self._rec_fanout) - 1

    # -- per-gate category dispatch (Phases 1+2 fused) ------------------------

    def _process(self, tt: int, sa: WireState, sb: WireState, fanout: int) -> WireState:
        cs = self._cs
        a_pub = type(sa) is int
        b_pub = type(sb) is int

        if a_pub and b_pub:
            # Category i: compute locally.
            cs.cat_i += 1
            return (tt >> (sa + 2 * sb)) & 1

        if a_pub or b_pub:
            # Category ii: one public input.
            cs.cat_ii += 1
            if a_pub:
                r = G.restrict(tt, 0, sa)
                sec = sb
            else:
                r = G.restrict(tt, 1, sb)
                sec = sa
            if r.kind == G.CONST:
                # Output public: the secret input's producer loses a
                # consumer (Algorithm 3 lines 10-13).
                self._reduce(sec[2])
                return r.value
            rec = self._new_record(fanout, sec[2], -1)
            flip = sec[1] ^ (1 if r.kind == G.INVERT else 0)
            return (sec[0], flip, rec)

        la, fa, oa = sa
        lb, fb, ob = sb

        if la == lb:
            # Category iii: identical key material; flips distinguish
            # identical from inverted logical values (Section 3.3).
            cs.cat_iii += 1
            r = G.restrict_equal(tt) if fa == fb else G.restrict_inverted(tt)
            if r.kind == G.CONST:
                self._reduce(oa)
                self._reduce(ob)
                return r.value
            rec = self._new_record(fanout, oa, ob)
            flip = fa ^ (1 if r.kind == G.INVERT else 0)
            return (la, flip, rec)

        # Category iv: unrelated secret inputs.
        if tt == _XOR or tt == _XNOR:
            cs.cat_iv_xor += 1
            rec = self._new_record(fanout, oa, ob)
            label = self.backend.xor(la, lb)
            flip = fa ^ fb ^ (1 if tt == _XNOR else 0)
            return (label, flip, rec)

        if tt in G.DEGENERATE_TYPES:
            # Degenerate gates never appear in built netlists; handled
            # for robustness on hand-written ones.
            return self._process_degenerate(tt, sa, sb, fanout)

        tt_eff = G.apply_input_flips(tt, fa, fb)
        key = self._next_key
        self._next_key += 1
        if self._profiling:
            t0 = perf_counter()
            label = self.backend.garble(tt_eff, la, lb, key)
            self._garble_seconds += perf_counter() - t0
        else:
            label = self.backend.garble(tt_eff, la, lb, key)
        cs.cat_iv_garbled += 1
        rec = self._new_record(fanout, oa, ob)
        self._tables.append((key, rec))
        return (label, 0, rec)

    def _process_degenerate(
        self, tt: int, sa: WireState, sb: WireState, fanout: int
    ) -> WireState:
        cs = self._cs
        cs.cat_iii += 1
        if tt == G.GateType.ZERO or tt == G.GateType.ONE:
            self._reduce(sa[2])  # type: ignore[index]
            self._reduce(sb[2])  # type: ignore[index]
            return 1 if tt == G.GateType.ONE else 0
        if tt in (G.GateType.BUFA, G.GateType.NOTA):
            keep, drop = sa, sb
            inv = 1 if tt == G.GateType.NOTA else 0
        else:
            keep, drop = sb, sa
            inv = 1 if tt == G.GateType.NOTB else 0
        self._reduce(drop[2])  # type: ignore[index]
        rec = self._new_record(fanout, keep[2], -1)  # type: ignore[index]
        return (keep[0], keep[1] ^ inv, rec)  # type: ignore[index]

    # -- sequential cycles -----------------------------------------------------

    def step(self, public_bits: Sequence[int] = (), final: bool = False) -> CycleStats:
        """Run one sequential cycle (Algorithms 1-2 loop body).

        ``final`` marks the last of the agreed ``cc`` cycles, enabling
        dead-store elimination for flip-flops and memories whose
        contents can no longer reach an output.

        This is the one cycle skeleton both engines run.  What depends
        on how wire states are stored lives in three whole-phase hooks
        — :meth:`_seed`, :meth:`_sweep_cycle`, :meth:`_latch` — each
        called once per cycle, never per wire or per gate.
        """
        self.in_final_cycle = final
        backend = self.backend
        cs = CycleStats(cycle=self.cycle)
        self._cs = cs
        profiling = self._profiling
        if profiling:
            self._garble_seconds = 0.0
            self._reduce_seconds = 0.0
            self._macro_seconds = 0.0
            t_step0 = perf_counter()

        # Initialize labels' fanout: records are per-cycle.
        self._rec_fanout = []
        self._rec_oa = []
        self._rec_ob = []
        self._tables = []
        self._next_key = 0

        n_public = len(self.net.inputs[PUBLIC])
        if len(public_bits) != n_public:
            raise ValueError(
                f"expected {n_public} public input bits, "
                f"got {len(public_bits)}"
            )
        self._seed(public_bits)
        backend.begin_cycle(self.cycle)
        self._sweep_cycle(final)

        # Filter garbled tables whose fanout collapsed (Alg. 4 line 18).
        kept: List[int] = []
        dropped: List[int] = []
        rf = self._rec_fanout
        for key, rec in self._tables:
            if rf[rec] > 0:
                kept.append(key)
            else:
                dropped.append(key)
        cs.tables_filtered = len(dropped)
        cs.tables_sent = len(kept)
        backend.end_cycle(kept, dropped)

        # Commit deferred memory writes, then copy flip-flop labels.
        for fn in self._deferred:
            fn()
        self._deferred.clear()
        self._ff_state = self._latch()

        if profiling:
            step_seconds = perf_counter() - t_step0
            obs = self.obs
            obs.add_time("step", step_seconds)
            obs.add_time(
                self._garble_phase, self._garble_seconds, cs.cat_iv_garbled
            )
            obs.add_time("reduce", self._reduce_seconds, cs.reduction_calls)
            if self._macro_seconds:
                obs.add_time("macro", self._macro_seconds)
            obs.event(
                "cycle",
                cycle=cs.cycle,
                seconds=round(step_seconds, 6),
                garble_seconds=round(self._garble_seconds, 6),
                reduce_seconds=round(self._reduce_seconds, 6),
                macro_seconds=round(self._macro_seconds, 6),
                cat_i=cs.cat_i,
                cat_ii=cs.cat_ii,
                cat_iii=cs.cat_iii,
                cat_iv_xor=cs.cat_iv_xor,
                cat_iv_garbled=cs.cat_iv_garbled,
                tables_filtered=cs.tables_filtered,
                tables_sent=cs.tables_sent,
                reduction_calls=cs.reduction_calls,
                dynamic_gates=cs.dynamic_gates,
                dead_skipped=cs.dead_skipped,
            )

        self.cycle += 1
        self.stats.add_cycle(cs)
        return cs

    def _seed(self, public_bits: Sequence[int]) -> None:
        """Cycle prologue: constants, input labels, flip-flop outputs.

        The ``backend.secret_label`` call order is part of the protocol
        (the crypto backends do channel I/O here): Alice's inputs, then
        Bob's, in wire order.
        """
        net = self.net
        state = self.state
        secret_label = self.backend.secret_label
        state[0] = 0
        state[1] = 1
        for role in (ALICE, BOB):
            for i, w in enumerate(net.inputs[role]):
                state[w] = (secret_label(("in", role, self.cycle, i)), 0, -1)
        for w, bit in zip(net.inputs[PUBLIC], public_bits):
            state[w] = bit & 1
        for ff, s in zip(net.dffs, self._ff_state):
            state[ff.q] = s

    def _sweep_cycle(self, final: bool) -> None:
        """One topological pass over the schedule: gates and macro ports."""
        net = self.net
        state = self.state
        cs = self._cs
        profiling = self._profiling
        tts = net.gate_tt
        gas = net.gate_a
        gbs = net.gate_b
        gouts = net.gate_out
        fanouts = self._final_fanout if final else self._static_fanout
        ports = net.macro_ports
        process = self._process
        ctx = self._ctx
        for entry in net.schedule:
            if entry >= 0:
                sa = state[gas[entry]]
                sb = state[gbs[entry]]
                if type(sa) is int and type(sb) is int:
                    # Category i fast path.
                    cs.cat_i += 1
                    state[gouts[entry]] = (tts[entry] >> (sa + 2 * sb)) & 1
                elif fanouts[entry] == 0:
                    # Dead gate ("for g where label_fanout > 0",
                    # Algorithms 4-5): never garbled; its consumer pins
                    # on the producing gates are released.  Arises for
                    # final-cycle dead stores and structurally dead
                    # logic.  The output value is unobservable.
                    cs.dead_skipped += 1
                    if type(sa) is not int:
                        self._reduce(sa[2])
                    if type(sb) is not int:
                        self._reduce(sb[2])
                    state[gouts[entry]] = 0
                else:
                    state[gouts[entry]] = process(tts[entry], sa, sb, fanouts[entry])
            elif profiling:
                t0 = perf_counter()
                ports[-entry - 1].engine_step(ctx)  # type: ignore[attr-defined]
                self._macro_seconds += perf_counter() - t0
            else:
                ports[-entry - 1].engine_step(ctx)  # type: ignore[attr-defined]

    def _latch(self) -> List[WireState]:
        """Clock edge: the flip-flops' next contents, origins stripped."""
        state = self.state
        strip = MacroContext.strip
        return [strip(state[ff.d]) for ff in self.net.dffs]

    def run(self, cycles: int, public_inputs: PublicInputs = None) -> RunStats:
        """Run ``cycles`` sequential cycles; returns aggregate stats."""
        for i in range(cycles):
            if public_inputs is None:
                bits: Sequence[int] = ()
            elif callable(public_inputs):
                bits = public_inputs(self.cycle)
            else:
                bits = public_inputs
            self.step(bits, final=(i == cycles - 1))
        return self.stats

    # -- results ---------------------------------------------------------------

    def output_states(self) -> List[WireState]:
        """Wire states of the declared outputs after the last cycle.

        Output wires that are flip-flop outputs report the committed
        (post-clock-edge) value; purely combinational output wires
        report their value during the last cycle.
        """
        committed = {}
        for ffi, ff in enumerate(self.net.dffs):
            committed[ff.q] = self._ff_state[ffi]
        get = self._ctx.get
        return [
            committed[w] if w in committed else get(w)
            for w in self.net.outputs
        ]

    def public_output_bits(self) -> List[Optional[int]]:
        """Output bits that ended up public (None where still secret)."""
        return [s if type(s) is int else None for s in self.output_states()]
