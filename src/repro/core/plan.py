"""Cycle-plan compiler and batched execution kernel for SkipGate.

The paper's premise is that the *same* processor netlist is garbled
every clock cycle with only the gate categories changing, yet the
reference :class:`~repro.core.engine.SkipGateEngine` re-walks Python
gate objects and re-dispatches per gate every cycle.  This module
compiles a netlist **once** into a :class:`CyclePlan` — dense parallel
row arrays (truth table, input indices, output index, fanout) chunked
into the segments between macro ports, plus per-port static pin
structure — and runs it with :class:`CompiledSkipGateEngine`, whose
per-cycle sweep is a tight loop over the preallocated rows.

Three representation changes carry the speedup:

* **Interned wire states.**  The compiled engine's ``state`` list holds
  only ints: ``>= 0`` is a public bit, ``< 0`` encodes an index into
  the per-cycle ``_sec`` side table of secret ``(label, flip, origin)``
  tuples.  The Category-i test for a gate collapses to one branch,
  ``sa | sb >= 0`` (the sign bit ORs through), instead of two
  ``type(...) is int`` checks.
* **Write-time pending pin lists.**  A lazy selector with public select
  bits must release every statically counted entry pin (the recursive
  skipping of the paper's Section 3 example); the reference engine
  re-scans all ``entries x width`` pins per port per cycle.  The plan
  precomputes, for every wire that feeds selector entry pins, which
  pending list (and with what pin multiplicity) a secret label landing
  on that wire must be pushed to.  The per-cycle release scan then
  touches only the secret pins that actually exist this cycle —
  usually none — instead of every pin.
* **Specialized public fast paths** for the macro ports (selector /
  unit / shifter / memory read / memory write), operating directly on
  the interned store.  Any case a fast path does not replicate exactly
  falls back to the port's own ``engine_step``.  Ports see an engine
  only through :class:`~repro.core.engine.MacroContext`, and each
  engine supplies its own (here :class:`_InternedContext`, which
  decodes and encodes wire states at the door), so the same port code
  runs verbatim on both engines and secret-path behaviour (dynamic
  gate records, reduction order, backend call order) is
  reference-identical by construction.

The cycle itself is :meth:`SkipGateEngine.step`, written once; this
engine overrides only its three whole-phase hooks (``_seed``,
``_sweep_cycle``, ``_latch``) for the interned representation.

Statistics, backend call order and garbled-table keys are
bit-identical to the reference engine, so either one records the same
residual trace (:mod:`repro.core.trace`), which is all a session ever
runs.  Differential equivalence over every bench circuit and the ARM machine
is pinned by ``tests/core/test_cycle_plan.py``.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..circuit.lazy import LazySelectorPort, LazyShifterPort, LazyUnitPort
from ..circuit.macros import MemReadPort, MemWritePort
from ..circuit.netlist import ALICE, BOB, Netlist, PUBLIC
from .engine import MacroContext, SkipGateEngine, WireState

__all__ = [
    "CyclePlan", "GateRows", "compile_plan", "warm_plan",
    "CompiledSkipGateEngine", "make_engine",
]


# ---------------------------------------------------------------------------
# Plan IR
# ---------------------------------------------------------------------------


class _PortPlan:
    """Static per-port structure shared by every engine instance."""

    __slots__ = ("port", "index", "entry_pin_mult", "out_src_pairs")

    def __init__(self, port, index: int) -> None:
        self.port = port
        self.index = index
        #: Selector only: flattened entry-pin wire -> pin multiplicity.
        self.entry_pin_mult: Dict[int, int] = {}
        #: Selector only: per select value, the (out, src) copy pairs.
        self.out_src_pairs: List[List[Tuple[int, int]]] = []
        if isinstance(port, LazySelectorPort):
            for entry in port.entries:
                for w in entry:
                    self.entry_pin_mult[w] = self.entry_pin_mult.get(w, 0) + 1
            self.out_src_pairs = [
                list(zip(port.out, entry)) for entry in port.entries
            ]


class GateRows:
    """One plan segment's static gates as typed flat columns (SoA).

    Each column is an ``array('l')`` — one contiguous buffer of C
    longs instead of ``n`` tuple objects holding ``5n`` boxed ints —
    so a big netlist's plan is a handful of buffers per segment, and
    every serve worker process that rebuilds the plan pays allocator
    and cache cost proportional to five arrays, not to the gate count
    times six objects.  Iteration still yields the classic
    ``(tt, a, b, out, fanout)`` row tuples, so the interpreted loop
    and the sweep codegen consume it unchanged.

    The normal and final-cycle variants of a segment share the
    ``tt``/``a``/``b``/``out`` columns and differ only in ``fanout``
    (the final variant bakes in dead-store-eliminated fanouts); see
    :meth:`with_fanout`.
    """

    __slots__ = ("tt", "a", "b", "out", "fanout")

    def __init__(self, tt: array, a: array, b: array, out: array,
                 fanout: array) -> None:
        self.tt = tt
        self.a = a
        self.b = b
        self.out = out
        self.fanout = fanout

    def __len__(self) -> int:
        return len(self.out)

    def __iter__(self):
        return zip(self.tt, self.a, self.b, self.out, self.fanout)

    def with_fanout(self, fanout: array) -> "GateRows":
        """Sibling segment sharing every column except ``fanout``."""
        return GateRows(self.tt, self.a, self.b, self.out, fanout)

    def columns(self):
        """The five columns as read-only memoryviews (in row order)."""
        return tuple(
            memoryview(c).toreadonly()
            for c in (self.tt, self.a, self.b, self.out, self.fanout)
        )


class CyclePlan:
    """Flattened execution plan of one netlist (immutable, shareable).

    ``pairs`` / ``pairs_final`` are lists of ``(rows, port_plan)``
    pairs: run the gate rows, then (if not ``None``) the port.
    ``rows`` is a :class:`GateRows` column block; the ``_final``
    variant bakes in the final-cycle fanouts (dead-store elimination)
    while sharing the other four columns with the normal variant.

    ``sweep_fn`` is the generated public sweep, one leaf function (or
    ``None``) per entry of ``pairs``, built lazily by the first engine
    over this plan; see :func:`_compile_sweep`.
    """

    __slots__ = (
        "net", "pairs", "pairs_final", "n_static_gates", "port_plans",
        "sweep_fn", "sweep_source",
    )

    def __init__(self, net: Netlist, static_fanout, final_fanout) -> None:
        self.net = net
        self.port_plans = [
            _PortPlan(p, i) for i, p in enumerate(net.macro_ports)
        ]
        tts, gas, gbs, gouts = net.gate_tt, net.gate_a, net.gate_b, net.gate_out

        # Chop the schedule into gate-index runs separated by ports,
        # then materialize each run once as typed columns; the final
        # variant reuses them via with_fanout.
        segments: List[Tuple[List[int], Optional[_PortPlan]]] = []
        idxs: List[int] = []
        for entry in net.schedule:
            if entry >= 0:
                idxs.append(entry)
            else:
                segments.append((idxs, self.port_plans[-entry - 1]))
                idxs = []
        segments.append((idxs, None))

        self.pairs = []
        self.pairs_final = []
        for idxs, pp in segments:
            rows = GateRows(
                array("l", [tts[e] for e in idxs]),
                array("l", [gas[e] for e in idxs]),
                array("l", [gbs[e] for e in idxs]),
                array("l", [gouts[e] for e in idxs]),
                array("l", [static_fanout[e] for e in idxs]),
            )
            final_rows = rows.with_fanout(
                array("l", [final_fanout[e] for e in idxs])
            )
            self.pairs.append((rows, pp))
            self.pairs_final.append((final_rows, pp))
        self.n_static_gates = net.n_gates
        self.sweep_fn = None
        self.sweep_source = None


#: One compiled plan per live netlist; netlists are immutable after
#: validate() so the plan can be shared by every engine over them.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Netlist, CyclePlan]" = (
    weakref.WeakKeyDictionary()
)

#: Guards the plan cache and the lazy sweep codegen.  The worker
#: threads of one serve process build residual traces concurrently,
#: each through an engine; without the lock two threads can each build
#: (and race the insert of) a plan for the same netlist, and two
#: engines can race ``_compile_sweep`` on one shared plan.  Compilation
#: of *different* netlists serializes too — an acceptable cost, since
#: each netlist compiles exactly once per process and correctness of
#: the shared cache comes first.
_PLAN_LOCK = threading.RLock()


def _tuple_getter(wires: Sequence[int]):
    """An ``itemgetter`` that always returns a tuple (width-1 safe)."""
    if len(wires) == 1:
        w = wires[0]
        return lambda seq: (seq[w],)
    return itemgetter(*wires)


def compile_plan(net: Netlist) -> CyclePlan:
    """Compile (or fetch the cached) :class:`CyclePlan` for ``net``.

    Thread-safe: concurrent callers over the same netlist get the
    same plan object, compiled exactly once.
    """
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(net)
        if plan is None:
            net.validate()
            probe = object.__new__(SkipGateEngine)
            probe.net = net
            static = net.static_fanout()
            final, _ = SkipGateEngine._final_cycle_fanout(probe)
            plan = CyclePlan(net, static, final)
            _PLAN_CACHE[net] = plan
    return plan


def warm_plan(net: Netlist) -> CyclePlan:
    """Fully pre-warm a netlist's compiled plan *including* the
    generated sweep (which :func:`compile_plan` leaves to the first
    engine).  Every :class:`CompiledSkipGateEngine` calls this at
    construction, so the residual-trace build (the only engine a
    program path runs) pays both compiles once per process."""
    plan = compile_plan(net)
    if plan.sweep_fn is None:
        with _PLAN_LOCK:
            if plan.sweep_fn is None:
                _compile_sweep(plan)
    return plan


# ---------------------------------------------------------------------------
# Specialized sweep codegen
# ---------------------------------------------------------------------------

#: Straight-line expression per truth table for known-0/1 operands
#: (the generic ``(tt >> (a + 2*b)) & 1`` works for all; these are
#: just faster).  Bit index of a truth table is ``a + 2*b``.
_TT_EXPR = {
    0b0000: lambda a, b: "0",
    0b1111: lambda a, b: "1",
    0b0110: lambda a, b: f"{a} ^ {b}",            # XOR
    0b1001: lambda a, b: f"1 ^ {a} ^ {b}",        # XNOR
    0b1000: lambda a, b: f"{a} & {b}",            # AND
    0b0111: lambda a, b: f"1 ^ ({a} & {b})",      # NAND
    0b1110: lambda a, b: f"{a} | {b}",            # OR
    0b0001: lambda a, b: f"1 ^ ({a} | {b})",      # NOR
    0b0010: lambda a, b: f"{a} & (1 ^ {b})",      # a AND NOT b
    0b0100: lambda a, b: f"(1 ^ {a}) & {b}",      # NOT a AND b
    0b1101: lambda a, b: f"1 ^ ({a} & (1 ^ {b}))",
    0b1011: lambda a, b: f"1 ^ ((1 ^ {a}) & {b})",
    0b1010: lambda a, b: f"{a}",                  # BUF a
    0b0101: lambda a, b: f"1 ^ {a}",              # NOT a
    0b1100: lambda a, b: f"{b}",                  # BUF b
    0b0011: lambda a, b: f"1 ^ {b}",              # NOT b
}

#: Netlists above this gate count keep the interpreted row loop
#: (codegen compile time would dominate one-shot runs).
_CODEGEN_GATE_LIMIT = 50_000

#: Longest single ``a | b | ...`` chain the sweep codegen will emit in
#: one expression; longer operand lists accumulate in chunks so the
#: generated source never exceeds CPython's compiler recursion depth.
_OR_CHAIN_LIMIT = 256


def _compile_sweep(plan: CyclePlan) -> None:
    """Generate the specialized public sweep, one function per segment.

    ``_seg<k>(S) -> bool`` loads the segment's external operands into
    locals and ORs them together — the sign bit survives the OR, so a
    negative result means some operand is secret.  Then it returns
    ``False`` and the caller sends the *whole segment* through the
    interpreted row loop, keeping semantics reference-identical.
    Otherwise it runs the segment as plain bit arithmetic on locals
    (every gate is Category i; the generic loop would conclude the same
    thing one gate at a time) and returns ``True``.

    Generated code is **leaf** code: it calls nothing.  These frames
    hold a local per wire (13 KB over the ARM netlist's segments), and
    on CPython 3.11 a callee of a frame that ends near a 16 KB
    data-stack chunk boundary maps and unmaps a fresh chunk on every
    call (DESIGN.md §11), so fallback and port handlers are called by
    :meth:`CompiledSkipGateEngine.step`, never from here.

    Public computation never touches fanout, records or the backend,
    so one generated body serves normal and final cycles alike.
    ``plan.sweep_fn[k]`` is ``None`` for an empty segment, and for
    every segment of a netlist above ``_CODEGEN_GATE_LIMIT``.
    """
    src: List[str] = []
    A = src.append
    codegen = plan.n_static_gates <= _CODEGEN_GATE_LIMIT
    for k, (rows, _) in enumerate(plan.pairs):
        if not (codegen and rows):
            continue
        A(f"def _seg{k}(S):")
        seg_outs = set(rows.out)
        names: Dict[int, str] = {}  # external operand -> local, load order
        for tt, a, b, o, f in rows:
            for w in (a, b):
                if w not in seg_outs:
                    names.setdefault(w, f"a{w}")
        loads = list(names)
        for i in range(0, len(loads), 8):
            A("    " + "; ".join(
                f"{names[w]} = S[{w}]" for w in loads[i:i + 8]
            ))
        # One flat OR chain parses as a left-deep BinOp tree; past ~1k
        # terms CPython's compiler recursion gives out (seen first on
        # the 16x32 hash-PSI netlist, one segment reading 3168 wires).
        # Accumulate in bounded chunks instead — same sign-bit test,
        # depth O(chunk).
        for i in range(0, len(loads), _OR_CHAIN_LIMIT):
            A(f"    m {'|=' if i else '='} " + " | ".join(
                names[w] for w in loads[i:i + _OR_CHAIN_LIMIT]
            ))
        if loads:
            A("    if m < 0: return False")
        for tt, a, b, o, f in rows:
            na = names.get(a, f"t{a}")
            nb = names.get(b, f"t{b}")
            A(f"    S[{o}] = t{o} = {_TT_EXPR[tt](na, nb)}")
        A("    return True")
    source = "\n".join(src)
    ns: dict = {}
    exec(compile(source, f"<cycle-plan {plan.net.name}>", "exec"), ns)
    plan.sweep_source = source
    plan.sweep_fn = [ns.get(f"_seg{k}") for k in range(len(plan.pairs))]


# ---------------------------------------------------------------------------
# Macro context over the interned store
# ---------------------------------------------------------------------------


class _InternedContext(MacroContext):
    """The compiled engine's :class:`MacroContext`.

    ``get`` decodes the interned store to the tuple dialect; ``drive``
    encodes, and performs the pending-pin pushes the compiled write
    sites owe.  Everything else (dynamic gates, reduction, storage,
    deferred commits) is the reference code on the engine's shared
    record arrays.  This is the correctness anchor of the compiled
    engine: any port case the specialized handlers decline runs the
    port's own ``engine_step`` verbatim against this context.
    """

    __slots__ = ()

    def get(self, wire: int) -> WireState:
        eng = self._eng
        s = eng.state[wire]
        return s if s >= 0 else eng._sec[-s - 1]

    def drive(self, wire: int, state: WireState) -> None:
        eng = self._eng
        if type(state) is int:
            eng.state[wire] = state
            return
        sec = eng._sec
        sec.append(state)
        eng.state[wire] = -len(sec)
        if state[2] >= 0:
            eng._rec_fanout[state[2]] += self.wire_fanout(wire)
            pm = eng._push_map[wire]
            if pm is not None:
                for lst, mult in pm:
                    if mult == 1:
                        lst.append(state)
                    else:
                        lst.extend((state,) * mult)


# ---------------------------------------------------------------------------
# The compiled engine
# ---------------------------------------------------------------------------


class CompiledSkipGateEngine(SkipGateEngine):
    """Plan-driven SkipGate engine (drop-in for the reference engine).

    Same constructor, same observable behaviour: outputs, statistics,
    backend call order and garbled-table keys are bit-identical to
    :class:`~repro.core.engine.SkipGateEngine` on any netlist (pinned
    by the differential tests).  Only the per-cycle
    execution strategy differs — see the module docstring.
    """

    def __init__(self, net, backend=None, public_init=()) -> None:
        super().__init__(net, backend, public_init=public_init)
        self.plan = warm_plan(net)
        #: Per-cycle side table of secret (label, flip, origin) tuples;
        #: state[w] < 0 encodes index ``-state[w] - 1`` into it.  The
        #: list object is stable for the engine's lifetime (cleared in
        #: place each cycle) so handler closures can capture it.
        self._sec: list = []
        #: wire -> None | [(pending_list, pin_multiplicity), ...]
        self._push_map: List[Optional[list]] = [None] * net.n_wires
        # Re-encode the reference __init__'s state into the interned
        # store (secret init labels may already sit on wires).  Done
        # before handler construction: handlers capture this exact
        # list object.
        #
        # The interned store stays a plain list even though it holds
        # only ints: array('l').__getitem__ boxes a fresh int per read
        # (slower than a list's pointer fetch in CPython), and the port
        # handlers' bulk stores (``S[o0:o1] = vals`` with a tuple RHS)
        # are illegal on typed arrays.  The win from typing lives in
        # the write-once gate rows instead (:class:`GateRows`).
        self.state = [
            s if type(s) is int else self._encode_nopush(s) for s in self.state
        ]
        self._handlers: List[Callable[[], None]] = []
        for pp in self.plan.port_plans:
            self._handlers.append(self._make_handler(pp))
        self._sweep = self.plan.sweep_fn
        self._ctx = _InternedContext(self)

    # -- interned-store helpers ----------------------------------------------

    def _encode_nopush(self, t: tuple) -> int:
        sec = self._sec
        sec.append(t)
        return -len(sec)

    def _process_interned(self, tt, sa, sb, fanout, o) -> None:
        """Decode, run the reference category dispatch, encode + push."""
        sec = self._sec
        ta = sa if sa >= 0 else sec[-sa - 1]
        tb = sb if sb >= 0 else sec[-sb - 1]
        r = self._process(tt, ta, tb, fanout)
        if type(r) is int:
            self.state[o] = r
            return
        sec.append(r)
        self.state[o] = -len(sec)
        # _process results always carry a fresh record (origin >= 0).
        pm = self._push_map[o]
        if pm is not None:
            for lst, mult in pm:
                if mult == 1:
                    lst.append(r)
                else:
                    lst.extend((r,) * mult)

    def _generic_segment(self, rows) -> Tuple[int, int]:
        """Interpreted row loop for one plan segment (sweep fallback)."""
        state = self.state
        sec = self._sec
        PI = self._process_interned
        reduce = self._reduce
        nsec = 0
        ndead = 0
        for tt, a, b, o, f in rows:
            sa = state[a]
            sb = state[b]
            if sa | sb >= 0:
                state[o] = (tt >> (sa + 2 * sb)) & 1
            elif f:
                nsec += 1
                PI(tt, sa, sb, f, o)
            else:
                ndead += 1
                if sa < 0:
                    reduce(sec[-sa - 1][2])
                if sb < 0:
                    reduce(sec[-sb - 1][2])
                state[o] = 0
        return nsec, ndead

    # -- specialized port handlers -------------------------------------------

    def _make_handler(self, pp: _PortPlan) -> Callable[[], None]:
        port = pp.port
        fallback = self._make_fallback(port)
        if isinstance(port, LazySelectorPort):
            return self._make_selector_handler(pp, fallback)
        if isinstance(port, LazyUnitPort):
            return self._make_unit_handler(port, fallback)
        if isinstance(port, LazyShifterPort):
            return self._make_shifter_handler(port, fallback)
        if isinstance(port, MemReadPort):
            return self._make_memread_handler(port, fallback)
        if isinstance(port, MemWritePort):
            return self._make_memwrite_handler(port, fallback)
        return fallback

    def _make_fallback(self, port) -> Callable[[], None]:
        """The port's own ``engine_step`` over the interned context."""

        def fallback() -> None:
            port.engine_step(self._ctx)

        return fallback

    def _make_selector_handler(self, pp: _PortPlan, fallback):
        port = pp.port
        sels: List[int] = port.sels
        entries: List[List[int]] = port.entries
        pairs_by_idx = pp.out_src_pairs
        out = port.out
        o0 = out[0]
        o1 = o0 + len(out)
        contig = out == list(range(o0, o1))
        pending: list = []
        for w, mult in pp.entry_pin_mult.items():
            pm = self._push_map[w]
            if pm is None:
                pm = self._push_map[w] = []
            pm.append((pending, mult))
        igs = [_tuple_getter(entry) for entry in entries]
        eng = self
        S = self.state
        sec = self._sec
        push = self._push_map

        def handler() -> None:
            idx = 0
            for i, w in enumerate(sels):
                s = S[w]
                if s < 0:
                    fallback()
                    pending.clear()
                    return
                idx |= (s & 1) << i
            vals = igs[idx](S)
            if contig and min(vals) >= 0:
                # Selected entry fully public: plain copy, no credits.
                S[o0:o1] = vals
            else:
                consumers = (
                    eng._final_consumers if eng.in_final_cycle
                    else eng._wire_consumers
                )
                rf = eng._rec_fanout
                for (w, src), sv in zip(pairs_by_idx[idx], vals):
                    if sv < 0:
                        t = sec[-sv - 1]
                        if t[2] >= 0:
                            rf[t[2]] += consumers[w]
                            pm = push[w]
                            if pm is not None:
                                for lst, mult in pm:
                                    if mult == 1:
                                        lst.append(t)
                                    else:
                                        lst.extend((t,) * mult)
                    S[w] = sv
            if pending:
                reduce = eng._reduce
                for t in pending:
                    reduce(t[2])
                pending.clear()

        return handler

    def _make_unit_handler(self, port: LazyUnitPort, fallback):
        inputs: List[int] = port.inputs
        out: List[int] = port.out
        o0 = out[0]
        o1 = o0 + len(out)
        contig = out == list(range(o0, o1))
        plain_fn = port.macro.plain_fn
        ig = _tuple_getter(inputs)
        S = self.state

        def handler() -> None:
            states = ig(S)
            if min(states) >= 0:
                # Reference public path: drive() of a public bit does
                # no crediting, so plain stores suffice.  Output wires
                # never feed selector entries of *earlier* ports, and
                # public stores need no pending pushes.
                if contig:
                    S[o0:o1] = [bit & 1 for bit in plain_fn(states)]
                else:
                    for w, bit in zip(out, plain_fn(states)):
                        S[w] = bit & 1
                return
            fallback()

        return handler

    def _make_shifter_handler(self, port: LazyShifterPort, fallback):
        amount_wires: List[int] = port.amount
        value_wires: List[int] = port.value
        out: List[int] = port.out
        macro = port.macro
        o0 = out[0]
        o1 = o0 + len(out)
        contig = out == list(range(o0, o1))
        # Per public shift amount: (source indices, tuple gatherer) —
        # None source = constant 0; built on first use (programs
        # exercise few amounts).  Amount 0 is the identity for every
        # shift kind, so the gathered pins are reused directly.
        src_cache: dict = {}
        ig_pins = _tuple_getter(value_wires)
        eng = self
        S = self.state
        sec = self._sec
        push = self._push_map

        def handler() -> None:
            amount = 0
            for i, w in enumerate(amount_wires):
                s = S[w]
                if s < 0:
                    fallback()
                    return
                amount |= (s & 1) << i
            pin_vals = ig_pins(S)
            if amount == 0:
                vals = pin_vals
            else:
                cached = src_cache.get(amount)
                if cached is None:
                    srcs = [
                        macro.source_index(i, amount)
                        for i in range(len(out))
                    ]
                    ig2 = (
                        _tuple_getter(srcs) if None not in srcs else None
                    )
                    cached = src_cache[amount] = (srcs, ig2)
                srcs, ig2 = cached
                if ig2 is not None:
                    vals = ig2(pin_vals)
                else:
                    vals = [0 if j is None else pin_vals[j] for j in srcs]
            if contig and min(pin_vals) >= 0:
                # Every value pin public: plain copy; the pin releases
                # (including shifted-out bits) are all no-ops.
                S[o0:o1] = vals
                return
            consumers = (
                eng._final_consumers if eng.in_final_cycle
                else eng._wire_consumers
            )
            rf = eng._rec_fanout
            for w, sv in zip(out, vals):
                if sv < 0:
                    t = sec[-sv - 1]
                    if t[2] >= 0:
                        rf[t[2]] += consumers[w]
                        pm = push[w]
                        if pm is not None:
                            for lst, mult in pm:
                                if mult == 1:
                                    lst.append(t)
                                else:
                                    lst.extend((t,) * mult)
                S[w] = sv
            reduce = eng._reduce
            for sv in pin_vals:
                if sv < 0:
                    reduce(sec[-sv - 1][2])

        return handler

    def _make_memread_handler(self, port: MemReadPort, fallback):
        addr_wires: List[int] = port.addr
        out: List[int] = port.out
        o0 = out[0]
        o1 = o0 + len(out)
        contig = out == list(range(o0, o1))
        macro = port.macro
        mid = id(macro)
        final_only = port.final_only
        eng = self
        S = self.state
        sec = self._sec

        def handler() -> None:
            if final_only and not eng.in_final_cycle:
                return
            base = 0
            for i, w in enumerate(addr_wires):
                s = S[w]
                if s < 0:
                    fallback()
                    return
                base |= (s & 1) << i
            # Stored states carry origin -1 (strip() on every write),
            # so the copy needs no crediting and no pending pushes;
            # the public address pins release as no-ops.
            word = eng._macro_store[mid][base]
            if contig and type(word[0]) is int:
                try:
                    if min(word) >= 0:  # TypeError on any secret tuple
                        S[o0:o1] = word
                        return
                except TypeError:
                    pass
            for w, s in zip(out, word):
                if type(s) is int:
                    S[w] = s
                else:
                    sec.append(s)
                    S[w] = -len(sec)

        return handler

    def _make_memwrite_handler(self, port: MemWritePort, fallback):
        addr_wires: List[int] = port.addr
        data_wires: List[int] = port.data
        wen_wire: int = port.wen
        macro = port.macro
        ig_data = _tuple_getter(data_wires)
        eng = self
        S = self.state
        sec = self._sec

        def handler() -> None:
            if eng.in_final_cycle and not macro.keep_final_writes:
                fallback()  # dead store: releases every pin
                return
            wen = S[wen_wire]
            if wen == 0:
                # Publicly disabled: release the addr + data pins.
                reduce = eng._reduce
                for w in addr_wires:
                    s = S[w]
                    if s < 0:
                        reduce(sec[-s - 1][2])
                for w in data_wires:
                    s = S[w]
                    if s < 0:
                        reduce(sec[-s - 1][2])
                return
            if wen == 1:
                base = 0
                for i, w in enumerate(addr_wires):
                    s = S[w]
                    if s < 0:
                        fallback()  # secret address bit
                        return
                    base |= (s & 1) << i
                # Fully public write: stripped data labels flow into
                # storage; the statically counted data pins become the
                # storage pins (not released), public addr pins no-op.
                new_word: List[WireState] = list(ig_data(S))
                if min(new_word) < 0:
                    for i, s in enumerate(new_word):
                        if s < 0:
                            t = sec[-s - 1]
                            new_word[i] = (
                                t if t[2] < 0 else (t[0], t[1], -1)
                            )
                store = eng._macro_store[id(macro)]
                eng._deferred.append(
                    lambda: store.__setitem__(base, new_word)
                )
                return
            fallback()  # secret write enable

        return handler

    # -- the compiled cycle: SkipGateEngine.step's three hooks ------------------

    def _seed(self, public_bits: Sequence[int]) -> None:
        # Same backend.secret_label call order as the reference engine
        # (the protocol backends perform channel I/O here).
        net = self.net
        state = self.state
        sec = self._sec
        sec.clear()
        secret_label = self.backend.secret_label
        state[0] = 0
        state[1] = 1
        for role in (ALICE, BOB):
            for i, w in enumerate(net.inputs[role]):
                sec.append((secret_label(("in", role, self.cycle, i)), 0, -1))
                state[w] = -len(sec)
        for w, bit in zip(net.inputs[PUBLIC], public_bits):
            state[w] = bit & 1
        for ff, s in zip(net.dffs, self._ff_state):
            if type(s) is int:
                state[ff.q] = s
            else:
                sec.append(s)
                state[ff.q] = -len(sec)

    def _sweep_cycle(self, final: bool) -> None:
        # The batched sweep: per segment, the generated leaf function
        # when there is one and every operand is public, else the
        # interpreted loop over the preallocated row arrays; then the
        # segment's port handler.  This loop makes every call, so the
        # big generated frames never have a callee.
        state = self.state
        pairs = self.plan.pairs_final if final else self.plan.pairs
        handlers = self._handlers
        generic = self._generic_segment
        n_sec = 0
        n_dead = 0
        for seg, (rows, pp) in zip(self._sweep, pairs):
            if seg is None or not seg(state):
                ns, nd = generic(rows)
                n_sec += ns
                n_dead += nd
            if pp is not None:
                handlers[pp.index]()
        cs = self._cs
        cs.cat_i += self.plan.n_static_gates - n_sec - n_dead
        cs.dead_skipped += n_dead

    def _latch(self) -> List[WireState]:
        state = self.state
        sec = self._sec
        new_ff: List[WireState] = []
        for ff in self.net.dffs:
            s = state[ff.d]
            if s >= 0:
                new_ff.append(s)
            else:
                t = sec[-s - 1]
                new_ff.append(t if t[2] < 0 else (t[0], t[1], -1))
        return new_ff


def make_engine(
    net: Netlist,
    backend=None,
    public_init: Sequence[int] = (),
    engine: str = "compiled",
) -> SkipGateEngine:
    """Build a SkipGate engine: ``"compiled"`` (default) or ``"reference"``."""
    if engine == "compiled":
        return CompiledSkipGateEngine(net, backend, public_init=public_init)
    if engine == "reference":
        return SkipGateEngine(net, backend, public_init=public_init)
    raise ValueError(f"unknown engine {engine!r} (use 'compiled' or 'reference')")
