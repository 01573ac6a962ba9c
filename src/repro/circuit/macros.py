"""Memory macros: MUX/flip-flop memory arrays with lazy expansion.

The paper implements every memory (register file, instruction, data,
stack and output memories — Section 4.1) as an array of MUXes and
flip-flops, and relies on SkipGate to make accesses with public
addresses free (Section 4.4).  Simulating each of those MUXes as an
explicit gate every cycle is what makes a naive garbled processor cost
billions of gate visits; these macros make the per-cycle work
proportional to the *active* part of the memory instead, while charging
exactly the gate-level cost:

* A read with a fully public address passes the stored wire states
  through — zero garbled tables, just like the MUX tree whose selects
  are all public.
* A read whose address has ``s`` secret bits expands a real MUX tree
  over the ``2^s`` *candidate* words that match the public address
  bits.  The muxes are materialized through
  :meth:`repro.core.engine.MacroContext.gate`, i.e. they are genuine
  dynamic gates subject to the same category analysis, label fanout
  bookkeeping and table filtering as static gates.  This reproduces
  the paper's "oblivious access to a varying subset of the memory":
  the cost equals an oblivious access to a memory of the subset size.
* Writes behave dually: public write-enable and address are free;
  a secret write-enable produces one conditional-write MUX per bit
  (the cost of an ARM conditional instruction); secret address bits
  produce a decoder plus conditional writes over the candidate words.

Equivalence with explicit gate-level MUX trees (same garbled-table
counts, same public outputs) is pinned down by
``tests/circuit/test_macro_equivalence.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import gates as G
from .builder import CircuitBuilder
from .netlist import ALICE, BOB, CONST, InitSpec, Netlist, PUBLIC, ZERO_INIT

_AND = G.GateType.AND
_XOR = G.GateType.XOR
_XNOR = G.GateType.XNOR


def const_words(values: Sequence[int], width: int) -> List[List[InitSpec]]:
    """Word initializers holding compile-time constants."""
    out = []
    for v in values:
        out.append([InitSpec(CONST, (v >> i) & 1) for i in range(width)])
    return out


def input_words(role: str, n_words: int, width: int, offset: int = 0) -> List[List[InitSpec]]:
    """Word initializers referencing a party's init vector.

    ``role`` is ``"alice"``, ``"bob"`` or ``"public"``; word ``w`` bit
    ``i`` maps to init bit ``offset + w*width + i``.  This is how the
    garbled processor's memories are initialized with input labels /
    the public program binary (Section 4.1).
    """
    out = []
    for w in range(n_words):
        out.append(
            [InitSpec(role, offset + w * width + i) for i in range(width)]
        )
    return out


def zero_words(n_words: int, width: int) -> List[List[InitSpec]]:
    """Word initializers of all-zero words (stack/output memories)."""
    return [[ZERO_INIT] * width for _ in range(n_words)]


class _MemoryBase:
    """Common storage behaviour of :class:`Rom` and :class:`Ram`."""

    def __init__(self, name: str, width: int, word_inits: List[List[InitSpec]]) -> None:
        if not word_inits:
            raise ValueError("memory needs at least one word")
        for word in word_inits:
            if len(word) != width:
                raise ValueError("word init width mismatch")
        self.name = name
        self.width = width
        depth = len(word_inits)
        self.addr_bits = max(1, (depth - 1).bit_length())
        full = 1 << self.addr_bits
        self.word_inits = list(word_inits) + [
            [ZERO_INIT] * width for _ in range(full - depth)
        ]
        self.depth = full
        self.read_ports: List["MemReadPort"] = []
        self.write_ports: List["MemWritePort"] = []
        #: Keep final-cycle writes alive.  Set for memories whose
        #: contents are read *after* the run (the garbled processor's
        #: output memory); all other memories treat final-cycle stores
        #: as dead (nothing can observe them).
        self.keep_final_writes = False

    # -- plain simulation ----------------------------------------------------

    def plain_init(self, resolve: Callable[[InitSpec], int]) -> List[int]:
        words = []
        for word in self.word_inits:
            value = 0
            for i, init in enumerate(word):
                value |= (resolve(init) & 1) << i
            words.append(value)
        return words

    def plain_words(self, state: List[int]) -> List[int]:
        return list(state)

    # -- engine ---------------------------------------------------------------

    def engine_init(self, ctx) -> List[List[object]]:
        return [
            [ctx.resolve_init(init) for init in word] for word in self.word_inits
        ]

    def engine_words_public(self, storage: List[List[object]]) -> List[Optional[int]]:
        """Word values where fully public, else None (test helper)."""
        out: List[Optional[int]] = []
        for word in storage:
            if all(type(s) is int for s in word):
                out.append(sum(s << i for i, s in enumerate(word)))
            else:
                out.append(None)
        return out

    # -- gate-level equivalent size -------------------------------------------

    def equivalent_gates(self) -> int:
        from .modules import decoder_cost

        total = 0
        for _ in self.read_ports:
            total += (self.depth - 1) * self.width * 3
        for _ in self.write_ports:
            total += (
                decoder_cost(self.addr_bits)
                + self.depth
                + self.depth * self.width * 3
            )
        return total

    def equivalent_nonxor(self) -> int:
        """Non-XOR gates of the explicit MUX-array implementation.

        Read port: ``(depth - 1) * width`` MUX ANDs.  Write port: a
        split decoder over the address bits, one enable AND per word,
        and one conditional-write MUX AND per stored bit.  This is the
        per-cycle cost the conventional GC baseline charges for the
        memory (every select treated as secret).
        """
        from .modules import decoder_cost

        total = 0
        for _ in self.read_ports:
            total += (self.depth - 1) * self.width
        for _ in self.write_ports:
            total += (
                decoder_cost(self.addr_bits)
                + self.depth
                + self.depth * self.width
            )
        return total


class Rom(_MemoryBase):
    """Read-only MUX-tree memory; contents are public by construction."""

    def __init__(self, name: str, width: int, word_inits: List[List[InitSpec]]) -> None:
        for word in word_inits:
            for init in word:
                if init.src in (ALICE, BOB):
                    raise ValueError("ROM contents must be public")
        super().__init__(name, width, word_inits)

    def read(self, b: CircuitBuilder, addr: Sequence[int]) -> List[int]:
        """Schedule a read port; returns the data-out bus."""
        port = MemReadPort(self, list(addr), b.net.new_wires(self.width))
        self.read_ports.append(port)
        b.net.schedule_port(port)
        return port.out


class Ram(_MemoryBase):
    """Read/write MUX-array memory (register file, data/stack/output)."""

    def read(self, b: CircuitBuilder, addr: Sequence[int]) -> List[int]:
        """Schedule a read port; returns the data-out bus.

        Reads observe the memory contents at the *start* of the cycle
        (flip-flop semantics); writes commit at the end of the cycle.
        """
        port = MemReadPort(self, list(addr), b.net.new_wires(self.width))
        self.read_ports.append(port)
        b.net.schedule_port(port)
        return port.out

    def write(
        self,
        b: CircuitBuilder,
        addr: Sequence[int],
        data: Sequence[int],
        wen: int,
    ) -> None:
        """Schedule a write port (committed at end of cycle)."""
        if len(data) != self.width:
            raise ValueError("write data width mismatch")
        port = MemWritePort(self, list(addr), list(data), wen)
        self.write_ports.append(port)
        b.net.schedule_port(port)


def _split_address(
    addr_states: Sequence[object],
) -> Tuple[int, List[Tuple[int, object]]]:
    """Split address bits into (public base value, secret positions)."""
    base = 0
    secret: List[Tuple[int, object]] = []
    for i, s in enumerate(addr_states):
        if type(s) is int:
            base |= (s & 1) << i
        else:
            secret.append((i, s))
    return base, secret


def _candidate_indices(base: int, secret: List[Tuple[int, object]]) -> List[int]:
    """Candidate word indices: public bits fixed, secret bits swept.

    Ordered so that adjacent pairs differ in the first secret bit,
    matching a MUX tree that consumes secret select bits in order.
    """
    out = []
    for combo in range(1 << len(secret)):
        idx = base
        for j, (pos, _) in enumerate(secret):
            idx |= ((combo >> j) & 1) << pos
        out.append(idx)
    return out


class MemReadPort:
    """One read port of a memory macro.

    ``final_only`` marks ports that feed circuit outputs exclusively
    (the machine's output-memory dump ports): nothing observes them
    before the agreed final cycle, so the engine skips them until
    then.  This is pure simulation economy — the port's gates are
    wires under SkipGate either way.
    """

    def __init__(
        self,
        macro: _MemoryBase,
        addr: List[int],
        out: List[int],
        final_only: bool = False,
    ) -> None:
        if len(addr) != macro.addr_bits:
            raise ValueError(
                f"{macro.name}: address bus must be {macro.addr_bits} bits, "
                f"got {len(addr)}"
            )
        self.macro = macro
        self.addr = addr
        self.out = out
        self.final_only = final_only

    def input_wires(self) -> List[int]:
        return self.addr

    def output_wires(self) -> List[int]:
        return self.out

    # plain simulation
    def plain_step(self, values, macro_state, pending) -> None:
        store = macro_state[id(self.macro)]
        idx = 0
        for i, w in enumerate(self.addr):
            idx |= (values[w] & 1) << i
        word = store[idx]
        for i, w in enumerate(self.out):
            values[w] = (word >> i) & 1

    # SkipGate engine
    def engine_step(self, ctx) -> None:
        if self.final_only and not ctx.is_final:
            return
        store = ctx.storage(self.macro)
        addr_states = [ctx.get(w) for w in self.addr]
        base, secret = _split_address(addr_states)
        # Every MUX select public: the tree collapses to wires and the
        # stored word passes through.  Otherwise an oblivious access to
        # the candidate subset (Section 4.4): a real MUX tree over the
        # 2^s matching words.
        level = [list(store[i]) for i in _candidate_indices(base, secret)]
        width = self.macro.width
        for _, sel in secret:
            level = [
                [
                    _mux(ctx, sel, level[t][bit], level[t + 1][bit])
                    for bit in range(width)
                ]
                for t in range(0, len(level), 2)
            ]
        for w, s in zip(self.out, level[0]):
            ctx.drive(w, s)
        # Release the statically counted address pins.
        for s in addr_states:
            ctx.release(s)


class MemWritePort:
    """One write port of a :class:`Ram` macro."""

    def __init__(self, macro: Ram, addr: List[int], data: List[int], wen: int) -> None:
        if len(addr) != macro.addr_bits:
            raise ValueError(
                f"{macro.name}: address bus must be {macro.addr_bits} bits, "
                f"got {len(addr)}"
            )
        self.macro = macro
        self.addr = addr
        self.data = data
        self.wen = wen

    def input_wires(self) -> List[int]:
        return self.addr + self.data + [self.wen]

    def output_wires(self) -> List[int]:
        return []

    # plain simulation
    def plain_step(self, values, macro_state, pending) -> None:
        if not values[self.wen]:
            return
        store = macro_state[id(self.macro)]
        idx = 0
        for i, w in enumerate(self.addr):
            idx |= (values[w] & 1) << i
        value = 0
        for i, w in enumerate(self.data):
            value |= (values[w] & 1) << i
        pending.append(lambda: store.__setitem__(idx, value))

    # SkipGate engine
    def engine_step(self, ctx) -> None:
        store = ctx.storage(self.macro)
        wen = ctx.get(self.wen)
        addr_states = [ctx.get(w) for w in self.addr]
        data_states = [ctx.get(w) for w in self.data]

        if wen == 0 or (ctx.is_final and not self.macro.keep_final_writes):
            # Write disabled publicly (like a MUX with public select 0,
            # the data labels are never used), or a dead store: in the
            # agreed last cycle nothing can read this memory again, so
            # the write contributes nothing to the output (it is
            # skipped like any dead gate).  Release every pin.
            for s in addr_states:
                ctx.release(s)
            for s in data_states:
                ctx.release(s)
            ctx.release(wen)
            return

        base, secret = _split_address(addr_states)

        if not secret and wen == 1:
            # Fully public write: data labels flow straight into the
            # storage flip-flops (the write MUX acts as a wire).  The
            # statically counted data pins become the persistent
            # storage pins, so they are not released.
            strip = ctx.strip
            new_word = [strip(s) for s in data_states]
            ctx.defer(lambda: store.__setitem__(base, new_word))
            for s in addr_states:
                ctx.release(s)
            return

        # Conditional write: decoder over secret address bits, AND with
        # a secret write enable, then per-bit conditional-write MUXes
        # over each candidate word.
        wen_secret = type(wen) is not int
        candidates = _candidate_indices(base, secret)
        width = self.macro.width
        dec = _dyn_decoder(ctx, [s for _, s in secret])
        commits: List[Tuple[int, List[object]]] = []
        for combo, idx in enumerate(candidates):
            cond = dec[combo]
            if wen_secret:
                cond = ctx.gate(_AND, cond, wen)
            old = store[idx]
            # Hold ``cond`` across the bit loop (see MacroContext.gate).
            ctx.retain(cond)
            new_word = [
                ctx.strip(
                    ctx.retain(_mux(ctx, cond, old[bit], data_states[bit]))
                )
                for bit in range(width)
            ]
            ctx.release(cond)
            commits.append((idx, new_word))

        def commit() -> None:
            for idx, word in commits:
                store[idx] = word

        ctx.defer(commit)
        for s in addr_states:
            ctx.release(s)
        for s in data_states:
            ctx.release(s)
        ctx.release(wen)


def _dyn_decoder(ctx, sels):
    """Dynamic one-hot decoder over secret select states.

    Mirrors :func:`repro.circuit.modules.decoder` (split construction)
    so conditional writes cost the same as the synthesized circuit.
    Output index order matches ``_candidate_indices`` combo order.
    """
    k = len(sels)
    if k == 0:
        return [1]
    if k == 1:
        return [ctx.gate(_XNOR, sels[0], 0), sels[0]]
    half = k // 2
    lo = _dyn_decoder(ctx, sels[:half])
    hi = _dyn_decoder(ctx, sels[half:])
    # Hold each sub-decoder output across its outer ANDs.
    for s in lo + hi:
        ctx.retain(s)
    out = [ctx.gate(_AND, h, l) for h in hi for l in lo]
    for s in lo + hi:
        ctx.release(s)
    return out


def _mux(ctx, sel, x, y):
    """Dynamic 2-to-1 MUX: ``y if sel else x`` via ``x ^ (sel & (x^y))``.

    Mirrors :meth:`CircuitBuilder.mux` gate for gate, so SkipGate sees
    exactly the structure a synthesized MUX tree would have; a dynamic
    ``x`` (stored words have none) is held across its two reads.
    """
    held = type(x) is not int and x[2] >= 0
    if held:
        ctx.retain(x)
    diff = ctx.gate(_XOR, x, y)
    gated = ctx.gate(_AND, sel, diff)
    out = ctx.gate(_XOR, gated, x)
    if held:
        ctx.release(x)
    return out
