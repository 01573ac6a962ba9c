"""Lazy functional units: cost-exact acceleration for big datapaths.

The SkipGate engine charges nothing for gates it resolves from public
values, but a naive implementation still *visits* every gate of a big
processor every cycle — the reason the paper calls garbling a processor
conventionally "impractical" also makes simulating one slow.  These
macros keep the per-cycle work proportional to the *active* datapath:

* :class:`LazyUnit` wraps a combinational sub-netlist (a multiplier, an
  adder...).  When every input is public the unit computes its value
  directly (category i for the whole cone, exactly what the engine
  would conclude); otherwise it expands the sub-netlist through
  :meth:`MacroContext.gate`, creating genuine dynamic gate records with
  identical garbling cost and fanout behaviour to static inclusion.
* :class:`LazySelector` is an AND-OR (kill-style) MUX tree.  With
  public select bits it passes the chosen entry and *releases* every
  deselected entry pin — the recursive skipping of Section 3's
  illustrative example — without visiting the tree; with secret
  selects it expands the real MUX gates.
* :class:`LazyShifter` is a barrel shifter.  A public amount is pure
  rewiring (plus releasing the shifted-out bits and crediting
  replicated sign bits); a secret amount expands the MUX stages.

Cost equivalence against the fully static circuits is pinned in
``tests/circuit/test_lazy_units.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import gates as G
from .builder import CircuitBuilder
from .netlist import Netlist

_AND = G.GateType.AND
_ANDNB = G.GateType.ANDNB
_OR = G.GateType.OR
_XOR = G.GateType.XOR


def build_subnet(
    n_inputs: int, build_fn: Callable[[CircuitBuilder, List[int]], List[int]]
) -> Netlist:
    """Build a combinational sub-netlist with ``n_inputs`` input wires."""
    b = CircuitBuilder("subnet")
    ins = b.public_input(n_inputs)
    outs = build_fn(b, ins)
    b.set_outputs(outs)
    return b.build()


class LazyUnit:
    """A combinational unit with a public fast path (see module doc)."""

    def __init__(
        self,
        name: str,
        n_inputs: int,
        build_fn: Callable[[CircuitBuilder, List[int]], List[int]],
        plain_fn: Callable[[List[int]], List[int]],
    ) -> None:
        self.name = name
        self.subnet = build_subnet(n_inputs, build_fn)
        if self.subnet.dffs or self.subnet.macros:
            raise ValueError("lazy units must be purely combinational")
        self.plain_fn = plain_fn
        self.n_outputs = len(self.subnet.outputs)
        #: Readers of each sub-netlist wire (gate pins and unit outputs).
        sub = self.subnet
        self.reads = [0] * sub.n_wires
        for w in [*sub.outputs, *(f[g] for g in sub.schedule
                                  for f in (sub.gate_a, sub.gate_b))]:
            self.reads[w] += 1
        self.ports: List["LazyUnitPort"] = []
        self.keep_final_writes = False

    # netlist-macro interface
    def plain_init(self, resolve) -> None:
        return None

    def plain_words(self, state) -> List[int]:
        return []

    def engine_init(self, ctx) -> None:
        return None

    def equivalent_gates(self) -> int:
        return self.subnet.n_gates * len(self.ports)

    def equivalent_nonxor(self) -> int:
        return self.subnet.n_nonxor() * len(self.ports)

    def attach(self, b: CircuitBuilder, inputs: Sequence[int]) -> List[int]:
        """Instantiate the unit on the given input wires."""
        if len(inputs) != len(self.subnet.inputs["public"]):
            raise ValueError(f"{self.name}: wrong input arity")
        port = LazyUnitPort(self, list(inputs), b.net.new_wires(self.n_outputs))
        self.ports.append(port)
        b.net.schedule_port(port)
        return port.out


class LazyUnitPort:
    def __init__(self, unit: LazyUnit, inputs: List[int], out: List[int]) -> None:
        self.macro = unit
        self.inputs = inputs
        self.out = out

    def input_wires(self) -> List[int]:
        return self.inputs

    def output_wires(self) -> List[int]:
        return self.out

    def plain_step(self, values, macro_state, pending) -> None:
        bits = [values[w] for w in self.inputs]
        result = self.macro.plain_fn(bits)
        for w, bit in zip(self.out, result):
            values[w] = bit & 1

    def engine_step(self, ctx) -> None:
        states = [ctx.get(w) for w in self.inputs]
        if all(type(s) is int for s in states):
            result = self.macro.plain_fn(states)  # type: ignore[arg-type]
            for w, bit in zip(self.out, result):
                ctx.drive(w, bit & 1)
            return
        sub = self.macro.subnet
        local: List[object] = [None] * sub.n_wires
        local[0] = 0
        local[1] = 1
        for w, s in zip(sub.inputs["public"], states):
            local[w] = s
        tts, gas, gbs, gouts = sub.gate_tt, sub.gate_a, sub.gate_b, sub.gate_out
        gate = ctx.gate
        # Hold a record read more than once until its last read (see
        # MacroContext.gate).
        left = list(self.macro.reads)
        held = {}
        for gi in sub.schedule:
            a, b, o = gas[gi], gbs[gi], gouts[gi]
            sa, sb = local[a], local[b]
            if type(sa) is int and type(sb) is int:
                local[o] = (tts[gi] >> (sa + 2 * sb)) & 1
            else:
                local[o] = gate(tts[gi], sa, sb)
                if left[o] > 1:
                    held[o] = ctx.retain(local[o])
            for w in (a, b):
                left[w] -= 1
                if not left[w] and w in held:
                    ctx.release(held.pop(w))
        for w, sw in zip(self.out, sub.outputs):
            ctx.drive(w, local[sw])
        for s in [*held.values(), *states]:
            ctx.release(s)


class LazySelector:
    """Kill-style MUX tree over ``2^k`` equal-width entries."""

    def __init__(self, name: str, width: int, n_sel: int) -> None:
        self.name = name
        self.width = width
        self.n_sel = n_sel
        self.n_entries = 1 << n_sel
        self.ports: List["LazySelectorPort"] = []
        self.keep_final_writes = False

    def plain_init(self, resolve) -> None:
        return None

    def plain_words(self, state) -> List[int]:
        return []

    def engine_init(self, ctx) -> None:
        return None

    def equivalent_gates(self) -> int:
        # (entries - 1) AND-OR muxes of `width` bits, 3 gates each.
        return (self.n_entries - 1) * self.width * 3 * len(self.ports)

    def equivalent_nonxor(self) -> int:
        return (self.n_entries - 1) * self.width * 3 * len(self.ports)

    def attach(
        self,
        b: CircuitBuilder,
        sels: Sequence[int],
        entries: Sequence[Sequence[int]],
    ) -> List[int]:
        if len(sels) != self.n_sel or len(entries) != self.n_entries:
            raise ValueError(f"{self.name}: wrong selector arity")
        for e in entries:
            if len(e) != self.width:
                raise ValueError(f"{self.name}: entry width mismatch")
        port = LazySelectorPort(
            self, list(sels), [list(e) for e in entries],
            b.net.new_wires(self.width),
        )
        self.ports.append(port)
        b.net.schedule_port(port)
        return port.out


class LazySelectorPort:
    def __init__(self, macro, sels, entries, out) -> None:
        self.macro = macro
        self.sels = sels
        self.entries = entries
        self.out = out

    def input_wires(self) -> List[int]:
        return self.sels + [w for e in self.entries for w in e]

    def output_wires(self) -> List[int]:
        return self.out

    def plain_step(self, values, macro_state, pending) -> None:
        idx = 0
        for i, w in enumerate(self.sels):
            idx |= (values[w] & 1) << i
        for w, src in zip(self.out, self.entries[idx]):
            values[w] = values[src]

    def engine_step(self, ctx) -> None:
        sel_states = [ctx.get(w) for w in self.sels]
        if all(type(s) is int for s in sel_states):
            # Public selects: the tree collapses onto the chosen entry.
            idx = 0
            for i, s in enumerate(sel_states):
                idx |= (s & 1) << i
            chosen = [ctx.get(src) for src in self.entries[idx]]
        else:
            # Secret select bits: expand the real AND-OR MUX tree.
            level = [[ctx.get(w) for w in entry] for entry in self.entries]
            for sel in sel_states:
                nxt = []
                for t in range(0, len(level), 2):
                    row = []
                    for bit in range(self.macro.width):
                        x0, x1 = level[t][bit], level[t + 1][bit]
                        take1 = ctx.gate(_AND, sel, x1)
                        take0 = ctx.gate(_ANDNB, x0, sel)
                        row.append(ctx.gate(_OR, take1, take0))
                    nxt.append(row)
                level = nxt
            chosen = level[0]
        # Drive the outputs (crediting their consumers first), then
        # release every statically counted input pin: deselected
        # entries are recursively skipped and a passed-through entry's
        # chain collapses onto its consumers.
        for w, s in zip(self.out, chosen):
            ctx.drive(w, s)
        for s in sel_states:
            ctx.release(s)
        for entry in self.entries:
            for src in entry:
                ctx.release(ctx.get(src))


class LazyShifter:
    """Barrel shifter with free rewiring under a public amount."""

    def __init__(self, name: str, width: int, n_amount: int, kind: str,
                 arith: bool = False) -> None:
        if kind not in ("left", "right", "ror"):
            raise ValueError(f"bad shifter kind {kind!r}")
        self.name = name
        self.width = width
        self.n_amount = n_amount
        self.kind = kind
        self.arith = arith
        self.ports: List["LazyShifterPort"] = []
        self.keep_final_writes = False

    def plain_init(self, resolve) -> None:
        return None

    def plain_words(self, state) -> List[int]:
        return []

    def engine_init(self, ctx) -> None:
        return None

    def equivalent_gates(self) -> int:
        return self.n_amount * self.width * 3 * len(self.ports)

    def equivalent_nonxor(self) -> int:
        return self.n_amount * self.width * len(self.ports)

    def source_index(self, out_bit: int, amount: int) -> Optional[int]:
        """Input bit feeding ``out_bit`` under ``amount`` (None = 0)."""
        n = self.width
        if self.kind == "left":
            src = out_bit - amount
            return src if src >= 0 else None
        if self.kind == "ror":
            return (out_bit + amount) % n
        src = out_bit + amount
        if src < n:
            return src
        return n - 1 if self.arith else None

    def attach(self, b: CircuitBuilder, value: Sequence[int],
               amount: Sequence[int]) -> List[int]:
        if len(value) != self.width or len(amount) != self.n_amount:
            raise ValueError(f"{self.name}: wrong shifter arity")
        port = LazyShifterPort(
            self, list(value), list(amount), b.net.new_wires(self.width)
        )
        self.ports.append(port)
        b.net.schedule_port(port)
        return port.out


class LazyShifterPort:
    def __init__(self, macro, value, amount, out) -> None:
        self.macro = macro
        self.value = value
        self.amount = amount
        self.out = out

    def input_wires(self) -> List[int]:
        return self.value + self.amount

    def output_wires(self) -> List[int]:
        return self.out

    def _amount_of(self, bits: List[int]) -> int:
        return sum((b & 1) << i for i, b in enumerate(bits))

    def plain_step(self, values, macro_state, pending) -> None:
        amount = self._amount_of([values[w] for w in self.amount])
        for i, w in enumerate(self.out):
            src = self.macro.source_index(i, amount)
            values[w] = 0 if src is None else values[self.value[src]]

    def engine_step(self, ctx) -> None:
        amount_states = [ctx.get(w) for w in self.amount]
        value_states = [ctx.get(w) for w in self.value]
        width = self.macro.width
        if all(type(s) is int for s in amount_states):
            # Pure rewiring (shifted-out bits net to a recursive skip;
            # replicated sign bits net to multiple credits).
            amount = self._amount_of(amount_states)  # type: ignore[arg-type]
            srcs = [self.macro.source_index(i, amount) for i in range(width)]
            cur = [0 if src is None else value_states[src] for src in srcs]
        else:
            # Secret amount: expand the barrel MUX stages.
            cur = list(value_states)
            for stage, sel in enumerate(amount_states):
                k = 1 << stage
                shifted: List[object] = []
                for i in range(width):
                    src = self.macro.source_index(i, k)
                    shifted.append(0 if src is None else cur[src])
                if type(sel) is int:
                    cur = shifted if sel else cur
                    continue
                # A stage reads each bit of ``cur`` up to three times.
                for s in cur:
                    ctx.retain(s)
                nxt = []
                for x, y in zip(cur, shifted):
                    diff = ctx.gate(_XOR, x, y)
                    gated = ctx.gate(_AND, sel, diff)
                    nxt.append(ctx.gate(_XOR, gated, x))
                for s in cur:
                    ctx.release(s)
                cur = nxt
        # Credit each output's consumers, then release the statically
        # counted input pins.
        for w, s in zip(self.out, cur):
            ctx.drive(w, s)
        for s in amount_states:
            ctx.release(s)
        for s in value_states:
            ctx.release(s)
