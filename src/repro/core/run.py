"""Local evaluation: the parties' residual trace, replayed in the clear.

:func:`repro.api.run` with ``mode="local"`` lands here.  It fetches the
program's residual trace (:mod:`repro.core.trace`) from the cache every
protocol, party and serve session uses, under the same key, and drives
a :class:`~repro.core.trace.TraceReplayer` through
:class:`ClearBackend`, whose label *is* the wire's cleartext bit (a
cleartext evaluator over the gate list the garbled path runs).  Every
output bit is checked against an oracle that shares no code with
SkipGate: the plain simulator for a netlist (:func:`_evaluate`), the
ISA emulator for a program (:meth:`repro.arm.machine.GarbledMachine.run`).
So Section 3.5's argument is executed: a skip decision that is wrong
for some private input makes a local run raise, on exactly the trace
the parties replay.  Statistics are the trace's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence, Tuple, Union

from ..circuit.bits import bits_to_int
from ..circuit.netlist import ALICE, BOB, Netlist, PUBLIC
from ..circuit.simulate import PlainSimulator
from ..obs import NULL_OBS, timing_summary
from .backend import Backend
from .protocol import _expand_bits
from .results import BaseResult
from .stats import RunStats
from .trace import ResidualTrace, TraceReplayer, residual_trace

BitSource = Union[Sequence[int], Callable[[int], Sequence[int]]]


class ClearBackend(Backend):
    """A label is a bit: input labels are the parties' bits (keyed as
    :func:`~repro.core.protocol._expand_bits` keys them), free XOR is
    ``^``, and a garble row applies its truth table, into which the
    trace has already folded the input flips."""

    def __init__(self, bits: Dict[Hashable, int]) -> None:
        self._bits = bits

    def secret_labels(self, keys) -> List[int]:
        bits = self._bits
        return [bits[key] for key in keys]

    def xor(self, la: int, lb: int) -> int:
        return la ^ lb

    def garble_many(self, tts, gids, srcs_a, srcs_b, dsts, labels) -> None:
        for tt, ia, ib, d in zip(tts, srcs_a, srcs_b, dsts):
            labels[d] = (tt >> (labels[ia] | labels[ib] << 1)) & 1


def replay(trace: ResidualTrace, bits: Dict[Hashable, int], obs=NULL_OBS
           ) -> Tuple[List[int], RunStats]:
    """Replay every cycle of ``trace`` on cleartext ``bits`` (both
    parties' bits, keyed as :func:`~repro.core.protocol._expand_bits`
    keys them); returns the output bits and the trace's statistics."""
    replayer = TraceReplayer(trace, ClearBackend(bits), obs=obs)
    for _ in trace.tables:
        replayer.step()
    outputs = [s if type(s) is int else s[0] ^ s[1]
               for s in replayer.output_states()]
    return outputs, replayer.stats


def replay_clear(
    net: Netlist, cycles: int, alice: BitSource = (), bob: BitSource = (),
    public: BitSource = (), alice_init: Sequence[int] = (),
    bob_init: Sequence[int] = (), public_init: Sequence[int] = (), obs=None,
) -> Tuple[List[int], RunStats]:
    """:func:`replay` of the cached residual trace of ``net`` (the one
    the parties replay) on the parties' cleartext inputs."""
    obs = NULL_OBS if obs is None else obs
    bits = _expand_bits(net, ALICE, alice, alice_init, cycles)
    bits.update(_expand_bits(net, BOB, bob, bob_init, cycles))
    return replay(residual_trace(net, cycles, public, public_init, obs=obs),
                  bits, obs)


def check_outputs(outputs: Sequence[int], expected: Sequence[int], oracle: str) -> None:
    """Raise ``AssertionError`` naming the first output bit of the
    replay that differs from ``oracle``'s."""
    for i, (got, want) in enumerate(zip(outputs, expected)):
        if got != want:
            raise AssertionError(
                f"replayed trace output {i} = {got} disagrees with the "
                f"{oracle} ({want})")


@dataclass(kw_only=True)
class RunResult(BaseResult):
    """Outputs and garbling statistics of a local SkipGate run."""


def _evaluate(
    net: Netlist,
    cycles: int = 1,
    alice: BitSource = (),
    bob: BitSource = (),
    public: BitSource = (),
    alice_init: Sequence[int] = (),
    bob_init: Sequence[int] = (),
    public_init: Sequence[int] = (),
    obs=None,
) -> RunResult:
    """Replay ``cycles`` cycles of ``net`` in the clear and check every
    output bit against the plain simulator.  ``alice`` / ``bob`` /
    ``public`` are per-cycle bits, constant or ``cycle -> bits`` (called
    once per cycle, in order); the ``*_init`` vectors feed ``InitSpec``
    entries (``public_init`` is the paper's public input ``p``)."""
    rows = {
        role: [src(c) for c in range(cycles)] if callable(src) else [src] * cycles
        for role, src in ((ALICE, alice), (BOB, bob), (PUBLIC, public))
    }
    sim = PlainSimulator(
        net, init_bits={ALICE: alice_init, BOB: bob_init, PUBLIC: public_init})
    for cycle in range(cycles):
        sim.step({role: rows[role][cycle] for role in rows})
    outputs, stats = replay_clear(
        net, cycles, rows[ALICE].__getitem__, rows[BOB].__getitem__,
        rows[PUBLIC].__getitem__ if callable(public) else public,
        alice_init, bob_init, public_init, obs)
    check_outputs(outputs, sim.outputs(), "plain simulator")
    return RunResult(
        outputs=outputs,
        value=bits_to_int(outputs),
        stats=stats,
        timing=timing_summary(obs) if obs is not None and obs.enabled else None,
    )
