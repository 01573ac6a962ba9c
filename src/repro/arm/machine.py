"""The ARM2GC machine: compile, load, garble, evaluate (Figure 4).

:class:`GarbledMachine` wires the pieces together the way the paper's
framework does:

1. the program (assembly text, a compiled :class:`~repro.cc` program,
   or raw instruction words) becomes the **public input p** — it
   initializes the instruction ROM's flip-flops;
2. Alice's and Bob's private words initialize their input memories
   (their labels are the flip-flop initializers);
3. the processor netlist is garbled/evaluated for a pre-agreed number
   of clock cycles with SkipGate;
4. the output memory contents are the result.

The cycle count is derived by running the reference emulator; for
predicated (if-converted) programs it is input-independent, which the
machine verifies by also running the emulator on zeroed inputs.  A run
replays, in the clear, the residual trace the two parties would replay
(:mod:`repro.core.run`), and the emulator — an oracle independent of
the processor netlist and of SkipGate — checks every output bit of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuit.bits import bits_to_int, pack_words, unpack_words
from ..core.results import BaseResult
from ..core.run import check_outputs, replay_clear
from ..obs import timing_summary
from .assembler import assemble
from .cpu import build_cpu
from .emulator import Emulator, EmulatorError, MachineConfig

ProgramLike = Union[str, Sequence[int]]

# Netlist construction is the expensive part; cache per memory layout.
_CPU_CACHE: Dict[Tuple[int, int, int, int, int], Tuple[object, dict]] = {}


def _cpu_for(config: MachineConfig):
    key = (
        config.alice_words,
        config.bob_words,
        config.output_words,
        config.data_words,
        config.imem_words,
    )
    if key not in _CPU_CACHE:
        _CPU_CACHE[key] = build_cpu(config)
    return _CPU_CACHE[key]


@dataclass(kw_only=True)
class MachineResult(BaseResult):
    """Result of one garbled-processor run.

    The shared surface (``outputs``, ``value``, ``stats``, ``timing``,
    ``garbled_nonxor``) comes from
    :class:`~repro.core.results.BaseResult`; ``outputs`` are the output
    memory bits LSB-first and ``value`` their integer recomposition
    (``output_words`` is the same data as 32-bit words).
    """

    #: Output memory contents (32-bit words).
    output_words: List[int]
    #: Clock cycles garbled.
    cycles: int
    #: Whether the cycle count is independent of the private inputs
    #: (False means the program has secret-PC regions).
    input_independent_flow: bool

    @property
    def conventional_nonxor(self) -> int:
        """Cost of the same run without SkipGate (circuit x cycles)."""
        return self.stats.conventional_nonxor


class GarbledMachine:
    """A garbled ARM-style processor loaded with one program.

    Args:
        program: assembly source text or a list of instruction words
            (e.g. from :func:`repro.cc.compile_c`).
        alice_words / bob_words / output_words / data_words: memory
            bank sizes in 32-bit words.
        imem_words: instruction memory size (power of two).
    """

    def __init__(
        self,
        program: ProgramLike,
        alice_words: int = 16,
        bob_words: int = 16,
        output_words: int = 16,
        data_words: int = 64,
        imem_words: int = 256,
    ) -> None:
        if isinstance(program, str):
            self.program = assemble(program)
        else:
            self.program = [w & 0xFFFFFFFF for w in program]
        self.config = MachineConfig(
            alice_words=alice_words,
            bob_words=bob_words,
            output_words=output_words,
            data_words=data_words,
            imem_words=imem_words,
        )
        if len(self.program) > imem_words:
            raise ValueError(
                f"program of {len(self.program)} words exceeds imem_words"
            )
        self.net, self.cpu_info = _cpu_for(self.config)

    # -- cycle-count agreement ------------------------------------------------

    def required_cycles(
        self,
        alice: Sequence[int],
        bob: Sequence[int],
        max_cycles: int = 200_000,
    ) -> Tuple[int, bool]:
        """Cycles to HALT, and whether that count is input-independent.

        Both parties must agree on ``cc`` before the protocol starts
        (Algorithms 1-2).  For predicated programs the count from any
        input works; for programs with secret-PC regions the caller
        should pass an explicit worst-case ``cycles`` to :meth:`run`.
        """
        emu = Emulator(self.program, self.config, list(alice), list(bob))
        cycles = emu.run(max_cycles)
        probe = Emulator(
            self.program,
            self.config,
            [0] * self.config.alice_words,
            [0] * self.config.bob_words,
        )
        try:
            zero_cycles = probe.run(max_cycles)
        except EmulatorError:
            zero_cycles = -1
        return cycles, cycles == zero_cycles

    # -- the run ---------------------------------------------------------------

    def run(
        self,
        alice: Sequence[int] = (),
        bob: Sequence[int] = (),
        cycles: Optional[int] = None,
        max_cycles: int = 200_000,
        obs=None,
    ) -> MachineResult:
        """Garble/evaluate the processor on the parties' inputs.

        ``cycles`` overrides the emulator-derived count (needed for
        programs whose control flow depends on secret data; pass the
        public worst case).  The run is the parties' residual trace
        replayed in the clear; every output bit is checked against the
        reference emulator run for the same ``cycles``, and a mismatch
        raises ``AssertionError``.  ``obs`` reports the trace build (on
        a cold cache) and the replay's per-cycle events.
        """
        alice = list(alice)
        bob = list(bob)
        if len(alice) > self.config.alice_words:
            raise ValueError("too many alice words")
        if len(bob) > self.config.bob_words:
            raise ValueError("too many bob words")

        flow_independent = True
        if cycles is None:
            cycles, flow_independent = self.required_cycles(
                alice, bob, max_cycles
            )

        alice_padded = alice + [0] * (self.config.alice_words - len(alice))
        bob_padded = bob + [0] * (self.config.bob_words - len(bob))
        imem = self.program + [0] * (
            self.config.imem_words - len(self.program)
        )

        outputs, stats = replay_clear(
            self.net, cycles,
            alice_init=pack_words(alice_padded, 32),
            bob_init=pack_words(bob_padded, 32),
            public_init=pack_words(imem, 32),
            obs=obs,
        )
        emu = Emulator(self.program, self.config, alice, bob)
        for _ in range(cycles):
            emu.step()
        check_outputs(outputs, pack_words(emu.output, 32), "reference emulator")

        return MachineResult(
            outputs=outputs,
            value=bits_to_int(outputs),
            output_words=unpack_words(outputs, 32),
            cycles=cycles,
            stats=stats,
            input_independent_flow=flow_independent,
            timing=timing_summary(obs) if obs is not None and obs.enabled else None,
        )
