"""Label backends for the SkipGate engine.

The SkipGate engine (:mod:`repro.core.engine`) is *label-representation
agnostic*: all category decisions depend only on which wires are public
and on label identity, never on label contents.  A backend supplies the
label algebra:

* :class:`CountingBackend` — labels are random 128-bit integers and
  "garbling" just mints a fresh label.  This mode computes the paper's
  cost metric (garbled non-XOR gates) exactly, without cryptography,
  and is what the benchmark harness uses.  Crucially it consumes only
  **public** information — the engine never sees private input bits —
  which mirrors the security argument of Section 3.5.
* The cryptographic garbler/evaluator backends live in
  :mod:`repro.core.protocol` and run the real half-gate protocol.

Backends are engine-agnostic: the interpreted reference engine and
the compiled cycle-plan engine (:mod:`repro.core.plan`) issue exactly
the same ``secret_label`` / ``xor`` / ``garble`` / ``begin_cycle`` /
``end_cycle`` sequence, so any backend works under either without
change — the differential tests pin this call-order equivalence.  A
replay of that sequence (:mod:`repro.core.trace`) knows what comes
next, so it hands over runs: ``secret_labels`` and ``garble_many``,
which default to loops over the one-call methods.  Sweeping engines
drive only :class:`CountingBackend` and the trace recorder; the
crypto backends are driven only by a
:class:`~repro.core.trace.TraceReplayer`, which calls ``xor``,
``secret_labels``, ``garble_many`` and ``begin_cycle`` /
``end_cycle``, so they implement the run methods and no one-call
``secret_label`` / ``garble``.

Free-XOR is modelled exactly: a wire label is the XOR of the base
labels on its structural path, so two wires carry identical labels if
and only if the real protocol would produce bit-identical key material
— the condition both parties can detect symmetrically (Section 3.3).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence


class Backend:
    """Interface the SkipGate engine uses to manipulate labels."""

    def secret_label(self, key: Hashable) -> int:
        """Label for a private input / initialization bit.

        ``key`` identifies the bit, e.g. ``("in", "alice", cycle, i)``
        or ``("init", "bob", i)``.  Must be memoized: the same key must
        always return the same label so that re-used input bits carry
        identical labels (which Category iii can then exploit).
        """
        raise NotImplementedError

    def xor(self, la: int, lb: int) -> int:
        """Free-XOR combination of two labels."""
        raise NotImplementedError

    def garble(self, tt: int, la: int, lb: int, key: int) -> int:
        """Garble/evaluate one non-XOR gate; returns the output label.

        ``tt`` is the effective truth table after input flips have been
        folded in; ``key`` names the gate: an engine's per-cycle gate key
        (what :meth:`end_cycle` filters by), or a replay's gate id.
        """
        raise NotImplementedError

    def secret_labels(self, keys: Sequence[Hashable]) -> List[int]:
        """:meth:`secret_label` over a run of keys, in order (a replay
        knows the whole run up front)."""
        return [self.secret_label(key) for key in keys]

    def garble_many(self, tts: Sequence[int], gids: Sequence[int],
                    srcs_a: Sequence[int], srcs_b: Sequence[int],
                    dsts: Sequence[int], labels: List[int]) -> None:
        """:meth:`garble` over a run of gates, in order, on a label
        table: row ``i`` is gate ``gids[i]`` (its index among every
        garble of the recorded run, which fixes its table's tweak), reads
        ``labels[srcs_a[i]]``/``labels[srcs_b[i]]`` and writes its output
        to ``labels[dsts[i]]``, where later rows may read it."""
        garble = self.garble
        for tt, gid, ia, ib, d in zip(tts, gids, srcs_a, srcs_b, dsts):
            labels[d] = garble(tt, labels[ia], labels[ib], gid)

    def begin_cycle(self, cycle: int, tables: int = 0) -> None:
        """Hook called before each sequential cycle.  A trace replay
        also passes how many tables the cycle sends (a sweeping engine
        learns it only at :meth:`end_cycle`): the evaluator reads the
        cycle's table blob by it."""

    def end_cycle(self, kept_keys: Sequence[int] = (), dropped_keys: Sequence[int] = ()) -> None:
        """Hook called after the table filter (Algorithm 4 line 18): a
        sweeping engine passes the keys it keeps and drops, a trace
        replay none (its trace holds only kept tables)."""


class CountingBackend(Backend):
    """Non-cryptographic backend that models labels as random ints.

    Labels are 128-bit integers with the top bit forced to 1 (so no
    label ever collides with an encoded public constant).  XOR is
    integer XOR, exactly mirroring free-XOR key material; garbling
    mints a fresh label.  Deterministic given ``seed``.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        self._rng = random.Random(seed)
        self._memo: Dict[Hashable, int] = {}
        self.tables_emitted = 0

    def _fresh(self) -> int:
        return self._rng.getrandbits(127) | (1 << 127)

    def secret_label(self, key: Hashable) -> int:
        label = self._memo.get(key)
        if label is None:
            label = self._fresh()
            self._memo[key] = label
        return label

    def xor(self, la: int, lb: int) -> int:
        return la ^ lb

    def garble(self, tt: int, la: int, lb: int, key: int) -> int:
        self.tables_emitted += 1
        return self._fresh()
