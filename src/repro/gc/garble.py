"""Half-gate garbling [49] with free-XOR [15] and row reduction [27].

Every non-XOR 2-input gate is garbled as an AND gate with optional
input/output inversions (:func:`repro.circuit.gates.and_decomposition`)
at a cost of exactly **two ciphertexts** (the generator half ``TG`` and
the evaluator half ``TE``); XOR gates are free.  This is the state of
the art the paper's cost metric assumes (Section 2.3): one garbled
non-XOR gate == one 2x16-byte garbled table on the wire.

The half-gate algebra is written once, in the *run kernels*
:func:`garble_run` and :func:`evaluate_run`: they take a run of gates
that read and write slots of a live label table, in order, so a
backend replaying a fixed gate stream pays one call per run instead of
one per gate (a filtered table never reaches them: the residual trace
drops its row).  :func:`garble_gate`, :func:`evaluate_gate`,
:func:`garble_and` and :func:`evaluate_and` are one-row wrappers.

Conventions
-----------
* A wire's two labels are ``W0`` and ``W1 = W0 ^ R`` where ``R`` is the
  garbler's global free-XOR offset with ``lsb(R) = 1``.
* ``lsb(W)`` is the permute/point bit.
* The per-gate tweaks are ``2*gid`` and ``2*gid + 1`` where ``gid`` is
  a globally unique gate index agreed by both parties.
* A table is 32 bytes on the wire: ``TG`` then ``TE``, each 16 bytes
  little-endian.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..circuit.gates import and_decomposition
from .hashing import HASH_STATS, LABEL_BITS, LABEL_MASK


def random_label(rng=None) -> int:
    """Fresh 128-bit label."""
    if rng is None:
        return secrets.randbits(128)
    return rng.getrandbits(128)


def random_delta(rng=None) -> int:
    """Fresh free-XOR offset R with the permute bit forced to 1.

    One delta garbles one evaluation: an evaluator that ever sees both
    labels of a wire learns R and with it every secret under that
    delta.  Layers that garble ahead of time (:mod:`repro.gc.material`)
    must therefore treat each delta *epoch* as single-use — never
    serve material from one epoch to two evaluator identities.
    """
    return random_label(rng) | 1


@dataclass(frozen=True)
class GarbledTable:
    """The two half-gate ciphertexts of one garbled non-XOR gate."""

    tg: int
    te: int

    SIZE_BYTES = 32  #: wire size of one garbled table (2 x 16 bytes)


#: ``(ai, bi, oi)`` of :func:`and_decomposition` for every 4-bit truth
#: table (``None``: not AND-like), looked up once per gate.
_AND_DECOMPOSITION = tuple(and_decomposition(tt) for tt in range(16))

#: A hash point, the 24 bytes ``label || tweak`` that
#: :func:`repro.gc.hashing.hash_label` hashes, is built as one int with
#: the tweak above the label: ``_TWEAK`` is tweak 1 there and ``_GID``
#: one gate (two tweaks).
_TWEAK = 1 << LABEL_BITS
_GID = 2 * _TWEAK


def _check_and_like(tt: int) -> None:
    if not 0 <= tt < 16 or _AND_DECOMPOSITION[tt] is None:
        raise ValueError(f"gate type {tt:#06b} is not AND-like")


def garble_run(labels: List[int], tts: Sequence[int], gids: Sequence[int],
               srcs_a: Sequence[int], srcs_b: Sequence[int],
               dsts: Sequence[int], delta: int) -> List[bytes]:
    """Garble a run of AND-like gates, in order, over a label table.

    Row ``i`` reads the zero labels ``labels[srcs_a[i]]`` and
    ``labels[srcs_b[i]]``, garbles truth table ``tts[i]`` as gate
    ``gids[i]`` and writes its output zero label to ``labels[dsts[i]]``
    (a later row may read it).  Returns each row's 32-byte table.
    Input inversions re-base the zero labels (``a0 ^ ai*delta`` is the
    label of the value that makes the AND input false); the output
    inversion re-bases the output zero label.  The generator half
    handles ``a & p_b`` and the evaluator half ``a & (b ^ p_b)``, where
    ``p_b`` is b's permute bit.  Tweaks stay below ``2**62``, so each
    hash point is exactly ``hash_label``'s.
    """
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    decomposition = _AND_DECOMPOSITION
    mask, tweak, step = LABEL_MASK, _TWEAK, _GID
    tables = []
    append = tables.append
    for tt, gid, ia, ib, d in zip(tts, gids, srcs_a, srcs_b, dsts):
        ai, bi, oi = decomposition[tt]
        a0 = labels[ia] ^ delta if ai else labels[ia]
        b0 = labels[ib] ^ delta if bi else labels[ib]
        j0 = gid * step
        a1, b1, j1 = a0 ^ delta, b0 ^ delta, j0 | tweak
        ha0 = from_bytes(sha256((j0 | a0).to_bytes(24, "little")).digest(), "little")
        ha1 = from_bytes(sha256((j0 | a1).to_bytes(24, "little")).digest(), "little")
        hb0 = from_bytes(sha256((j1 | b0).to_bytes(24, "little")).digest(), "little")
        hb1 = from_bytes(sha256((j1 | b1).to_bytes(24, "little")).digest(), "little")
        # Digests stay 256-bit until the end: only their low halves
        # reach the masked results.
        tg = ha0 ^ ha1 ^ delta if b0 & 1 else ha0 ^ ha1
        te = hb0 ^ hb1 ^ a0
        out0 = (ha0 ^ tg if a0 & 1 else ha0) ^ (hb1 if b0 & 1 else hb0)
        labels[d] = (out0 ^ delta if oi else out0) & mask
        append(((te & mask) << 128 | tg & mask).to_bytes(32, "little"))
    HASH_STATS.calls += 4 * len(tables)
    return tables


def evaluate_run(labels: List[int], blob: bytes, gids: Sequence[int],
                 srcs_a: Sequence[int], srcs_b: Sequence[int],
                 dsts: Sequence[int]) -> None:
    """Evaluate a run of garbled gates, in order, over a label table.

    Row ``i`` is gate ``gids[i]``: it reads the held labels
    ``labels[srcs_a[i]]``/``labels[srcs_b[i]]`` and the ``i``-th 32-byte
    table of ``blob`` and writes the output label to ``labels[dsts[i]]``.
    """
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    mask, tweak, step = LABEL_MASK, _TWEAK, _GID
    off = 0
    for gid, ia, ib, d in zip(gids, srcs_a, srcs_b, dsts):
        a, b, j0 = labels[ia], labels[ib], gid * step
        j1 = j0 | tweak
        w = from_bytes(sha256((j0 | a).to_bytes(24, "little")).digest(), "little")
        w ^= from_bytes(sha256((j1 | b).to_bytes(24, "little")).digest(), "little")
        if a & 1 or b & 1:
            table = from_bytes(blob[off : off + 32], "little")
            if a & 1:
                w ^= table
            if b & 1:
                w ^= table >> 128 ^ a
        labels[d] = w & mask
        off += 32
    HASH_STATS.calls += off // 16  # two hashes per 32-byte table


def garble_gate(tt: int, a0: int, b0: int, delta: int,
                gid: int) -> Tuple[int, GarbledTable]:
    """Garble one AND-like gate type; returns ``(out0, table)``."""
    _check_and_like(tt)
    labels = [a0, b0, 0]
    (table,) = garble_run(labels, (tt,), (gid,), (0,), (1,), (2,), delta)
    both = int.from_bytes(table, "little")
    return labels[2], GarbledTable(both & LABEL_MASK, both >> LABEL_BITS)


def evaluate_gate(tt: int, a: int, b: int, table: GarbledTable, gid: int) -> int:
    """Evaluate one AND-like garbled gate (labels are raw)."""
    _check_and_like(tt)
    return evaluate_and(a, b, table, gid)


def garble_and(a0: int, b0: int, delta: int, gid: int) -> Tuple[int, GarbledTable]:
    """Garble ``out = AND(a, b)``; returns ``(out0, table)``."""
    return garble_gate(0b1000, a0, b0, delta, gid)


def evaluate_and(a: int, b: int, table: GarbledTable, gid: int) -> int:
    """Evaluate a garbled AND gate on held labels ``a`` and ``b``."""
    labels = [a, b, 0]
    blob = (table.te << LABEL_BITS | table.tg).to_bytes(32, "little")
    evaluate_run(labels, blob, (gid,), (0,), (1,), (2,))
    return labels[2]
