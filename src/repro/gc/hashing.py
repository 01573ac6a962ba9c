"""Key derivation for garbling.

The paper's implementations use fixed-key AES (AES-NI) as the circular
2-correlation-robust hash H(X, tweak) required by free-XOR and
half-gates [1, 15, 49].  Pure Python has no AES-NI, so we substitute
SHA-256 truncated to 128 bits, which provides the same interface and
(heuristically) the required correlation robustness.  Communication
costs — the paper's metric — are unaffected by the hash choice.
"""

from __future__ import annotations

import hashlib

#: Security parameter k: labels are 128-bit (Section 2.3).
LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8
LABEL_MASK = (1 << LABEL_BITS) - 1


class HashStats:
    """Cumulative garbling-hash invocation count.

    Hashing is one of the three cost centres (garbling, hashing,
    communication) the obs layer separates; each call costs one
    SHA-256 compression, so the count times a constant is the hash
    budget.  The counter is a plain attribute increment — cheap next
    to the hash itself — and approximate under concurrent garble/eval
    threads (each party's calls may interleave); profilers snapshot
    it before/after a run (see ``repro.core.protocol``).
    """

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0


#: Process-wide hash call counter (monotonic; snapshot and diff).
HASH_STATS = HashStats()


def hash_label(label: int, tweak: int) -> int:
    """H(label, tweak) -> 128-bit integer.

    ``tweak`` is the unique per-half-gate index that makes the hash
    usable across gates (the ``j``/``j'`` of the half-gate scheme).
    The hashed point is the 24 bytes ``label || tweak`` (16 + 8,
    little-endian); the half-gate run kernels in :mod:`repro.gc.garble`
    build the same point inline.
    """
    return hash_labels(((label, tweak),))[0]


def hash_labels(pairs) -> list:
    """Batched ``H`` over ``(label, tweak)`` pairs.

    Produces exactly the same values as :func:`hash_label` on each
    pair, in one tight loop with the ``hashlib`` constructor and
    conversion callables hoisted out and a single counter update for
    the whole batch (the OT-extension pool hashes through this).
    """
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    out = [
        from_bytes(sha256(((tweak & 0xFFFFFFFFFFFFFFFF) << LABEL_BITS | label)
                          .to_bytes(24, "little")).digest(), "little") & LABEL_MASK
        for label, tweak in pairs
    ]
    HASH_STATS.calls += len(out)
    return out


def kdf_bytes(secret: bytes, context: bytes, nbytes: int) -> bytes:
    """Derive ``nbytes`` of key material (used by the OT layer)."""
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha256(
            secret + context + counter.to_bytes(4, "little")
        ).digest()
        counter += 1
    return out[:nbytes]
