"""1-out-of-2 Oblivious Transfer (Section 2.2).

Implements the "simplest OT" of Chou-Orlandi style Diffie-Hellman OT
over a multiplicative prime group.  Its core is a *random* OT: the
sender ends up with two 16-byte pads ``(x0, x1)``, the receiver with
``x_c`` for its choice bit ``c`` and nothing about ``x_{1-c}``, and the
sender learns nothing about ``c``.  Each pad is a DH key hashed
together with the transfer index (:func:`_pad`), so no pad ever
crosses the wire.  A chosen-message OT of Alice's ``(m0, m1)`` is that
core plus one reply frame of ``m0 ^ x0, m1 ^ x1``.

Two parameter sets are provided:

* ``modp2048`` — the RFC 3526 group 14 safe prime, a realistic setting
  and the default of :class:`OTSender` / :class:`OTReceiver`;
* ``modp512``  — a 508-bit *composite* test modulus (not secure), the
  default of the protocol, serve and OT-extension entry points because
  it keeps test and benchmark runs short.

Both parties draw 256-bit exponents (DESIGN.md §8 has the argument).
The sender pays one modular exponentiation per transfer:
``k1 = (B/A)^a = B^a * (A^a)^-1`` and ``(A^a)^-1`` is fixed for the
sender's lifetime.  The receiver pays none: ``g^b`` and ``A^b`` have
fixed bases, so a 4-bit windowed table per base turns each into 64
modular multiplications.

Transfers run a :func:`windows` of ``POOL_SIZE`` at a time: the sender's
one ``ot-setup`` frame (``A``), then per window one ``ot-b`` frame (the
window's group elements, back to back) from the receiver.  That is the
whole random OT (``send_random`` / ``receive_random``; the IKNP base
phase of :mod:`repro.gc.ot_extension` is this and nothing more).  The
transfer of Bob's GC input labels (Algorithms 1-2 lines 3-4) adds, per
window, one ``ot-e`` frame of masked message pairs (``send_many`` /
``receive_many``).  No frame carries a count: both sides derive the
window boundaries from the public run length, and a frame of any other
length is a :class:`~repro.gc.channel.FrameCorruption`.  Group elements
are **fixed-width** little-endian (the group size in bytes), so
communication totals are deterministic and independent of the random
element values.

Both sides expose ``snapshot`` / ``restore`` / ``rebind``: the resume
layer (:mod:`repro.net.session`) checkpoints OT progress at cycle
boundaries and, after a reconnect, rolls the transfer counters back so
a replay re-runs exactly the transfers the peer also rolled back.
"""

from __future__ import annotations

import functools
import secrets
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .channel import Endpoint, FrameCorruption, check_blob
from .hashing import LABEL_BYTES, kdf_bytes

# RFC 3526, group 14 (2048-bit MODP); generator 2.
_MODP2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# A fixed 508-bit odd *composite* modulus for fast tests and benchmarks.
# The DH-OT algebra is functionally correct over any modulus where the
# elements involved are invertible; this parameter set is for speed only
# and offers no security guarantees (use "modp2048" for those).
_MODP512 = int(
    "F518AA8781A8DF278ABA4E7D64B7CB9D49462353E5C3A8A5C8E6F0C8E6C1E1C9"
    "5C4E9F7C9F8F1E2D3C4B5A69788796A5B4C3D2E1F0F1E2D3C4B5A69788796A3",
    16,
)

GROUPS = {
    "modp2048": (_MODP2048, 2),
    "modp512": (_MODP512, 2),
}


#: Transfers per OT window (one choice frame, one reply frame), and the
#: OT-extension pool size (:mod:`repro.gc.ot_extension`).
POOL_SIZE = 256

#: Both parties' private exponents are drawn from ``[1, 2**EXP_BITS)``.
EXP_BITS = 256

_WINDOW_BITS = 4

#: One row per exponent window, one power of the base per window digit.
_Table = Tuple[Tuple[int, ...], ...]


def _draw_exponent() -> int:
    return secrets.randbelow((1 << EXP_BITS) - 1) + 1


def _fixed_base_table(base: int, p: int) -> _Table:
    """``table[i][d] = base ** (d << (_WINDOW_BITS * i)) % p`` for every
    window ``i`` of an ``EXP_BITS``-bit exponent (~1k mulmods)."""
    table = []
    for _ in range(EXP_BITS // _WINDOW_BITS):
        row = [1, base]
        for _ in range((1 << _WINDOW_BITS) - 2):
            row.append(row[-1] * base % p)
        table.append(tuple(row))
        base = row[-1] * base % p
    return tuple(table)


def _fixed_pow(table: _Table, e: int, p: int) -> int:
    """``base ** e % p`` for ``0 <= e < 2**EXP_BITS`` from ``base``'s
    table: one mulmod per window, no squarings."""
    acc = 1
    mask = (1 << _WINDOW_BITS) - 1
    for row in table:
        acc = acc * row[e & mask] % p
        e >>= _WINDOW_BITS
    return acc


@functools.lru_cache(maxsize=None)
def _generator_table(group: str) -> _Table:
    """The generator's table: built once per group per process."""
    p, g = GROUPS[group]
    return _fixed_base_table(g, p)


def windows(items: Sequence, size: int) -> list:
    """A run cut into consecutive windows of ``size`` (the last may be
    shorter): the framing unit of both OT parties.  Each side derives it
    from the public run length, so no frame carries a count.

    A receiver sends a window's choices as one frame before it reads the
    window's one reply frame.  The window bounds the reply in flight
    (32 bytes a transfer), so it always fits the socket buffers and a
    TCP pair cannot deadlock with both ends blocked writing.
    """
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def pack_bits(bits: Sequence[int]) -> bytes:
    """Bit ``i`` of the little-endian result is ``bits[i]``."""
    value = 0
    for i, bit in enumerate(bits):
        value |= bit << i
    return value.to_bytes((len(bits) + 7) // 8, "little")


def unpack_bits(payload, n: int, tag: str) -> List[int]:
    """Inverse of :func:`pack_bits` for a frame that must hold ``n``
    bits: anything but ``ceil(n/8)`` bytes with zero padding is a
    :class:`~repro.gc.channel.FrameCorruption`."""
    value = int.from_bytes(check_blob(payload, (n + 7) // 8, tag), "little")
    if value >> n:
        raise FrameCorruption(f"{tag!r} frame sets bits past its {n} transfers")
    return [(value >> i) & 1 for i in range(n)]


def chosen_halves(reply, choices: Sequence[int], tag: str) -> List[bytes]:
    """The chosen 16-byte half of each ciphertext pair of a reply frame,
    which must hold exactly one pair per choice."""
    reply = check_blob(reply, 2 * LABEL_BYTES * len(choices), tag)
    halves = []
    for lo, choice in zip(range(0, len(reply), 2 * LABEL_BYTES), choices):
        lo += LABEL_BYTES if choice else 0
        halves.append(reply[lo : lo + LABEL_BYTES])
    return halves


def _pad(key: bytes, index: int) -> int:
    """A random-OT output: DH key ``key`` hashed with transfer ``index``."""
    return int.from_bytes(
        kdf_bytes(key, b"ot-msg%d" % index, LABEL_BYTES), "little"
    )


class BaseOTCache:
    """Thread-safe per-identity store of OT-extension base material.

    The :math:`\\kappa` public-key base OTs are the dominant fixed cost
    of an OT-extension session.  Semi-honestly, the base *seeds* may be
    reused across sessions between the same two parties (they are
    random-OT pads, so they never cross the wire); only the PRG
    expansion must be session-unique (see
    :func:`repro.gc.ot_extension.session_salt`).
    The serve layer keeps one cache per side, keyed by client identity:
    the server stores the sender-side ``(s, seeds)``, the client stores
    its receiver-side seed pairs.  Entries are opaque to the cache.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Any, Any] = {}

    def get(self, identity: Any) -> Optional[Any]:
        if identity is None:
            return None
        with self._lock:
            return self._entries.get(identity)

    def put(self, identity: Any, base: Any) -> None:
        if identity is None or base is None:
            return
        with self._lock:
            self._entries[identity] = base

    def discard(self, identity: Any) -> None:
        with self._lock:
            self._entries.pop(identity, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, identity: Any) -> bool:
        return self.get(identity) is not None


class OTSender:
    """Alice's side: transfers one of (m0, m1) per invocation."""

    def __init__(self, chan: Endpoint, group: str = "modp2048") -> None:
        self.p, self.g = GROUPS[group]
        self.group_bytes = (self.p.bit_length() + 7) // 8
        self.chan = chan
        self._set_key(_draw_exponent())
        self._setup_sent = False
        self.count = 0

    def _set_key(self, a: int) -> None:
        """Install private key ``a`` with everything derived from it:
        ``A = g^a`` and ``(A^a)^-1``, the factor that turns ``k0 = B^a``
        into ``k1 = (B/A)^a``."""
        self._a = a
        self._big_a = pow(self.g, a, self.p)
        self._k1_factor = pow(pow(self._big_a, a, self.p), -1, self.p)

    def _ensure_setup(self) -> None:
        if not self._setup_sent:
            self.chan.send(
                "ot-setup", self._big_a.to_bytes(self.group_bytes, "little")
            )
            self._setup_sent = True

    def send(self, m0: int, m1: int) -> None:
        """Obliviously transfer one of two 128-bit messages."""
        self.send_many(((m0, m1),))

    def send_random(self, n: int) -> List[Tuple[int, int]]:
        """``n`` random OTs, a window at a time: one ``ot-b`` frame in
        per window, nothing out.  Transfer ``i``'s pads are ``B^a`` and
        ``(B/A)^a``, each hashed with ``i``."""
        return [pads for part in windows(range(n), POOL_SIZE)
                for pads in self._random_window(len(part))]

    def _random_window(self, n: int) -> List[Tuple[int, int]]:
        self._ensure_setup()
        p, width = self.p, self.group_bytes
        elems = check_blob(self.chan.recv("ot-b"), width * n, "ot-b")
        pads = []
        for lo in range(0, len(elems), width):
            big_b = int.from_bytes(elems[lo : lo + width], "little")
            if not 1 < big_b < p:
                raise ValueError("OT receiver sent an invalid group element")
            k0 = pow(big_b, self._a, p)
            k1 = k0 * self._k1_factor % p
            pads.append((_pad(k0.to_bytes(width, "little"), self.count),
                         _pad(k1.to_bytes(width, "little"), self.count)))
            self.count += 1
        return pads

    def send_many(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """:meth:`send` for each pair, a window at a time: the window's
        random OTs, then one ``ot-e`` frame of its messages under their
        pads."""
        for part in windows(pairs, POOL_SIZE):
            pads = self._random_window(len(part))
            self.chan.send("ot-e", b"".join(
                ((m0 ^ x0).to_bytes(LABEL_BYTES, "little")
                 + (m1 ^ x1).to_bytes(LABEL_BYTES, "little"))
                for (m0, m1), (x0, x1) in zip(part, pads)))

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Progress marker for cycle-level checkpoints.  The private
        key rides along so a checkpoint restored by a *different*
        sender instance (serve-fleet session handoff: the adopting
        shard builds a fresh party) stays consistent with the ``A``
        the receiver cached at setup."""
        return {"setup_sent": self._setup_sent, "count": self.count,
                "a": self._a}

    def restore(self, snap: dict) -> None:
        self._setup_sent = snap["setup_sent"]
        self.count = snap["count"]
        a = snap.get("a")
        if a is not None and a != self._a:
            self._set_key(a)

    def rebind(self, chan: Endpoint) -> None:
        """Point at a fresh transport after a reconnect."""
        self.chan = chan


class OTReceiver:
    """Bob's side: learns ``m[choice]`` and nothing else."""

    def __init__(self, chan: Endpoint, group: str = "modp2048") -> None:
        self.p, self.g = GROUPS[group]
        self.group_bytes = (self.p.bit_length() + 7) // 8
        self.chan = chan
        self._g_table = _generator_table(group)
        self._big_a = None
        #: Fixed-base table of the sender's ``A`` (follows ``_big_a``).
        self._a_table: Optional[_Table] = None
        self.count = 0

    def _ensure_setup(self) -> None:
        if self._big_a is None:
            setup = check_blob(self.chan.recv("ot-setup"), self.group_bytes, "ot-setup")
            self._big_a = int.from_bytes(setup, "little")
            if not 1 < self._big_a < self.p:
                raise ValueError("OT sender sent an invalid group element")
        if self._a_table is None:
            self._a_table = _fixed_base_table(self._big_a, self.p)

    def receive(self, choice: int) -> int:
        """Receive the message selected by ``choice`` (0 or 1)."""
        return self.receive_many((choice,))[0]

    def receive_many(self, choices: Sequence[int]) -> List[int]:
        """:meth:`receive` for each choice, a window at a time (see
        :func:`windows`)."""
        return [m for part in windows(choices, POOL_SIZE)
                for m in self._receive_window(part)]

    def receive_random(self, choices: Sequence[int]) -> List[int]:
        """The pad ``x_c`` of one random OT per choice, a window at a
        time: one ``ot-b`` frame out per window, nothing in."""
        return [x for part in windows(choices, POOL_SIZE)
                for x in self._random_window(part)]

    def _random_window(self, choices: Sequence[int]) -> List[int]:
        self._ensure_setup()
        p, width = self.p, self.group_bytes
        exps = [_draw_exponent() for _ in choices]
        elems = []
        for b, choice in zip(exps, choices):
            big_b = _fixed_pow(self._g_table, b, p)
            if choice:
                big_b = big_b * self._big_a % p
            elems.append(big_b.to_bytes(width, "little"))
        self.chan.send("ot-b", b"".join(elems))
        # The pads are worked out while the sender computes its own.
        first, self.count = self.count, self.count + len(choices)
        return [_pad(_fixed_pow(self._a_table, b, p).to_bytes(width, "little"),
                     first + j)
                for j, b in enumerate(exps)]

    def _receive_window(self, choices: Sequence[int]) -> List[int]:
        pads = self._random_window(choices)
        halves = chosen_halves(self.chan.recv("ot-e"), choices, "ot-e")
        return [int.from_bytes(half, "little") ^ x for half, x in zip(halves, pads)]

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        return {"big_a": self._big_a, "count": self.count}

    def restore(self, snap: dict) -> None:
        if snap["big_a"] != self._big_a:
            self._big_a = snap["big_a"]
            self._a_table = None
        self.count = snap["count"]

    def rebind(self, chan: Endpoint) -> None:
        self.chan = chan
