"""1-out-of-2 Oblivious Transfer (Section 2.2).

Implements the "simplest OT" of Chou-Orlandi style Diffie-Hellman OT
over a multiplicative prime group: Alice (sender) holds two 16-byte
messages, Bob (receiver) holds a choice bit and learns exactly the
chosen message; Alice learns nothing about the choice.

Two parameter sets are provided:

* ``modp2048`` — the RFC 3526 group 14 safe prime, a realistic setting;
* ``modp512``  — a 508-bit *composite* test modulus (not secure), the
  default everywhere because it keeps test and benchmark runs short.

Both parties draw 256-bit exponents (DESIGN.md §8 has the argument).
The sender pays one modular exponentiation per transfer:
``k1 = (B/A)^a = B^a * (A^a)^-1`` and ``(A^a)^-1`` is fixed for the
sender's lifetime.  The receiver pays none: ``g^b`` and ``A^b`` have
fixed bases, so a 4-bit windowed table per base turns each into 64
modular multiplications.

The transfer of Bob's GC input labels (Algorithms 1-2 lines 3-4) runs
one OT per input bit; a receiver given a run of choices
(``receive_many``) sends its choice messages a window ahead of the
replies instead of waiting one round trip per bit.  Group elements
cross the channel as **fixed-width** little-endian byte strings (the
group size in bytes), so communication totals are deterministic and
independent of the random element values.

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

from .channel import Endpoint
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


#: Transfers a receiver runs ahead of the sender's replies, and the
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


def pipelined(choices: Sequence[int], window: int, send_choice, read_reply) -> list:
    """Run a receiver's transfers a window at a time: ``send_choice``
    for every choice of the window, then ``read_reply(choice, sent)``
    (``sent``: what ``send_choice`` returned) for each, in order.

    Both directions carry the same messages in the same order as one
    transfer at a time; only their interleaving changes.  The window
    bounds the sender's replies in flight (a few dozen bytes each), so
    they always fit the socket buffers and a TCP pair cannot deadlock
    with both ends blocked writing.
    """
    out: list = []
    for lo in range(0, len(choices), window):
        part = choices[lo : lo + window]
        out += map(read_reply, part, [send_choice(c) for c in part])
    return out


def _pad(key: bytes, index: int) -> int:
    return int.from_bytes(
        kdf_bytes(key, b"ot-msg%d" % index, LABEL_BYTES), "little"
    )


def _encrypt(key: bytes, message: int, index: int) -> bytes:
    return (message ^ _pad(key, index)).to_bytes(LABEL_BYTES, "little")


def _decrypt(key: bytes, blob: bytes, index: int) -> int:
    if len(blob) != LABEL_BYTES:
        raise ValueError("OT sender sent a malformed ciphertext")
    return int.from_bytes(blob, "little") ^ _pad(key, index)


class BaseOTCache:
    """Thread-safe per-identity store of OT-extension base material.

    The :math:`\\kappa` public-key base OTs are the dominant fixed cost
    of an OT-extension session.  Semi-honestly, the base *seeds* may be
    reused across sessions between the same two parties (they never
    cross the wire again); only the PRG expansion must be
    session-unique (see :func:`repro.gc.ot_extension.session_salt`).
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
        self._ensure_setup()
        big_b = int.from_bytes(self.chan.recv("ot-b"), "little")
        if not 1 < big_b < self.p:
            raise ValueError("OT receiver sent an invalid group element")
        group_bytes = self.group_bytes
        k0 = pow(big_b, self._a, self.p)
        k1 = k0 * self._k1_factor % self.p
        e0 = _encrypt(k0.to_bytes(group_bytes, "little"), m0, self.count)
        e1 = _encrypt(k1.to_bytes(group_bytes, "little"), m1, self.count)
        self.chan.send("ot-e", (e0, e1))
        self.count += 1

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
            self._big_a = int.from_bytes(self.chan.recv("ot-setup"), "little")
            if not 1 < self._big_a < self.p:
                raise ValueError("OT sender sent an invalid group element")
        if self._a_table is None:
            self._a_table = _fixed_base_table(self._big_a, self.p)

    def receive(self, choice: int) -> int:
        """Receive the message selected by ``choice`` (0 or 1)."""
        return self.receive_many((choice,))[0]

    def receive_many(self, choices: Sequence[int]) -> List[int]:
        """:meth:`receive` for each choice, pipelined (:func:`pipelined`)."""
        return pipelined(choices, POOL_SIZE, self._send_choice, self._read_reply)

    def _send_choice(self, choice: int) -> Tuple[int, bytes]:
        self._ensure_setup()
        b = _draw_exponent()
        big_b = _fixed_pow(self._g_table, b, self.p)
        if choice:
            big_b = big_b * self._big_a % self.p
        group_bytes = self.group_bytes
        self.chan.send("ot-b", big_b.to_bytes(group_bytes, "little"))
        self.count += 1
        key = _fixed_pow(self._a_table, b, self.p).to_bytes(group_bytes, "little")
        return self.count - 1, key

    def _read_reply(self, choice: int, sent: Tuple[int, bytes]) -> int:
        index, key = sent
        e0, e1 = self.chan.recv("ot-e")
        return _decrypt(key, e1 if choice else e0, index)

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
