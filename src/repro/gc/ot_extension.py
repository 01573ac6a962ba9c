"""IKNP oblivious-transfer extension (semi-honest).

Public-key OT costs two exponentiations per transferred bit; with a
garbled processor whose inputs can be thousands of bits, real protocols
use *OT extension*: :math:`\\kappa` base OTs (here the random DH OT
of :mod:`repro.gc.ot`) are stretched into arbitrarily many OTs using only
symmetric primitives [Ishai-Kilian-Nissim-Petrank].  This matches the
paper's stance that its underlying GC protocol inherits the standard
optimizations.

Protocol sketch (semi-honest IKNP, sender S, receiver R with choice
bits :math:`r`):

1. S picks :math:`s \\in \\{0,1\\}^{\\kappa}` and plays *receiver* in
   :math:`\\kappa` *random* base OTs with choices :math:`s_i`: R ends
   up with seed pairs :math:`(k_i^0, k_i^1)` and S with
   :math:`k_i^{s_i}`.  IKNP needs nothing of the seeds but that they
   are random, so they are the base OTs' pads and never cross the
   wire.
2. R expands both seeds into length-:math:`m` columns
   :math:`t_i = G(k_i^0)` and sends
   :math:`u_i = G(k_i^0) \\oplus G(k_i^1) \\oplus r`.
3. S forms columns :math:`q_i = G(k_i^{s_i}) \\oplus s_i u_i`; row
   :math:`j` then satisfies :math:`q_j = t_j \\oplus r_j s`.
4. For OT :math:`j` with messages :math:`(m_0, m_1)`: S sends
   :math:`y_b = m_b \\oplus H(j, q_j \\oplus b\\,s)`; R recovers
   :math:`m_{r_j} = y_{r_j} \\oplus H(j, t_j)`.

The pool produces *random* OTs which are derandomized per use (one
choice-correction bit from R, two masked messages from S) by
``send_many`` / ``receive_many``: the one transfer of Bob's input
labels the protocol backends use.  Derandomization is framed a window at a time
(:func:`repro.gc.ot.windows`): one ``otx-d`` frame packs the window's
correction bits, one ``otx-e`` frame carries its masked pairs; a pool
refill (``otx-u``) inside a window goes out before that window's
``otx-d``.  Both sides derive windows and refill points from the public
run length and their transfer counters, so no frame carries a count.
The kappa base OTs are R's ``ot-setup`` and S's one ``ot-b`` frame; R's
first ``otx-u`` follows directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .channel import Endpoint, check_blob
from .hashing import LABEL_BYTES, LABEL_MASK, hash_labels, kdf_bytes
from .ot import (
    POOL_SIZE,
    OTReceiver,
    OTSender,
    chosen_halves,
    pack_bits,
    unpack_bits,
    windows,
)

KAPPA = 128  #: security parameter / number of base OTs


def check_session_ot(ot: str) -> None:
    """The ``ot`` keyword the frozen benchmark still passes: it may only
    name IKNP extension (``"extension"``), the one session OT."""
    if ot != "extension":
        raise ValueError(f"unknown session OT {ot!r}: only 'extension' is left")


def session_salt(session_id: str) -> bytes:
    """PRG salt prefix binding an extension run to one session.

    Base-OT seeds may be reused across a client's sessions (semi-honest
    reuse is sound: the seeds never leave either party), but the PRG
    expansion must differ per session or the t/u columns — and hence
    the pool pads — would repeat verbatim.  Both parties derive the
    salt from the session id agreed in the serve handshake.  The ``:``
    keeps the namespace disjoint from the default ``b"iknp" + batch``
    salts, which are all-digit suffixed.
    """
    return b"iknp:" + session_id.encode("utf-8")


def _prg(seed: int, n_bits: int, salt: bytes) -> int:
    """Expand a seed into an ``n_bits`` column (as a big int)."""
    nbytes = (n_bits + 7) // 8
    data = kdf_bytes(seed.to_bytes(LABEL_BYTES, "little"), salt, nbytes)
    return int.from_bytes(data, "little") & ((1 << n_bits) - 1)


#: byte -> spread int lookup tables, keyed by column count (bit k of
#: the byte lands at bit ``k * ncols`` of the table entry).
_SPREAD_TABLES: Dict[int, List[int]] = {}


def _spread_table(ncols: int) -> List[int]:
    table = _SPREAD_TABLES.get(ncols)
    if table is None:
        table = []
        for byte in range(256):
            v = 0
            for k in range(8):
                if (byte >> k) & 1:
                    v |= 1 << (k * ncols)
            table.append(v)
        _SPREAD_TABLES[ncols] = table
    return table


def _transpose_columns(cols: List[int], n_rows: int) -> List[int]:
    """Columns (one int per column, bit j = row j) -> per-row ints.

    Byte-table block transpose: each column is split into bytes, and a
    256-entry table spreads byte bit ``k`` to bit ``k * ncols`` so one
    lookup places eight row-bits of a column at once.  A block of
    eight rows then accumulates as one big int and is sliced back into
    the per-row ints, replacing the per-bit O(kappa * m) loop.
    """
    ncols = len(cols)
    if ncols == 0 or n_rows == 0:
        return [0] * n_rows
    table = _spread_table(ncols)
    nbytes = (n_rows + 7) // 8
    col_mask = (1 << n_rows) - 1
    col_bytes = [(c & col_mask).to_bytes(nbytes, "little") for c in cols]
    row_mask = (1 << ncols) - 1
    rows: List[int] = []
    for b in range(nbytes):
        chunk = 0
        for i in range(ncols):
            y = col_bytes[i][b]
            if y:
                chunk |= table[y] << i
        for k in range(min(8, n_rows - 8 * b)):
            rows.append((chunk >> (k * ncols)) & row_mask)
    return rows


class OTExtensionSender:
    """Sender side: extends base OTs into a pool of random OTs."""

    def __init__(
        self, chan: Endpoint, pool_size: int = POOL_SIZE, group: str = "modp512",
        rng=None, base: Optional[Tuple[int, List[int]]] = None,
        salt: bytes = b"iknp",
    ) -> None:
        import secrets

        self.chan = chan
        self.pool_size = pool_size
        self._rng = rng
        rand = rng.getrandbits if rng else secrets.randbits
        self._base = OTReceiver(chan, group=group)
        self._pool: List[Tuple[int, int]] = []  # random (x0, x1) pairs
        self._salt = bytes(salt)
        if base is not None:
            # Reuse base material from an earlier session with the same
            # peer: (s, seeds).  The peer must agree (negotiated in the
            # serve handshake) and the salt must be session-unique.
            self._s, seeds = base
            self._seeds: Optional[List[int]] = list(seeds)
        else:
            self._s = rand(KAPPA)
            self._seeds = None
        self._batch = 0
        self.count = 0

    def _base_phase(self) -> None:
        """Run the kappa random base OTs (sender acts as base
        *receiver*): one ``ot-b`` frame out, and the pads are the seeds."""
        choices = [(self._s >> i) & 1 for i in range(KAPPA)]
        self._seeds = self._base.receive_random(choices)

    def export_base(self) -> Optional[Tuple[int, List[int]]]:
        """Base material for reuse, or ``None`` if no base phase ran."""
        if self._seeds is None:
            return None
        return (self._s, list(self._seeds))

    def _extend(self) -> None:
        if self._seeds is None:
            self._base_phase()
        m = self.pool_size
        col_bytes = (m + 7) // 8
        salt = self._salt + b"%d" % self._batch
        self._batch += 1
        # One fixed-width blob: KAPPA columns of (m+7)//8 bytes each.
        u_blob = check_blob(self.chan.recv("otx-u"), KAPPA * col_bytes, "otx-u")
        us = [
            int.from_bytes(u_blob[i * col_bytes : (i + 1) * col_bytes], "little")
            for i in range(KAPPA)
        ]
        cols = []
        for i in range(KAPPA):
            g = _prg(self._seeds[i], m, salt)
            if (self._s >> i) & 1:
                g ^= us[i]
            cols.append(g)
        rows = _transpose_columns(cols, m)
        # Tweak domain disjoint from the garbler's (which uses 2*gid
        # and 2*gid+1 below 2^62).  The whole pool hashes as one
        # batch — 2m points in one tight hash_labels sweep instead of
        # 2m point calls.
        t0 = (1 << 62) + self.count
        s = self._s
        h0 = hash_labels((q, t0 + j) for j, q in enumerate(rows))
        h1 = hash_labels((q ^ s, t0 + j) for j, q in enumerate(rows))
        self._pool = [
            (x0 & LABEL_MASK, x1 & LABEL_MASK) for x0, x1 in zip(h0, h1)
        ]

    def send(self, m0: int, m1: int) -> None:
        """One transfer: the per-OT probe of ``benchmarks/spine``."""
        self.send_many(((m0, m1),))

    def send_many(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Transfer one of each pair, a window at a time: the window's
        pool pads (refilling, ``otx-u`` in, where the receiver did), one
        packed ``otx-d`` frame in, one ``otx-e`` frame out."""
        for part in windows(pairs, self.pool_size):
            pads = []
            for _ in part:
                # The count advances with each pad so a refill's tweaks
                # line up with the receiver's.
                if not self._pool:
                    self._extend()
                pads.append(self._pool.pop())
                self.count += 1
            flips = unpack_bits(self.chan.recv("otx-d"), len(part), "otx-d")
            reply = []
            for (m0, m1), (x0, x1), d in zip(part, pads, flips):
                # Receiver knows x_c where c = b ^ d; align pads so that
                # e_b = m_b ^ x_{b^d}.
                if d:
                    x0, x1 = x1, x0
                reply += (((m0 ^ x0) & LABEL_MASK).to_bytes(LABEL_BYTES, "little"),
                          ((m1 ^ x1) & LABEL_MASK).to_bytes(LABEL_BYTES, "little"))
            self.chan.send("otx-e", b"".join(reply))

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the extension progress (pool, batch, counters).
        ``s`` (the column-choice secret) rides along so a checkpoint
        restored into a fresh sender instance — serve-fleet session
        handoff — extends against the receiver's original base view."""
        return {
            "seeds": None if self._seeds is None else list(self._seeds),
            "pool": list(self._pool),
            "batch": self._batch,
            "count": self.count,
            "base": self._base.snapshot(),
            "s": self._s,
        }

    def restore(self, snap: dict) -> None:
        self._seeds = None if snap["seeds"] is None else list(snap["seeds"])
        self._pool = list(snap["pool"])
        self._batch = snap["batch"]
        self.count = snap["count"]
        self._base.restore(snap["base"])
        s = snap.get("s")
        if s is not None:
            self._s = s

    def rebind(self, chan) -> None:
        self.chan = chan
        self._base.rebind(chan)


class OTExtensionReceiver:
    """Receiver side of the IKNP extension."""

    def __init__(
        self, chan: Endpoint, pool_size: int = POOL_SIZE, group: str = "modp512",
        rng=None, base: Optional[List[Tuple[int, int]]] = None,
        salt: bytes = b"iknp",
    ) -> None:
        import secrets

        self.chan = chan
        self.pool_size = pool_size
        self._rand = rng.getrandbits if rng else secrets.randbits
        self._base = OTSender(chan, group=group)
        self._seed_pairs: Optional[List[Tuple[int, int]]] = (
            None if base is None else [tuple(p) for p in base]
        )
        self._pool: List[Tuple[int, int]] = []  # (choice bit c, x_c)
        self._salt = bytes(salt)
        self._batch = 0
        self.count = 0

    def _base_phase(self) -> None:
        """The kappa random base OTs (receiver acts as base *sender*):
        one ``ot-b`` frame in, and the pad pairs are the seed pairs."""
        self._seed_pairs = self._base.send_random(KAPPA)

    def export_base(self) -> Optional[List[Tuple[int, int]]]:
        """Base material for reuse, or ``None`` if no base phase ran."""
        if self._seed_pairs is None:
            return None
        return [tuple(p) for p in self._seed_pairs]

    def _extend(self) -> None:
        if self._seed_pairs is None:
            self._base_phase()
        m = self.pool_size
        salt = self._salt + b"%d" % self._batch
        self._batch += 1
        r = self._rand(m)  # random choice bits for the pool
        col_bytes = (m + 7) // 8
        t_cols = []
        u_parts = []
        for k0, k1 in self._seed_pairs:
            t = _prg(k0, m, salt)
            u = t ^ _prg(k1, m, salt) ^ r
            t_cols.append(t)
            u_parts.append(u.to_bytes(col_bytes, "little"))
        self.chan.send("otx-u", b"".join(u_parts))
        rows = _transpose_columns(t_cols, m)
        # Same batching as the sender: the pool's m points hash in one
        # hash_labels sweep.
        t0 = (1 << 62) + self.count
        hs = hash_labels((t, t0 + j) for j, t in enumerate(rows))
        self._pool = [
            ((r >> j) & 1, h & LABEL_MASK) for j, h in enumerate(hs)
        ]

    def receive(self, choice: int) -> int:
        """One transfer: the per-OT probe of ``benchmarks/spine``."""
        return self.receive_many((choice,))[0]

    def receive_many(self, choices: Sequence[int]) -> List[int]:
        """The message each choice selects, a pool window at a time
        (:func:`repro.gc.ot.windows`)."""
        return [m for part in windows(choices, self.pool_size)
                for m in self._receive_window(part)]

    def _receive_window(self, choices: Sequence[int]) -> List[int]:
        flips, pads = [], []
        for choice in choices:
            # A refill (and the first one's base phase) happens here, at
            # the transfer that empties the pool, exactly where the
            # sender refills.
            if not self._pool:
                self._extend()
            c, xc = self._pool.pop()
            flips.append((choice ^ c) & 1)
            pads.append(xc)
            self.count += 1
        self.chan.send("otx-d", pack_bits(flips))
        halves = chosen_halves(self.chan.recv("otx-e"), choices, "otx-e")
        return [(int.from_bytes(half, "little") ^ xc) & LABEL_MASK
                for half, xc in zip(halves, pads)]

    # -- resume hooks --------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "seed_pairs": (
                None if self._seed_pairs is None else list(self._seed_pairs)
            ),
            "pool": list(self._pool),
            "batch": self._batch,
            "count": self.count,
            "base": self._base.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        self._seed_pairs = (
            None if snap["seed_pairs"] is None else list(snap["seed_pairs"])
        )
        self._pool = list(snap["pool"])
        self._batch = snap["batch"]
        self.count = snap["count"]
        self._base.restore(snap["base"])

    def rebind(self, chan) -> None:
        self.chan = chan
        self._base.rebind(chan)
