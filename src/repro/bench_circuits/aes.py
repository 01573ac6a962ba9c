"""AES-128 (with key expansion) as a sequential garbled circuit.

One AES round per clock cycle, 10 cycles, with the round keys computed
on the fly — the "missing key expansion module" the paper adds to the
TinyGarble AES benchmark (footnote to Tables 1-2).

The only non-linear element of AES is the S-box.  :func:`sbox_circuit`
is the 115-gate straight-line program of Boyar and Peralta ("A new
combinational logic minimization technique with applications to
cryptology", SEA 2010): 32 ANDs and 83 XOR/XNORs, kept below as one
table.  ShiftRows, MixColumns, AddRoundKey and the round constants are
GF(2)-linear and therefore free under free-XOR.  The cost is 20
S-boxes x 32 ANDs x 10 rounds = 6,400 garbled non-XOR gates, the
paper's figure.

:func:`sbox_reference` is the textbook S-box (GF(2^8) inversion, then
the affine map), independent of the table, and
:func:`aes128_reference` builds on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from ..circuit.builder import CircuitBuilder
from ..circuit.netlist import InitSpec, Netlist

ROUNDS = 10


def aes_mul(a: int, b: int) -> int:
    """GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    r = 0
    for _ in range(8):
        if b & 1:
            r ^= a
        b >>= 1
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
    return r


@lru_cache(maxsize=None)
def sbox_reference(x: int) -> int:
    """The AES S-box by its definition (FIPS-197 §5.1.1): the GF(2^8)
    inverse ``x^254`` (0 maps to 0), then the affine map
    ``v ^ rotl(v, 1) ^ rotl(v, 2) ^ rotl(v, 3) ^ rotl(v, 4) ^ 0x63``."""
    v = 1
    for _ in range(254):
        v = aes_mul(v, x)
    out = 0x63
    for k in range(5):
        out ^= ((v << k) | (v >> (8 - k))) & 0xFF
    return out


#: The Boyar–Peralta S-box, one gate per row in evaluation order.
#: ``U0..U7`` are the input bits and ``S0..S7`` the output bits, both
#: MSB first (``U0`` is bit 7 of the byte).  Rows 1-23 are the top
#: linear layer, rows 24-85 the non-linear core (all 32 ANDs), rows
#: 86-115 the bottom linear layer.
SBOX_PROGRAM = """
y14 = U3 ^ U5
y13 = U0 ^ U6
y9 = U0 ^ U3
y8 = U0 ^ U5
t0 = U1 ^ U2
y1 = t0 ^ U7
y4 = y1 ^ U3
y12 = y13 ^ y14
y2 = y1 ^ U0
y5 = y1 ^ U6
y3 = y5 ^ y8
t1 = U4 ^ y12
y15 = t1 ^ U5
y20 = t1 ^ U1
y6 = y15 ^ U7
y10 = y15 ^ t0
y11 = y20 ^ y9
y7 = U7 ^ y11
y17 = y10 ^ y11
y19 = y10 ^ y8
y16 = t0 ^ y11
y21 = y13 ^ y16
y18 = U0 ^ y16
t2 = y12 & y15
t3 = y3 & y6
t4 = t3 ^ t2
t5 = y4 & U7
t6 = t5 ^ t2
t7 = y13 & y16
t8 = y5 & y1
t9 = t8 ^ t7
t10 = y2 & y7
t11 = t10 ^ t7
t12 = y9 & y11
t13 = y14 & y17
t14 = t13 ^ t12
t15 = y8 & y10
t16 = t15 ^ t12
t17 = t4 ^ t14
t18 = t6 ^ t16
t19 = t9 ^ t14
t20 = t11 ^ t16
t21 = t17 ^ y20
t22 = t18 ^ y19
t23 = t19 ^ y21
t24 = t20 ^ y18
t25 = t21 ^ t22
t26 = t21 & t23
t27 = t24 ^ t26
t28 = t25 & t27
t29 = t28 ^ t22
t30 = t23 ^ t24
t31 = t22 ^ t26
t32 = t31 & t30
t33 = t32 ^ t24
t34 = t23 ^ t33
t35 = t27 ^ t33
t36 = t24 & t35
t37 = t36 ^ t34
t38 = t27 ^ t36
t39 = t29 & t38
t40 = t25 ^ t39
t41 = t40 ^ t37
t42 = t29 ^ t33
t43 = t29 ^ t40
t44 = t33 ^ t37
t45 = t42 ^ t41
z0 = t44 & y15
z1 = t37 & y6
z2 = t33 & U7
z3 = t43 & y16
z4 = t40 & y1
z5 = t29 & y7
z6 = t42 & y11
z7 = t45 & y17
z8 = t41 & y10
z9 = t44 & y12
z10 = t37 & y3
z11 = t33 & y4
z12 = t43 & y13
z13 = t40 & y5
z14 = t29 & y2
z15 = t42 & y9
z16 = t45 & y14
z17 = t41 & y8
t46 = z15 ^ z16
t47 = z10 ^ z11
t48 = z5 ^ z13
t49 = z9 ^ z10
t50 = z2 ^ z12
t51 = z2 ^ z5
t52 = z7 ^ z8
t53 = z0 ^ z3
t54 = z6 ^ z7
t55 = z16 ^ z17
t56 = z12 ^ t48
t57 = t50 ^ t53
t58 = z4 ^ t46
t59 = z3 ^ t54
t60 = t46 ^ t57
t61 = z14 ^ t57
t62 = t52 ^ t58
t63 = t49 ^ t58
t64 = z4 ^ t59
t65 = t61 ^ t62
t66 = z1 ^ t63
S0 = t59 ^ t63
S6 = t56 xnor t62
S7 = t48 xnor t60
t67 = t64 ^ t65
S3 = t53 ^ t66
S4 = t51 ^ t66
S5 = t47 ^ t65
S1 = t64 xnor S3
S2 = t55 xnor t67
"""


def sbox_circuit(b: CircuitBuilder, bits: Sequence[int]) -> List[int]:
    """AES S-box over 8 wires (LSB first): 32 garbled ANDs, the rest free."""
    gates = {"^": b.xor_, "&": b.and_, "xnor": b.xnor}
    wire = {f"U{7 - i}": w for i, w in enumerate(bits)}
    for row in SBOX_PROGRAM.strip().splitlines():
        dst, _, x, op, y = row.split()
        wire[dst] = gates[op](wire[x], wire[y])
    return [wire[f"S{7 - i}"] for i in range(8)]


def _mix_single_column(b: CircuitBuilder, col: List[List[int]]) -> List[List[int]]:
    """MixColumns on one 4-byte column (bytes as 8-wire lists); free."""

    def xtime(byte):
        # multiply by x: shift + conditional 0x1b, all linear
        out = [b.const(0)] * 8
        for i in range(7):
            out[i + 1] = byte[i]
        msb = byte[7]
        # xor 0x1b = bits 0,1,3,4
        out[0] = msb
        out[1] = b.xor_(out[1], msb)
        out[3] = b.xor_(out[3], msb)
        out[4] = b.xor_(out[4], msb)
        return out

    def xor_b(x, y):
        return [b.xor_(i, j) for i, j in zip(x, y)]

    a0, a1, a2, a3 = col
    t = xor_b(xor_b(a0, a1), xor_b(a2, a3))
    out = []
    for i in range(4):
        ai = col[i]
        ai1 = col[(i + 1) % 4]
        out.append(xor_b(xor_b(ai, t), xtime(xor_b(ai, ai1))))
    return out


#: AES key-schedule round constants.
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def aes128_sequential() -> Tuple[Netlist, int]:
    """Build the sequential AES-128 circuit (one round per cycle).

    Alice's init vector holds the 128-bit key, Bob's the 128-bit
    plaintext (LSB-first within each byte, bytes in AES order).  The
    output is the 128-bit ciphertext.  Runs for 10 cycles.
    """
    b = CircuitBuilder("aes128_seq")

    key = [[b.dff(init=InitSpec("alice", 8 * byte + i)) for i in range(8)]
           for byte in range(16)]
    # State registers start at plaintext; the round-0 AddRoundKey is
    # applied inside cycle 1 (public counter select, free).
    state = [[b.dff(init=InitSpec("bob", 8 * byte + i)) for i in range(8)]
             for byte in range(16)]

    from ..circuit import modules as M
    from ..circuit.macros import Rom, const_words

    counter = b.dff_bus(4, 0)
    b.drive_dff_bus(counter, M.increment(b, counter))
    is_first = M.is_zero(b, counter)
    is_last = M.equals(b, counter, b.const_bus(ROUNDS - 1, 4))
    rcon_rom = b.net.add_macro(Rom("rcon", 8, const_words(RCON, 8)))
    rcon = rcon_rom.read(b, counter)

    def xor_bytes(x, y):
        return [b.xor_(i, j) for i, j in zip(x, y)]

    # Key schedule: one round per cycle.  words are 4 bytes each.
    kwords = [key[4 * w: 4 * w + 4] for w in range(4)]
    rot = [kwords[3][1], kwords[3][2], kwords[3][3], kwords[3][0]]
    subbed = [sbox_circuit(b, byte) for byte in rot]
    subbed[0] = [
        b.xor_(w, r) for w, r in zip(subbed[0], rcon)
    ]
    new_words = []
    prev = [xor_bytes(kwords[0][i], subbed[i]) for i in range(4)]
    new_words.append(prev)
    for w in range(1, 4):
        prev = [xor_bytes(kwords[w][i], prev[i]) for i in range(4)]
        new_words.append(prev)
    new_key = [byte for word in new_words for byte in word]

    # Round datapath.
    pre = [
        b.mux_bus_kill(is_first, state[i], xor_bytes(state[i], key[i]))
        for i in range(16)
    ]
    sub = [sbox_circuit(b, byte) for byte in pre]
    # ShiftRows: with column-major state (index = 4*col + row), the
    # byte at (row, col) comes from (row, col + row).
    shifted = [None] * 16
    for col in range(4):
        for row in range(4):
            shifted[4 * col + row] = sub[4 * ((col + row) % 4) + row]
    mixed: List[List[int]] = []
    for col in range(4):
        mixed.extend(_mix_single_column(b, shifted[4 * col: 4 * col + 4]))
    after_mc = [
        b.mux_bus_kill(is_last, mixed[i], shifted[i]) for i in range(16)
    ]
    new_state = [xor_bytes(after_mc[i], new_key[i]) for i in range(16)]

    for i in range(16):
        b.drive_dff_bus(state[i], new_state[i])
        b.drive_dff_bus(key[i], new_key[i])

    b.set_outputs([w for byte in state for w in byte])
    return b.build(), ROUNDS


def aes128_reference(key: bytes, pt: bytes) -> bytes:
    """Reference AES-128 encryption (validated against test vectors)."""
    rk = [list(key)]
    for rnd in range(10):
        prev = rk[-1]
        word = [sbox_reference(x) for x in prev[13:16] + prev[12:13]]
        word[0] ^= RCON[rnd]
        new = []
        for i in range(4):
            w = [prev[4 * i + j] ^ word[j] for j in range(4)] if i == 0 else [
                prev[4 * i + j] ^ new[-1][j] for j in range(4)
            ]
            new.append(w)
            word = w
        rk.append([x for w in new for x in w])

    state = [p ^ k for p, k in zip(pt, rk[0])]
    for rnd in range(1, 11):
        state = [sbox_reference(x) for x in state]
        # ShiftRows (column-major state).
        shifted = [0] * 16
        for col in range(4):
            for row in range(4):
                shifted[4 * col + row] = state[4 * ((col + row) % 4) + row]
        state = shifted
        if rnd != 10:
            mixed = []
            for col in range(4):
                a = state[4 * col: 4 * col + 4]
                t = a[0] ^ a[1] ^ a[2] ^ a[3]
                mixed.extend(
                    a[i] ^ t ^ aes_mul(a[i] ^ a[(i + 1) % 4], 2)
                    for i in range(4)
                )
            state = mixed
        state = [s ^ k for s, k in zip(state, rk[rnd])]
    return bytes(state)
