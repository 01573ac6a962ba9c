"""Source text of the benchmark programs (C, some generated; two asm).

Where the paper's flow would rely on gcc idiom recognition that our
mini-C front end does not implement — multi-precision carry chains
(``ADC``/``SBC``) — the programs are written directly in assembly, as
noted per function.  Unrolled code (Keccak rho rotations, CORDIC
iteration shifts, the bitsliced AES S-box) is *generated* here because
the ISA has no register-specified shifts.

A small utility, :func:`netlist_to_c`, compiles any combinational
netlist from the circuit library into straight-line C — used to emit
the tower-field AES S-box as word-parallel (bitsliced) C code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..circuit import gates as G
from ..circuit.builder import CircuitBuilder

M32 = 0xFFFFFFFF


# -- netlist -> C -------------------------------------------------------------


_C_OPS = {
    G.GateType.AND: "({a} & {b})",
    G.GateType.OR: "({a} | {b})",
    G.GateType.XOR: "({a} ^ {b})",
    G.GateType.NAND: "(~({a} & {b}))",
    G.GateType.NOR: "(~({a} | {b}))",
    G.GateType.XNOR: "(~({a} ^ {b}))",
    G.GateType.ANDNB: "({a} & ~{b})",
    G.GateType.ANDNA: "(~{a} & {b})",
    G.GateType.ORNB: "({a} | ~{b})",
    G.GateType.ORNA: "(~{a} | {b})",
}


def netlist_to_c(
    net,
    input_exprs: Sequence[str],
    out_prefix: str = "o",
    indent: str = "    ",
) -> str:
    """Emit straight-line C computing a combinational netlist.

    ``input_exprs[i]`` is the C expression for input wire ``i`` (in
    ``net.inputs`` order across all roles).  The result defines
    ``{out_prefix}0 .. {out_prefix}{n-1}``.  Word-parallel: applied to
    packed words it computes the circuit bitwise on every lane
    (bitslicing).
    """
    wire_expr: Dict[int, str] = {0: "0", 1: "(~0)"}
    ordered_inputs = (
        list(net.inputs["alice"]) + list(net.inputs["bob"])
        + list(net.inputs["public"])
    )
    if len(input_exprs) != len(ordered_inputs):
        raise ValueError("input expression arity mismatch")
    for w, expr in zip(ordered_inputs, input_exprs):
        wire_expr[w] = expr
    lines: List[str] = []
    tmp = 0
    for gi in net.schedule:
        tt = net.gate_tt[gi]
        a = wire_expr[net.gate_a[gi]]
        b = wire_expr[net.gate_b[gi]]
        if tt not in _C_OPS:
            raise ValueError(f"gate {G.gate_name(tt)} not supported in C emit")
        name = f"t{tmp}"
        tmp += 1
        lines.append(f"{indent}int {name} = {_C_OPS[tt].format(a=a, b=b)};")
        wire_expr[net.gate_out[gi]] = name
    for i, w in enumerate(net.outputs):
        lines.append(f"{indent}{out_prefix}[{i}] = {wire_expr[w]};")
    return "\n".join(lines)


# -- simple benchmarks ---------------------------------------------------------


def sum_c() -> str:
    """c[0] = a[0] + b[0] — the paper's Sum 32 (31 garbled gates)."""
    return """
void gc_main(const int *a, const int *b, int *c) {
    c[0] = a[0] + b[0];
}
"""


def mult_c() -> str:
    """c[0] = a[0] * b[0] — Mult 32 (993 garbled gates)."""
    return """
void gc_main(const int *a, const int *b, int *c) {
    c[0] = a[0] * b[0];
}
"""


def compare_c() -> str:
    """c[0] = a[0] < b[0] (unsigned millionaires' problem).

    The values are compared as unsigned by flipping the sign bits
    (our comparison operators are signed).
    """
    return """
void gc_main(const int *a, const int *b, int *c) {
    int x = a[0] ^ 0x80000000;
    int y = b[0] ^ 0x80000000;
    c[0] = x < y;
}
"""


def hamming_c(words: int) -> str:
    """Hamming distance of two ``32*words``-bit strings.

    Fully masked SWAR popcount (the tree method of [11] in word-level
    C): every add operates on packed fields whose separating bits are
    *publicly zero*, so SkipGate narrows each carry chain to the live
    field bits.  One 32-bit word costs exactly 57 garbled gates — the
    paper's Hamming 32 number.
    """
    return f"""
void gc_main(const int *a, const int *b, int *c) {{
    int total = 0;
    for (int i = 0; i < {words}; i++) {{
        int v = a[i] ^ b[i];
        v = (v & 0x55555555) + ((v >> 1) & 0x55555555);
        v = (v & 0x33333333) + ((v >> 2) & 0x33333333);
        v = (v & 0x0F0F0F0F) + ((v >> 4) & 0x0F0F0F0F);
        v = (v & 0x00FF00FF) + ((v >> 8) & 0x00FF00FF);
        v = (v & 0xFFFF) + (v >> 16);
        total = total + v;
    }}
    c[0] = total;
}}
"""


def matmult_c(n: int) -> str:
    """n x n 32-bit matrix product (row-major operands)."""
    return f"""
void gc_main(const int *a, const int *b, int *c) {{
    for (int i = 0; i < {n}; i++) {{
        for (int j = 0; j < {n}; j++) {{
            int acc = 0;
            for (int k = 0; k < {n}; k++) {{
                acc = acc + a[i * {n} + k] * b[k * {n} + j];
            }}
            c[i * {n} + j] = acc;
        }}
    }}
}}
"""


def sum_big_asm(words: int) -> str:
    """Multi-precision addition via an ADC chain (assembly).

    gcc recognizes bignum addition loops and emits ADC chains; our
    mini-C front end does not, so the Sum 1024 benchmark is assembly.
    Cost: one 32-gate carry chain per word = 1,024 gates for 32 words,
    with the first carry-in public -> 1,023 (Table 2's exact number).
    """
    lines = [
        "    MOV r0, #0x1000",
        "    MOV r1, #0x2000",
        "    MOV r2, #0x3000",
        "    LDR r3, [r0, #0]",
        "    LDR r4, [r1, #0]",
        "    ADDS r5, r3, r4",
        "    STR r5, [r2, #0]",
    ]
    for i in range(1, words):
        lines += [
            f"    LDR r3, [r0, #{4 * i}]",
            f"    LDR r4, [r1, #{4 * i}]",
            "    ADCS r5, r3, r4",
            f"    STR r5, [r2, #{4 * i}]",
        ]
    lines.append("    HALT")
    # our assembler spells ADC-with-flags "ADCS"
    return "\n".join(lines) + "\n"


def compare_big_asm(words: int) -> str:
    """Multi-precision unsigned comparison via an SBC chain (assembly).

    ``a < b`` == borrow of ``a - b``: SUBS on the low words then SBCS
    upward; the final carry is 0 exactly when a < b.  One 32-gate
    carry chain per word: 16,384 gates for 512 words (Table 2).
    Fully unrolled: a loop-control CMP would clobber the borrow chain.
    """
    lines = [
        "    MOV r0, #0x1000",
        "    MOV r1, #0x2000",
        "    LDR r3, [r0, #0]",
        "    LDR r4, [r1, #0]",
        "    SUBS r5, r3, r4",
    ]
    for i in range(1, words):
        off = 4 * i
        lines += [
            f"    LDR r3, [r0, #{off}]",
            f"    LDR r4, [r1, #{off}]",
            "    SBCS r5, r3, r4",
        ]
    lines += [
        "    MOV r7, #0",
        "    MOVCC r7, #1        ; borrow -> a < b",
        "    MOV r0, #0x3000",
        "    STR r7, [r0, #0]",
        "    HALT",
    ]
    return "\n".join(lines) + "\n"


def bubble_sort_c(n: int) -> str:
    """Bubble sort of ``n`` XOR-shared words (Table 5).

    The compare-and-swap body is if-converted: each swap costs one
    CMP plus two conditional stores — the ~132 gates per
    compare-exchange behind the paper's 65,472 total.  The values are
    compared as unsigned.
    """
    return f"""
void gc_main(const int *a, const int *b, int *c) {{
    int x[{n}];
    for (int i = 0; i < {n}; i++) {{
        x[i] = (a[i] ^ b[i]) ^ 0x80000000;
    }}
    for (int i = 0; i < {n - 1}; i++) {{
        for (int j = 0; j < {n - 1} - i; j++) {{
            int u = x[j];
            int v = x[j + 1];
            if (v < u) {{
                x[j] = v;
                x[j + 1] = u;
            }}
        }}
    }}
    for (int i = 0; i < {n}; i++) {{
        c[i] = x[i] ^ 0x80000000;
    }}
}}
"""


def merge_sort_c(n: int) -> str:
    """Bottom-up merge sort of ``n`` XOR-shared words (Table 5).

    The merge step's read indices depend on secret comparisons, so the
    loads become oblivious subset scans (Section 4.4) — the reason the
    paper's Merge-Sort costs ~8x its Bubble-Sort despite the better
    asymptotics.  Indices are updated with predicated code to keep the
    program counter public; each merge pass runs a fixed number of
    steps.
    """
    return f"""
void gc_main(const int *a, const int *b, int *c) {{
    int x[{n}];
    int y[{n}];
    for (int i = 0; i < {n}; i++) {{
        x[i] = (a[i] ^ b[i]) ^ 0x80000000;
    }}
    for (int width = 1; width < {n}; width = width << 1) {{
        for (int lo = 0; lo < {n}; lo = lo + (width << 1)) {{
            int mid = lo + width;
            int hi = mid + width;
            int i = lo;
            int j = mid;
            for (int k = lo; k < hi; k++) {{
                int xi = x[i];
                int xj = x[j];
                int take_i = 0;
                if (j >= hi) {{ take_i = 1; }}
                if (j < hi && i < mid && xi <= xj) {{ take_i = 1; }}
                y[k] = take_i ? xi : xj;
                i = i + take_i;
                j = j + (1 - take_i);
            }}
        }}
        for (int k = 0; k < {n}; k++) {{
            x[k] = y[k];
        }}
    }}
    for (int i = 0; i < {n}; i++) {{
        c[i] = x[i] ^ 0x80000000;
    }}
}}
"""


def dijkstra_c(n: int) -> str:
    """Dijkstra over an ``n``-node graph, XOR-shared weight matrix.

    The adjacency matrix has ``n*n = 64`` 32-bit weights (0 = no
    edge), matching the paper's "64 weighted edges" instance.  The
    min-selection and relaxation are fully predicated scans: the
    control flow is public, every comparison is secret.
    """
    inf = 0x3FFFFFFF
    return f"""
void gc_main(const int *a, const int *b, int *c) {{
    int dist[{n}];
    int visited[{n}];
    int w[{n * n}];
    for (int i = 0; i < {n * n}; i++) {{
        w[i] = a[i] ^ b[i];
    }}
    for (int i = 0; i < {n}; i++) {{
        dist[i] = {inf};
        visited[i] = 0;
    }}
    dist[0] = 0;
    for (int round = 0; round < {n}; round++) {{
        int best = {inf + 1};
        int u = 0;
        for (int i = 0; i < {n}; i++) {{
            int di = dist[i];
            if (visited[i] == 0 && di < best) {{
                best = di;
                u = i;
            }}
        }}
        visited[u] = 1;
        int du = dist[u];
        for (int v = 0; v < {n}; v++) {{
            int wv = w[u * {n} + v];
            int alt = du + wv;
            int dv = dist[v];
            if (wv != 0 && alt < dv) {{
                dist[v] = alt;
            }}
        }}
    }}
    for (int i = 0; i < {n}; i++) {{
        c[i] = dist[i];
    }}
}}
"""


def cordic_c() -> str:
    """Universal CORDIC, rotation mode, circular system (Table 5).

    32 unrolled iterations (the ISA has no variable shifts); arctangent
    constants are Q2.30 fixed point.  The direction decision is the
    secret sign of z; each update is an if-converted add/subtract.
    Matches ``repro.bench_circuits.cordic.cordic_reference`` bit for
    bit (asr() implements the arithmetic shift our ``>>`` does not).
    """
    from ..bench_circuits.cordic import _alpha_table

    alphas = _alpha_table("circular")
    lines = [
        "void gc_main(const int *a, const int *b, int *c) {",
        "    int x = a[0] ^ b[0];",
        "    int y = a[1] ^ b[1];",
        "    int z = a[2] ^ b[2];",
    ]
    for i in range(32):
        lines += [
            # arithmetic shift right by i: logical shift + sign fill
            f"    int sx{i} = 0 - ((x >> 31) & 1);",
            f"    int sy{i} = 0 - ((y >> 31) & 1);",
            f"    int xsh{i} = (x >> {i}) | (sx{i} << {32 - i});"
            if i else f"    int xsh{i} = x;",
            f"    int ysh{i} = (y >> {i}) | (sy{i} << {32 - i});"
            if i else f"    int ysh{i} = y;",
            f"    int neg{i} = (z >> 31) & 1;",
            f"    int nx{i} = neg{i} ? x + ysh{i} : x - ysh{i};",
            f"    int ny{i} = neg{i} ? y - xsh{i} : y + xsh{i};",
            f"    int nz{i} = neg{i} ? z + {alphas[i]} : z - {alphas[i]};",
            f"    x = nx{i};",
            f"    y = ny{i};",
            f"    z = nz{i};",
        ]
    lines += [
        "    c[0] = x;",
        "    c[1] = y;",
        "    c[2] = z;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def sha3_c() -> str:
    """SHA3-256 of a 512-bit XOR-shared message, generated C.

    One-block sponge: the 1600-bit state is 50 ints (lo/hi per lane).
    The 24-round loop body is generated with the rho rotations
    unrolled (no variable shifts in the ISA).  theta/rho/pi/iota are
    free under free-XOR; chi's ANDs are the entire garbling cost.
    """
    from ..bench_circuits.sha3 import RC, ROT

    def rotl64(hi: str, lo: str, r: int):
        """(new_hi, new_lo) C expressions for a 64-bit rotl by r."""
        r %= 64
        if r == 0:
            return hi, lo
        if r == 32:
            return lo, hi
        if r < 32:
            nh = f"(({hi} << {r}) | (({lo} >> {32 - r}) & {(1 << r) - 1}))"
            nl = f"(({lo} << {r}) | (({hi} >> {32 - r}) & {(1 << r) - 1}))"
            return nh, nl
        rr = r - 32
        nh = f"(({lo} << {rr}) | (({hi} >> {32 - rr}) & {(1 << rr) - 1}))"
        nl = f"(({hi} << {rr}) | (({lo} >> {32 - rr}) & {(1 << rr) - 1}))"
        return nh, nl

    lines = [
        "void gc_main(const int *a, const int *b, int *c) {",
        "    int slo[25];",
        "    int shi[25];",
        "    int rclo[24];",
        "    int rchi[24];",
        "    int i;",
        "    for (i = 0; i < 25; i++) { slo[i] = 0; shi[i] = 0; }",
    ]
    # Message: 16 XOR-shared words = lanes 0..7 (lo/hi).
    for w in range(16):
        lane = w // 2
        tgt = "slo" if w % 2 == 0 else "shi"
        lines.append(f"    {tgt}[{lane}] = a[{w}] ^ b[{w}];")
    # Padding: message is 512 bits; SHA3 domain bits 0,1 then pad10*1.
    # Bit 512 = lane 8 bit 0 (suffix 01 -> second bit at 513); last
    # rate bit 1087 = lane 16 bit 63.
    # Suffix 01 at bit offsets 512-513 then pad10*1: lane 8 low word
    # bits (0,1,2) = (0,1,1) -> 0x6; final rate bit 1087 = lane 16 high
    # word bit 31.
    lines += [
        "    slo[8] = slo[8] ^ 0x6;",
        "    shi[16] = shi[16] ^ 0x80000000;",
    ]
    lines += [
        "    int round;",
        "    for (round = 0; round < 24; round++) {",
    ]
    # theta
    for x in range(5):
        terms_lo = " ^ ".join(f"slo[{x + 5 * y}]" for y in range(5))
        terms_hi = " ^ ".join(f"shi[{x + 5 * y}]" for y in range(5))
        lines.append(f"        int clo{x} = {terms_lo};")
        lines.append(f"        int chi{x} = {terms_hi};")
    for x in range(5):
        rh, rl = rotl64(f"chi{(x + 1) % 5}", f"clo{(x + 1) % 5}", 1)
        lines.append(f"        int dlo{x} = clo{(x - 1) % 5} ^ {rl};")
        lines.append(f"        int dhi{x} = chi{(x - 1) % 5} ^ {rh};")
    for x in range(5):
        for y in range(5):
            i = x + 5 * y
            lines.append(f"        int alo{i} = slo[{i}] ^ dlo{x};")
            lines.append(f"        int ahi{i} = shi[{i}] ^ dhi{x};")
    # rho + pi: B[y][(2x+3y)%5] = rotl(A[x][y], ROT[x][y])
    for x in range(5):
        for y in range(5):
            src = x + 5 * y
            dst = y + 5 * ((2 * x + 3 * y) % 5)
            rh, rl = rotl64(f"ahi{src}", f"alo{src}", ROT[x][y])
            lines.append(f"        int blo{dst} = {rl};")
            lines.append(f"        int bhi{dst} = {rh};")
    # chi
    for x in range(5):
        for y in range(5):
            i = x + 5 * y
            i1 = (x + 1) % 5 + 5 * y
            i2 = (x + 2) % 5 + 5 * y
            lines.append(
                f"        slo[{i}] = blo{i} ^ (~blo{i1} & blo{i2});"
            )
            lines.append(
                f"        shi[{i}] = bhi{i} ^ (~bhi{i1} & bhi{i2});"
            )
    # iota
    lines += [
        "        slo[0] = slo[0] ^ rclo[round];",
        "        shi[0] = shi[0] ^ rchi[round];",
        "    }",
    ]
    for i in range(8):
        tgt = "slo" if i % 2 == 0 else "shi"
        lines.append(f"    c[{i}] = {tgt}[{i // 2}];")
    lines.append("}")
    # Prepend round-constant initialization (public stores, free).
    rc_init = []
    for r, rc in enumerate(RC):
        rc_init.append(f"    rclo[{r}] = {rc & M32};")
        rc_init.append(f"    rchi[{r}] = {(rc >> 32) & M32};")
    idx = lines.index("    for (i = 0; i < 25; i++) { slo[i] = 0; shi[i] = 0; }")
    lines[idx + 1: idx + 1] = rc_init
    return "\n".join(lines) + "\n"


def aes_c() -> str:
    """Bitsliced AES-128 with on-the-fly key expansion, generated C.

    The state's 16 bytes plus the key schedule's 4 S-boxed bytes are
    packed into eight 20-bit slice words; the Boyar-Peralta S-box circuit
    (32 ANDs, emitted from the netlist by :func:`netlist_to_c`) then
    computes all 20 S-boxes of a round word-parallel.  ShiftRows,
    MixColumns, AddRoundKey and the round constants are XOR/shift only.
    """
    from ..bench_circuits.aes import RCON, sbox_circuit

    b = CircuitBuilder("sbox")
    xin = b.alice_input(8)
    b.set_outputs(sbox_circuit(b, xin))
    sbox_net = b.build()
    sbox_body = netlist_to_c(
        sbox_net, [f"s[{i}]" for i in range(8)], out_prefix="o",
        indent="    ",
    )

    lines = [
        "void sbox20(int *s, int *o) {",
        sbox_body,
        "}",
        "",
        "void gc_main(const int *a, const int *b, int *c) {",
        "    int st[16];",
        "    int key[16];",
        "    int sl[8];",
        "    int so[8];",
        "    int rcon[10];",
        "    int i;",
    ]
    for r, rc in enumerate(RCON):
        lines.append(f"    rcon[{r}] = {rc};")
    lines += [
        "    for (i = 0; i < 4; i++) {",
        "        int kw = a[i];",
        "        int pw = b[i];",
        "        key[4 * i] = kw & 0xFF;",
        "        key[4 * i + 1] = (kw >> 8) & 0xFF;",
        "        key[4 * i + 2] = (kw >> 16) & 0xFF;",
        "        key[4 * i + 3] = (kw >> 24) & 0xFF;",
        "        st[4 * i] = pw & 0xFF;",
        "        st[4 * i + 1] = (pw >> 8) & 0xFF;",
        "        st[4 * i + 2] = (pw >> 16) & 0xFF;",
        "        st[4 * i + 3] = (pw >> 24) & 0xFF;",
        "    }",
        "    for (i = 0; i < 16; i++) { st[i] = st[i] ^ key[i]; }",
        "    int round;",
        "    for (round = 0; round < 10; round++) {",
        "        // pack: slice j collects bit j of the 16 state bytes",
        "        // and of the 4 rotated key bytes (positions 16-19).",
    ]
    for j in range(8):
        terms = [f"(((st[{p}] >> {j}) & 1) << {p})" for p in range(16)]
        terms += [
            f"(((key[{12 + (r + 1) % 4}] >> {j}) & 1) << {16 + r})"
            for r in range(4)
        ]
        lines.append(f"        sl[{j}] = {' | '.join(terms)};")
    lines += [
        "        sbox20(sl, so);",
        "        // unpack the 16 substituted state bytes with",
        "        // ShiftRows applied, and the 4 key-schedule bytes.",
    ]
    # ShiftRows: dest byte (4*col+row) <- src byte 4*((col+row)%4)+row
    for col in range(4):
        for row in range(4):
            dst = 4 * col + row
            src = 4 * ((col + row) % 4) + row
            terms = [f"(((so[{j}] >> {src}) & 1) << {j})" for j in range(8)]
            lines.append(f"        int sr{dst} = {' | '.join(terms)};")
    for r in range(4):
        terms = [f"(((so[{j}] >> {16 + r}) & 1) << {j})" for j in range(8)]
        lines.append(f"        int ks{r} = {' | '.join(terms)};")
    lines += [
        "        ks0 = ks0 ^ rcon[round];",
        "        // key schedule: word w += previous word (chained)",
        "        key[0] = key[0] ^ ks0;",
        "        key[1] = key[1] ^ ks1;",
        "        key[2] = key[2] ^ ks2;",
        "        key[3] = key[3] ^ ks3;",
        "        for (i = 4; i < 16; i++) { key[i] = key[i] ^ key[i - 4]; }",
        "        // MixColumns (skipped in the last round) + ARK",
        "        int last = round == 9;",
    ]
    # MixColumns on sr bytes per column, with xtime as free bit ops.
    for col in range(4):
        a0, a1, a2, a3 = (f"sr{4 * col + r}" for r in range(4))
        lines.append(f"        int t{col} = {a0} ^ {a1} ^ {a2} ^ {a3};")
        for r in range(4):
            ai = f"sr{4 * col + r}"
            ai1 = f"sr{4 * col + (r + 1) % 4}"
            x = f"x{col}_{r}"
            lines += [
                f"        int {x} = {ai} ^ {ai1};",
                f"        int h{col}_{r} = ({x} >> 7) & 1;",
                f"        int xt{col}_{r} = (({x} << 1) & 0xFF) ^ "
                f"(h{col}_{r} << 4) ^ (h{col}_{r} << 3) ^ "
                f"(h{col}_{r} << 1) ^ h{col}_{r};",
                f"        int mc{4 * col + r} = {ai} ^ t{col} ^ xt{col}_{r};",
            ]
    for p in range(16):
        lines.append(
            f"        st[{p}] = (last ? sr{p} : mc{p}) ^ key[{p}];"
        )
    lines += [
        "    }",
        "    for (i = 0; i < 4; i++) {",
        "        c[i] = st[4 * i] | (st[4 * i + 1] << 8) | "
        "(st[4 * i + 2] << 16) | (st[4 * i + 3] << 24);",
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"
