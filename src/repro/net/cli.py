"""``python -m repro party``: one protocol party as an OS process.

Runs the two-party SkipGate protocol for a registry benchmark circuit
over a real transport, so the deployment story is a shell command::

    # terminal 1 (garbler, Alice's operand):
    python -m repro party garbler --circuit sum32 --value 1234 \\
        --listen 127.0.0.1:9100 --resume

    # terminal 2 (evaluator, Bob's operand):
    python -m repro party evaluator --circuit sum32 --value 4321 \\
        --connect 127.0.0.1:9100 --resume

    # or both parties in one process over the in-memory transport:
    python -m repro party both --circuit sum32 --value 1234 \\
        --peer-value 4321 --transport memory

Both processes print the decoded result and traffic/gate statistics;
``--json`` emits a machine-readable record (the CI smoke test compares
the two processes' values and gate counts against the in-memory run).
``--resume`` arms cycle-level checkpoint/resume: a dropped connection
is retried with backoff, the parties negotiate the last mutually-held
checkpoint and replay from there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

from ..circuit.bits import int_to_bits
from ..circuit.netlist import Netlist
from .tcp import parse_hostport

BitSource = Union[Sequence[int], Callable[[int], Sequence[int]]]


class _Stream1:
    """One bit per cycle, LSB first (bit-serial circuits).

    A class, not a lambda, so the bit source pickles: serve programs
    cross a process boundary to the worker pool, and an unpicklable
    source would silently demote the server to the thread pool.
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __call__(self, c: int) -> Sequence[int]:
        return [(self.value >> c) & 1]


def _stream1(value: int) -> BitSource:
    return _Stream1(value)


def _block(value: int, width: int) -> BitSource:
    """The full operand every cycle (combinational and re-presented)."""
    return int_to_bits(value, width)


@dataclass(frozen=True)
class BenchCircuit:
    """Registry entry: how to build the circuit and feed a value in."""

    build: Callable[[], Tuple[Netlist, int]]
    describe: str
    #: (value, cycles) -> per-cycle bits for the respective role.
    alice_source: Callable[[int, int], BitSource]
    bob_source: Callable[[int, int], BitSource]


def _registry() -> Dict[str, BenchCircuit]:
    from ..bench_circuits import (
        compare_combinational,
        compare_sequential,
        hamming_sequential,
        hamming_tree,
        mult_combinational,
        mult_sequential,
        sum_combinational,
        sum_sequential,
    )

    block32 = lambda v, _c: _block(v, 32)
    block8 = lambda v, _c: _block(v, 8)
    stream = lambda v, _c: _stream1(v)
    return {
        "sum32": BenchCircuit(
            lambda: sum_combinational(32),
            "32-bit ripple adder, 1 cycle",
            block32,
            block32,
        ),
        "sum32-seq": BenchCircuit(
            lambda: sum_sequential(32),
            "bit-serial adder, 32 cycles (Table 1 row: Sum 32)",
            stream,
            stream,
        ),
        "compare32": BenchCircuit(
            lambda: compare_combinational(32),
            "32-bit comparator x < y, 1 cycle",
            block32,
            block32,
        ),
        "compare32-seq": BenchCircuit(
            lambda: compare_sequential(32),
            "bit-serial comparator, 32 cycles (Table 1 row: Compare 32)",
            stream,
            stream,
        ),
        "hamming32": BenchCircuit(
            lambda: hamming_tree(32),
            "tree popcount Hamming distance, 1 cycle",
            block32,
            block32,
        ),
        "hamming32-seq": BenchCircuit(
            lambda: hamming_sequential(32),
            "bit-serial Hamming distance, 32 cycles (Table 1 row)",
            stream,
            stream,
        ),
        "mult8": BenchCircuit(
            lambda: mult_combinational(8),
            "8-bit truncated multiplier, 1 cycle",
            block8,
            block8,
        ),
        "mult8-seq": BenchCircuit(
            lambda: mult_sequential(8),
            "shift-and-add multiplier, 8 cycles",
            block8,  # multiplicand re-presented every cycle
            stream,  # multiplier bit i at cycle i
        ),
        # Workload circuits (batch PSI et al.) ride the same registry:
        # scalar operands are set seeds, sources are picklable classes,
        # so serve / loadgen / party / registry_*_program all resolve
        # them with zero special cases.
        **_workload_circuits(),
    }


def _workload_circuits() -> Dict[str, "BenchCircuit"]:
    from ..workloads import workload_circuits

    return workload_circuits()


def circuit_names() -> Sequence[str]:
    return sorted(_registry())


def _emit(args, record: dict) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
        return
    for k, v in record.items():
        print(f"{k:20s}: {v}")


def run_party(args) -> int:
    """Entry point for the ``party`` subcommand.

    Parses/validates the command line, then delegates the actual run
    to :func:`repro.api.run` with ``mode="party"``.
    """
    from .. import api

    registry = _registry()
    if args.circuit not in registry:
        print("available circuits:")
        for name in circuit_names():
            print(f"  {name:16s} {registry[name].describe}")
        return 2 if args.circuit else 0
    entry = registry[args.circuit]
    net, cycles = entry.build()
    max_attempts = args.max_attempts if args.resume else 1

    if args.transport == "memory":
        if args.role != "both":
            print("--transport memory runs both parties; use role 'both'")
            return 2
        if args.peer_value is None:
            print("--transport memory needs --peer-value (Bob's operand)")
            return 2
        a_res, b_res = api.run(
            net,
            {
                "alice": entry.alice_source(args.value, cycles),
                "bob": entry.bob_source(args.peer_value, cycles),
            },
            mode="party",
            role="both",
            cycles=cycles,
            ot_group=args.ot_group,
            checkpoint_every=args.checkpoint_every,
            timeout=args.timeout,
            max_attempts=max_attempts,
        )
        _emit(
            args,
            {
                "circuit": args.circuit,
                "value": a_res.value,
                "outputs": "".join(str(b) for b in a_res.outputs),
                "garbled_nonxor": a_res.stats.garbled_nonxor,
                "tables_sent": a_res.tables_sent,
                "garbler_payload_bytes": a_res.sent.payload_bytes,
                "evaluator_payload_bytes": b_res.sent.payload_bytes,
                "reconnects": a_res.reconnects + b_res.reconnects,
            },
        )
        return 0

    if args.role == "both":
        print("role 'both' requires --transport memory")
        return 2
    if args.role == "garbler":
        if not args.listen:
            print("garbler needs --listen HOST:PORT")
            return 2
        inputs = {"alice": entry.alice_source(args.value, cycles)}
        listen, connect = parse_hostport(args.listen), None
    else:
        if not args.connect:
            print("evaluator needs --connect HOST:PORT")
            return 2
        inputs = {"bob": entry.bob_source(args.value, cycles)}
        listen, connect = None, parse_hostport(args.connect)

    result = api.run(
        net,
        inputs,
        mode="party",
        role=args.role,
        cycles=cycles,
        ot_group=args.ot_group,
        timeout=args.timeout,
        listen=listen,
        connect=connect,
        checkpoint_every=args.checkpoint_every,
        max_attempts=max_attempts,
        heartbeat=args.heartbeat,
    )
    record = {
        "circuit": args.circuit,
        "role": args.role,
        "value": result.value,
        "outputs": "".join(str(b) for b in result.outputs),
        "garbled_nonxor": result.stats.garbled_nonxor,
        "payload_bytes_sent": result.sent.payload_bytes,
        "wire_bytes_sent": result.sent.wire_bytes,
        "reconnects": result.reconnects,
        "checkpoints": len(result.checkpoint_cycles),
    }
    if result.tables_sent is not None:
        record["tables_sent"] = result.tables_sent
    _emit(args, record)
    return 0


def add_party_parser(sub) -> None:
    """Register the ``party`` subcommand on an argparse subparsers."""
    p = sub.add_parser(
        "party",
        help="run one protocol party over TCP (or both, in-memory)",
        description="Run the two-party protocol for a registry benchmark "
        "circuit over a real transport.  Start the garbler (listener) "
        "first, then the evaluator (dialer); with --resume both sides "
        "survive disconnects via cycle-level checkpoint/replay.",
        # Whole flag names only: a removed ``--ot`` must not resolve to
        # ``--ot-group``.
        allow_abbrev=False,
    )
    p.add_argument("role", choices=("garbler", "evaluator", "both"))
    p.add_argument("--circuit", default="", help="registry circuit name "
                   "(omit to list)")
    p.add_argument("--value", type=lambda s: int(s, 0), default=0,
                   help="this party's operand")
    p.add_argument("--peer-value", type=lambda s: int(s, 0), default=None,
                   help="peer operand (memory transport only)")
    p.add_argument("--transport", choices=("memory", "tcp"), default="tcp")
    p.add_argument("--listen", default="", metavar="HOST:PORT",
                   help="garbler: address to listen on")
    p.add_argument("--connect", default="", metavar="HOST:PORT",
                   help="evaluator: address to dial")
    p.add_argument("--resume", action="store_true",
                   help="reconnect and resume from checkpoints on failure")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="checkpoint every N cycles (default 1)")
    p.add_argument("--max-attempts", type=int, default=6,
                   help="connection attempts before giving up (with --resume)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="receive/accept deadline in seconds")
    p.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                   help="send keepalive frames when idle this long")
    p.add_argument("--ot-group", choices=("modp512", "modp2048"),
                   default="modp512")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON record")
    p.set_defaults(func=run_party)
