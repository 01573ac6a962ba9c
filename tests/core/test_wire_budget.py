"""The wire figures of the spine's two in-process programs, pinned.

What crosses the wire is what the residual trace does not already say:
table blobs without their keys, no frame for a cycle that keeps no
table, one frame per run of Alice's labels, one ``otx-d`` / ``otx-e``
pair per OT window, a base phase of random OTs (no ``ot-e``), the
labels of the secret outputs only and the result as packed bits.  Payload bytes and message counts are deterministic
(label material is fixed-width), so each direction's figures are pinned
exactly, and the message counts are held at least 10x below those of
the per-transfer framing they replaced.

The two programs are the ``@quick`` sizes of the spine's ``arm_sweep``
and ``gc_heavy`` workloads (in-process, ``ot="extension"``), so the
totals here are also what ``benchmarks/spine/run.py --quick`` reports
as their ``wire_bytes_per_op``.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.circuit.bits import pack_words
from repro.core.protocol import make_parties
from repro.gc.channel import channel_pair
from repro.net.cli import _registry
from repro.programs import REGISTRY

from tests.integration.test_programs import build_machine


def _arm(name):
    prog = REGISTRY[name]
    machine = build_machine(prog)
    cfg = machine.config
    alice, bob = prog.gen_inputs(random.Random(5))
    cycles = machine.required_cycles(alice, bob)[0]
    imem = machine.program + [0] * (cfg.imem_words - len(machine.program))
    return machine.net, cycles, {
        "alice_init": pack_words(alice + [0] * (cfg.alice_words - len(alice)), 32),
        "bob_init": pack_words(bob + [0] * (cfg.bob_words - len(bob)), 32),
        "public_init": pack_words(imem, 32),
    }


def _registered(name):
    entry = _registry()[name]
    net, cycles = entry.build()
    return net, cycles, {"alice": entry.alice_source(1234, cycles),
                         "bob": entry.bob_source(4321, cycles)}


#: program -> (case, garbler (bytes, messages), evaluator (bytes, messages)).
BUDGET = {
    "arm-hamming32": (lambda: _arm("hamming32"), (11_582, 9), (4_270, 5)),
    "psi-hash8x16@b4": (lambda: _registered("psi-hash8x16@b4"),
                        (342_182, 9), (22_055, 13)),
}
#: The same runs with chosen-message base OTs (an ``ot-e`` frame of 128
#: seed pairs), a ``("pub", bit)`` / ``("lbl", label, flip)`` item per
#: output and the result as a list of bits.
PREVIOUS = {
    "arm-hamming32": ((11_674, 9), (8_701, 6)),
    "psi-hash8x16@b4": ((342_423, 9), (27_161, 14)),
}
#: The same runs framed one label, choice bit and OT reply per message,
#: with each cycle's kept keys in its ``tables`` frame.
PER_TRANSFER = {
    "arm-hamming32": ((12_926, 291), (9_556, 164)),
    "psi-hash8x16@b4": ((386_455, 1_490), (31_044, 1_224)),
}


def _directions(net, cycles, inputs):
    """One in-process run; ``(bytes, messages)`` each party sent."""
    g_end, e_end = channel_pair(timeout=120.0)
    garbler, evaluator = make_parties(net, cycles, ot="extension", seed=3, **inputs)
    box = {}

    def bob():
        try:
            evaluator.attach(e_end)
            evaluator.run_cycles()
            box["outputs"] = evaluator.finish()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            box["error"] = exc
            e_end.abort()

    thread = threading.Thread(target=bob)
    thread.start()
    garbler.attach(g_end)
    garbler.run_cycles()
    outputs = garbler.finish()
    thread.join(60.0)
    assert "error" not in box, box.get("error")
    assert box["outputs"] == outputs
    return tuple((end.sent.payload_bytes, end.sent.messages) for end in (g_end, e_end))


@pytest.mark.parametrize("program", sorted(BUDGET))
def test_per_direction_bytes_and_messages_are_pinned(program):
    case, garbler, evaluator = BUDGET[program]
    got = _directions(*case())
    assert got == (garbler, evaluator)
    for (nbytes, messages), (old_bytes, old_messages) in zip(got, PER_TRANSFER[program]):
        assert nbytes < old_bytes
        assert 10 * messages <= old_messages
    # Random base OTs: Bob's ``ot-e`` is gone, and only it.
    (g_prev, g_msgs), (e_prev, e_msgs) = PREVIOUS[program]
    assert garbler[0] < g_prev and evaluator[0] < e_prev
    assert (garbler[1], evaluator[1]) == (g_msgs, e_msgs - 1)
