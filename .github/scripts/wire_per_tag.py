"""Per-tag wire bytes of one in-process arm-hamming32 session: numbers, no gate.

What each tag of one session costs (DESIGN.md §10, "Session
messages"); the starting point of the next wire change.

    PYTHONPATH=src python .github/scripts/wire_per_tag.py
"""

import random, threading
from collections import Counter
from repro.arm import GarbledMachine
from repro.cc import compile_c
from repro.circuit.bits import pack_words
from repro.core.protocol import make_parties
from repro.gc.channel import channel_pair, payload_wire_size
from repro.programs import REGISTRY

prog = REGISTRY["hamming32"]
machine = GarbledMachine(
    compile_c(prog.source).words, alice_words=prog.alice_words,
    bob_words=prog.bob_words, output_words=prog.output_words,
    data_words=prog.data_words, imem_words=prog.imem_words)
cfg = machine.config
alice, bob = prog.gen_inputs(random.Random(5))
cycles = machine.required_cycles(alice, bob)[0]
imem = machine.program + [0] * (cfg.imem_words - len(machine.program))
inputs = {
    "alice_init": pack_words(alice + [0] * (cfg.alice_words - len(alice)), 32),
    "bob_init": pack_words(bob + [0] * (cfg.bob_words - len(bob)), 32),
    "public_init": pack_words(imem, 32),
}
ends = dict(zip(("garbler", "evaluator"), channel_pair(timeout=120.0)))
parties = dict(zip(ends, make_parties(machine.net, cycles, seed=3,
                                      **inputs)))
nbytes, frames = Counter(), Counter()
for role, end in ends.items():
    def tapped(tag, payload, send=end.send, role=role):
        nbytes[role, tag] += payload_wire_size(payload)
        frames[role, tag] += 1
        send(tag, payload)
    end.send = tapped
outputs = {}

def main(role):
    parties[role].attach(ends[role])
    parties[role].run_cycles()
    outputs[role] = parties[role].finish()

thread = threading.Thread(target=main, args=("evaluator",))
thread.start()
main("garbler")
thread.join()
assert outputs["garbler"] == outputs["evaluator"]
print(f"arm-hamming32, {cycles} cycles: payload bytes per tag")
for role in ends:
    for (who, tag), n in sorted(nbytes.items()):
        if who == role:
            print(f"  {role:9} {tag:11} {frames[who, tag]:4} frames {n:8,} bytes")
    print(f"  {role:9} {'total':11} {ends[role].sent.messages:4} frames "
          f"{ends[role].sent.payload_bytes:8,} bytes")
