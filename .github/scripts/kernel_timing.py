"""Half-gate kernel per row vs per run; OT receives serial vs pipelined.

Numbers, no gate: what the replayer's runs buy over rows (DESIGN.md
§11, "Runs, not rows") and what pipelined OT receives buy over one
round trip per input bit (§10).

    PYTHONPATH=src python .github/scripts/kernel_timing.py
"""

import random, threading, time
from repro.gc.channel import channel_pair
from repro.gc.garble import (evaluate_gate, evaluate_run, garble_gate,
                             garble_run, random_delta)
from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender

n = 78_328  # gc_heavy's tables per op
rng = random.Random(1)
delta = random_delta(rng)
zero = [rng.getrandbits(128) for _ in range(2 * n)] + [0] * n
held = [label ^ delta for label in zero]
srcs_a, srcs_b = range(0, 2 * n, 2), range(1, 2 * n, 2)
dsts = range(2 * n, 3 * n)
t0 = time.perf_counter()
rows = [garble_gate(8, zero[a], zero[b], delta, gid)
        for gid, (a, b) in enumerate(zip(srcs_a, srcs_b))]
t1 = time.perf_counter()
blob = b"".join(garble_run(zero, [8] * n, range(n), srcs_a, srcs_b, dsts, delta))
t2 = time.perf_counter()
for gid, (a, b) in enumerate(zip(srcs_a, srcs_b)):
    evaluate_gate(8, held[a], held[b], rows[gid][1], gid)
t3 = time.perf_counter()
evaluate_run(held, blob, range(n), srcs_a, srcs_b, dsts)
t4 = time.perf_counter()
assert held[2 * n:] == [out0 ^ delta for out0 in zero[2 * n:]]
us = 1e6 / n
print(f"garble: {(t1 - t0) * us:.2f} us/gate one-row, "
      f"{(t2 - t1) * us:.2f} us/gate per run")
print(f"eval:   {(t3 - t2) * us:.2f} us/gate one-row, "
      f"{(t4 - t3) * us:.2f} us/gate per run")

def receives(pipelined, m=6_336):  # gc_heavy's OTs per op
    s_end, r_end = channel_pair(timeout=60.0)
    sender = OTExtensionSender(s_end)
    receiver = OTExtensionReceiver(r_end)
    choices = [rng.getrandbits(1) for _ in range(m)]
    pairs = [(i, i + 1) for i in range(m)]

    def send():  # the sender frames each run as the receiver does
        sender.send(0, 1)
        if pipelined:
            sender.send_many(pairs)
        else:
            for m0, m1 in pairs:
                sender.send(m0, m1)

    thread = threading.Thread(target=send)
    thread.start()
    receiver.receive(0)  # the base phase, outside the timing
    t0 = time.perf_counter()
    if pipelined:
        receiver.receive_many(choices)
    else:
        for choice in choices:
            receiver.receive(choice)
    seconds = time.perf_counter() - t0
    thread.join()
    return seconds * 1e3

print(f"6,336 extension OTs: {receives(False):.0f} ms one round trip "
      f"each, {receives(True):.0f} ms pipelined")
