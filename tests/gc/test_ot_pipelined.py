"""Windowed OT runs against one-at-a-time transfers, on the real IKNP
extension (the one session OT; ``kind`` keeps its test ids).

``send_many(pairs)`` / ``receive_many(choices)`` cut a run into pool
windows: the receiver sends a window's choices as one frame before it
reads the window's one reply frame.  It must be exactly ``[receive(c)
for c in choices]``: the same values and, per direction and per tag,
the same transfer units (group elements, correction bits, ciphertext
pairs, pool columns) in the same order — only the framing changes.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.gc import ot as ot_mod
from repro.gc.channel import channel_pair
from repro.gc.ot import POOL_SIZE, unpack_bits
from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender

KINDS = {
    "extension": (
        lambda chan: OTExtensionSender(chan, rng=random.Random(3)),
        lambda chan: OTExtensionReceiver(chan, rng=random.Random(4)),
    ),
}
LENGTHS = [0, 1, 127, 128, 255, 256, 257, 600]
#: Bytes of one transfer unit per tag; ``None``: the frame is one unit.
UNIT_BYTES = {"ot-b": 64, "otx-e": 32, "ot-setup": None, "otx-u": None}


def _transfer(monkeypatch, kind, choices, windowed, prefix=()):
    """Run ``prefix`` one at a time, then ``choices`` either as one
    windowed run or one at a time; returns the received values, each
    side's ``(tag, payload)`` sends and each side's own ``send``/``recv``
    sequence."""
    rngs = {"sender": random.Random(1), "receiver": random.Random(2)}
    monkeypatch.setattr(
        ot_mod, "_draw_exponent",
        lambda: rngs[threading.current_thread().name].getrandbits(256) | 1)
    ends = dict(zip(("sender", "receiver"), channel_pair(timeout=60.0)))
    sent = {role: [] for role in ends}
    events = {role: [] for role in ends}
    for role, end in ends.items():
        def tapped_send(tag, payload, send=end.send, log=sent[role], ev=events[role]):
            log.append((tag, payload))
            ev.append(("send", tag))
            send(tag, payload)

        def tapped_recv(tag, *args, recv=end.recv, ev=events[role], **kwargs):
            ev.append(("recv", tag))
            return recv(tag, *args, **kwargs)

        end.send, end.recv = tapped_send, tapped_recv
    messages = [(random.Random(i).getrandbits(128), random.Random(-i).getrandbits(128))
                for i in range(len(prefix) + len(choices))]
    make_sender, make_receiver = KINDS[kind]
    box, errors = {}, []

    def sender():
        tx = make_sender(ends["sender"])
        for m0, m1 in messages[: len(prefix)]:
            tx.send(m0, m1)
        if windowed:
            tx.send_many(messages[len(prefix):])
        else:
            for m0, m1 in messages[len(prefix):]:
                tx.send(m0, m1)

    def receiver():
        rx = make_receiver(ends["receiver"])
        got = [rx.receive(c) for c in prefix]
        if windowed:
            got += rx.receive_many(choices)
        else:
            got += [rx.receive(c) for c in choices]
        box["got"] = got

    def guarded(fn):
        def main():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                for end in ends.values():
                    end.abort()
        return main

    threads = [threading.Thread(target=guarded(fn), name=role)
               for role, fn in (("sender", sender), ("receiver", receiver))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads)
    chosen = list(prefix) + list(choices)
    assert box["got"] == [pair[c] for pair, c in zip(messages, chosen)]
    return box["got"], sent, events


def _units(sent):
    """Per role, per tag: the transfer units the frames carry, in order.
    A packed ``otx-d`` frame holds as many bits as its ``otx-e`` reply
    holds pairs."""
    replies = [len(p) // 32 for tag, p in sent["sender"] if tag == "otx-e"]
    units = {}
    for role, frames in sent.items():
        per_tag = units[role] = {}
        d_frames = 0
        for tag, payload in frames:
            if tag == "otx-d":
                items = unpack_bits(payload, replies[d_frames], tag)
                d_frames += 1
            elif UNIT_BYTES[tag] is None:
                items = [payload]
            else:
                size = UNIT_BYTES[tag]
                items = [payload[lo : lo + size] for lo in range(0, len(payload), size)]
            per_tag.setdefault(tag, []).extend(items)
    return units


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", LENGTHS)
def test_receive_many_is_receive_in_a_loop(monkeypatch, kind, n):
    choices = [random.Random(n).getrandbits(1) for _ in range(n)]
    # A prefix of one transfer puts the base phase before the run and
    # moves every pool refill off a window boundary (into a window);
    # without it, the base phase falls inside the first window.
    for prefix in ((), (1,)):
        got, sent, _ = _transfer(monkeypatch, kind, choices, True, prefix)
        want, want_sent, _ = _transfer(monkeypatch, kind, choices, False, prefix)
        assert got == want
        assert _units(sent) == _units(want_sent)
        frames = [tag for tag, _ in sent["receiver"]].count("otx-d")
        windows = -(-n // POOL_SIZE)
        assert frames == len(prefix) + windows


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_window_of_choices_leaves_before_the_first_reply_is_read(monkeypatch, kind):
    n = 600
    choices = [i % 3 == 0 for i in range(n)]
    _, sent, events = _transfer(monkeypatch, kind, choices, True, prefix=(0,))
    # Drop the prefix transfer: its choice then its reply.
    ot_events = [e for e in events["receiver"] if e[1] in ("otx-d", "otx-e")][2:]
    sizes = [min(POOL_SIZE, n - lo) for lo in range(0, n, POOL_SIZE)]
    assert ot_events == [("send", "otx-d"), ("recv", "otx-e")] * len(sizes)
    # One frame per window, holding exactly the window's transfers.
    choice_frames = [p for tag, p in sent["receiver"] if tag == "otx-d"][-len(sizes):]
    reply_frames = [p for tag, p in sent["sender"] if tag == "otx-e"][-len(sizes):]
    for size, choice, reply in zip(sizes, choice_frames, reply_frames):
        assert len(choice) == (size + 7) // 8
        assert len(reply) == 32 * size


def test_the_extension_base_phase_is_one_pipelined_run(monkeypatch):
    _, sent, events = _transfer(monkeypatch, "extension", [1], True)
    # The base receiver (the extension *sender*) sends all 128 base-OT
    # choice elements as one frame, and no reply comes back: the base
    # OTs are random OTs, whose pads are the seeds.  The extension
    # receiver's next frame is its first pool's columns.
    assert [tag for tag, _ in sent["sender"]][:1] == ["ot-b"]
    assert [tag for tag, _ in sent["receiver"]][:2] == ["ot-setup", "otx-u"]
    assert not [e for role in events for e in events[role] if e[1] == "ot-e"]
    (elems,) = [p for tag, p in sent["sender"] if tag == "ot-b"]
    assert len(elems) == 128 * 64
