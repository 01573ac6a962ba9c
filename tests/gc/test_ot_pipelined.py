"""Pipelined OT receives against one-at-a-time receives, on the real OTs.

``receive_many(choices)`` sends a window of choice messages before it
reads the window's replies.  It must be exactly ``[receive(c) for c in
choices]``: the same values and, per direction, the same messages in
the same order — only the interleaving of the two directions changes.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.gc import ot as ot_mod
from repro.gc.channel import channel_pair
from repro.gc.ot import POOL_SIZE, OTReceiver, OTSender
from repro.gc.ot_extension import OTExtensionReceiver, OTExtensionSender
from repro.net import codec

KINDS = {
    "simplest": (
        lambda chan: OTSender(chan, group="modp512"),
        lambda chan: OTReceiver(chan, group="modp512"),
    ),
    "extension": (
        lambda chan: OTExtensionSender(chan, rng=random.Random(3)),
        lambda chan: OTExtensionReceiver(chan, rng=random.Random(4)),
    ),
}
LENGTHS = [0, 1, 127, 128, 255, 256, 257, 600]


def _transfer(monkeypatch, kind, choices, pipelined, prefix=()):
    """Run ``prefix`` one at a time, then ``choices`` either way; returns
    the received values, each side's ``(tag, payload)`` sends and each
    side's own ``send``/``recv`` sequence."""
    rngs = {"sender": random.Random(1), "receiver": random.Random(2)}
    monkeypatch.setattr(
        ot_mod, "_draw_exponent",
        lambda: rngs[threading.current_thread().name].getrandbits(256) | 1)
    ends = dict(zip(("sender", "receiver"), channel_pair(timeout=60.0)))
    sent = {role: [] for role in ends}
    events = {role: [] for role in ends}
    for role, end in ends.items():
        def tapped_send(tag, payload, send=end.send, log=sent[role], ev=events[role]):
            log.append((tag, codec.encode(payload)))
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
        for m0, m1 in messages:
            tx.send(m0, m1)

    def receiver():
        rx = make_receiver(ends["receiver"])
        got = [rx.receive(c) for c in prefix]
        if pipelined:
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


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n", LENGTHS)
def test_receive_many_is_receive_in_a_loop(monkeypatch, kind, n):
    choices = [random.Random(n).getrandbits(1) for _ in range(n)]
    # Extension: a prefix of one transfer puts the base phase before the
    # run and moves every pool refill off a window boundary (into a
    # window); without it, the base phase falls inside the first window.
    for prefix in ((), (1,)) if kind == "extension" else ((),):
        got, sent, _ = _transfer(monkeypatch, kind, choices, True, prefix)
        want, want_sent, _ = _transfer(monkeypatch, kind, choices, False, prefix)
        assert got == want
        for role in ("sender", "receiver"):
            assert sent[role] == want_sent[role], role


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_window_of_choices_leaves_before_the_first_reply_is_read(monkeypatch, kind):
    n = 600
    choices = [i % 3 == 0 for i in range(n)]
    _, _, events = _transfer(monkeypatch, kind, choices, True, prefix=(0,))
    events = events["receiver"]
    choice_tag = "ot-b" if kind == "simplest" else "otx-d"
    reply_tag = "ot-e" if kind == "simplest" else "otx-e"
    # Drop the prefix transfer: its choice then its reply.
    ot_events = [e for e in events if e[1] in (choice_tag, reply_tag)][2:]
    windows = [ot_events[i : i + 2 * POOL_SIZE] for i in range(0, 2 * n, 2 * POOL_SIZE)]
    for window in windows:
        half = len(window) // 2
        assert window[:half] == [("send", choice_tag)] * half
        assert window[half:] == [("recv", reply_tag)] * half


def test_the_extension_base_phase_is_one_pipelined_run(monkeypatch):
    _, _, events = _transfer(monkeypatch, "extension", [1], True)
    # The base receiver (the extension *sender*) sends all 128 base-OT
    # choice messages before it reads the first reply.
    base = [e for e in events["sender"] if e[1] in ("ot-b", "ot-e")]
    assert base == [("send", "ot-b")] * 128 + [("recv", "ot-e")] * 128
