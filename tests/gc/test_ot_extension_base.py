"""OT extension internals: the byte-table transpose and base-OT reuse.

The transpose rewrite replaces a per-bit O(kappa * m) loop with a
256-entry spread-table block transpose; it must be bit-identical to
the straightforward definition for every shape the extension produces
(kappa columns, pool-size rows) and for degenerate shapes.

Base-OT reuse stretches one session's kappa base OTs across later
sessions of the same client: the exported material plus a
session-unique PRG salt must transfer correctly and actually skip the
base phase (visible as strictly less handshake traffic).
"""

import random
import threading

from repro.gc.channel import channel_pair, payload_wire_size
from repro.gc.ot_extension import (
    KAPPA,
    OTExtensionReceiver,
    OTExtensionSender,
    _transpose_columns,
    session_salt,
)


def _transpose_reference(cols, n_rows):
    """The definitionally-obvious per-bit transpose."""
    rows = []
    for j in range(n_rows):
        r = 0
        for i, c in enumerate(cols):
            r |= ((c >> j) & 1) << i
        rows.append(r)
    return rows


class TestTransposeColumns:
    def test_matches_reference_across_shapes(self):
        rng = random.Random(7)
        shapes = [(1, 1), (7, 9), (8, 8), (3, 300), (128, 1),
                  (KAPPA, 256), (KAPPA, 250), (KAPPA, 32)]
        for ncols, nrows in shapes:
            cols = [rng.getrandbits(nrows) for _ in range(ncols)]
            assert _transpose_columns(cols, nrows) == _transpose_reference(
                cols, nrows
            ), f"shape ({ncols}, {nrows}) diverged"

    def test_degenerate_shapes(self):
        assert _transpose_columns([], 5) == [0] * 5
        assert _transpose_columns([1, 2, 3], 0) == []

    def test_high_garbage_bits_are_masked(self):
        """Column ints wider than n_rows (stale high bits) must not
        leak into the transposed rows."""
        cols = [(1 << 40) | 0b101, (1 << 50) | 0b010]
        assert _transpose_columns(cols, 3) == _transpose_reference(
            [c & 0b111 for c in cols], 3
        )


def _run_ext_session(choices, pairs, *, sender_base=None,
                     receiver_base=None, salt=b"iknp", pool_size=16):
    """One extension session between two threads; returns
    ``(received, sender, receiver, a_end, b_end)``."""
    a_end, b_end = channel_pair()
    received = []
    box = {}

    def bob():
        rx = OTExtensionReceiver(
            b_end, pool_size=pool_size, base=receiver_base, salt=salt
        )
        box["rx"] = rx
        for c in choices:
            received.append(rx.receive(c))

    t = threading.Thread(target=bob, daemon=True)
    t.start()
    tx = OTExtensionSender(
        a_end, pool_size=pool_size, base=sender_base, salt=salt
    )
    for m0, m1 in pairs:
        tx.send(m0, m1)
    t.join(timeout=60)
    assert not t.is_alive()
    return received, tx, box["rx"], a_end, b_end


class TestBaseOTReuse:
    def test_cached_base_transfers_correctly_and_skips_base_phase(self):
        pairs = [(100 + i, 900 + i) for i in range(6)]
        choices = [1, 0, 0, 1, 1, 0]

        got1, tx1, rx1, a1, b1 = _run_ext_session(
            choices, pairs, salt=session_salt("sess-1")
        )
        assert got1 == [p[c] for p, c in zip(pairs, choices)]
        sender_base = tx1.export_base()
        receiver_base = rx1.export_base()
        assert sender_base is not None and receiver_base is not None

        got2, tx2, rx2, a2, b2 = _run_ext_session(
            choices, pairs,
            sender_base=sender_base, receiver_base=receiver_base,
            salt=session_salt("sess-2"),
        )
        assert got2 == [p[c] for p, c in zip(pairs, choices)]
        # Nothing ran a base phase in session 2, so nothing to export.
        assert tx2.export_base() == sender_base
        assert rx2.export_base() == receiver_base
        # The base phase really was skipped, in both directions: the
        # extension sender shipped none of its kappa "ot-b" group
        # elements (64 bytes each in modp512, one frame), and the
        # extension receiver not its setup element, which is all it
        # sends in a base phase of random OTs.
        elem = 64
        assert a1.sent.payload_bytes - a2.sent.payload_bytes >= KAPPA * elem
        assert (b1.sent.payload_bytes - b2.sent.payload_bytes
                == payload_wire_size(bytes(elem)))

    def test_reused_base_with_distinct_salts_gives_distinct_pads(self):
        """Two sessions over the same base material must not repeat
        their OT transcripts (repeated pads leak message XORs); the
        session salt is what breaks the repetition."""
        pairs = [(0, 0)] * 4  # zero messages: the wire shows raw pads
        choices = [0, 0, 0, 0]
        _, tx1, rx1, _, _ = _run_ext_session(
            choices, pairs, salt=session_salt("a")
        )
        base_s, base_r = tx1.export_base(), rx1.export_base()

        def transcript(salt):
            """All otx-e payloads of one session; the receiver's pool
            randomness is pinned so the salt is the only variable."""
            a_end, b_end = channel_pair()
            wire = []
            orig_send = a_end.send

            def spy(tag, payload):
                if tag == "otx-e":
                    wire.append(payload)
                orig_send(tag, payload)

            a_end.send = spy

            def bob():
                rx = OTExtensionReceiver(
                    b_end, pool_size=16, base=base_r, salt=salt,
                    rng=random.Random(99),
                )
                for c in choices:
                    rx.receive(c)

            t = threading.Thread(target=bob, daemon=True)
            t.start()
            tx = OTExtensionSender(
                a_end, pool_size=16, base=base_s, salt=salt
            )
            for m0, m1 in pairs:
                tx.send(m0, m1)
            t.join(timeout=60)
            assert not t.is_alive()
            return wire

        # Positive control: with the salt ALSO repeated, the pads
        # repeat verbatim — exactly the leak session salts prevent.
        assert transcript(session_salt("b")) == transcript(session_salt("b"))
        assert transcript(session_salt("b")) != transcript(session_salt("c"))

    def test_a_cached_base_session_runs_bit_identically(self):
        """``export_base`` -> :class:`BaseOTCache` -> the next protocol
        session, as the serve layer chains them: the second session runs
        no base phase (no ``ot-setup``, no ``ot-b``) and decodes the same
        outputs as the first and as ``mode="local"``."""
        from repro import api
        from repro.core.protocol import EvaluatorParty, GarblerParty, _expand_bits
        from repro.gc.ot import BaseOTCache
        from repro.net.cli import _registry

        entry = _registry()["sum32-seq"]
        net, cycles = entry.build()
        alice, bob = entry.alice_source(57, cycles), entry.bob_source(34, cycles)
        local = api.run(net, {"alice": alice, "bob": bob}, mode="local",
                        cycles=cycles)
        senders, receivers = BaseOTCache(), BaseOTCache()

        def session(sid):
            salt = session_salt(sid)
            garbler = GarblerParty(
                net, cycles, _expand_bits(net, "alice", alice, (), cycles),
                ot_factory=lambda chan: OTExtensionSender(
                    chan, base=senders.get("client"), salt=salt))
            evaluator = EvaluatorParty(
                net, cycles, _expand_bits(net, "bob", bob, (), cycles),
                ot_factory=lambda chan: OTExtensionReceiver(
                    chan, base=receivers.get("client"), salt=salt))
            ends = channel_pair(timeout=60.0)
            tags = {"garbler": [], "evaluator": []}
            outputs = {}
            for party, end in zip((garbler, evaluator), ends):
                send = end.send

                def tapped(tag, payload, send=send, log=tags[party.role]):
                    log.append(tag)
                    send(tag, payload)

                end.send = tapped

            def main(party, end):
                party.attach(end)
                party.run_cycles()
                outputs[party.role] = party.finish()

            t = threading.Thread(target=main, args=(evaluator, ends[1]))
            t.start()
            main(garbler, ends[0])
            t.join(timeout=60)
            senders.put("client", garbler.backend._ot.export_base())
            receivers.put("client", evaluator.backend._ot.export_base())
            assert outputs["garbler"] == outputs["evaluator"]
            return outputs["garbler"], tags

        first, first_tags = session("one")
        second, second_tags = session("two")
        assert first == second == list(local.outputs)
        assert "ot-b" in first_tags["garbler"]
        assert "ot-setup" in first_tags["evaluator"]
        assert "ot-b" not in second_tags["garbler"]
        assert "ot-setup" not in second_tags["evaluator"]
        assert not [t for log in (first_tags, second_tags)
                    for tag in log.values() for t in tag if t == "ot-e"]

    def test_session_salt_namespace_is_disjoint_from_default(self):
        """Default batch salts are b'iknp' + digits; session salts add
        a ':' so no session salt can collide with any batch salt."""
        assert session_salt("0").startswith(b"iknp:")
        assert session_salt("0") + b"0" != b"iknp" + b"00"
        assert not session_salt("x")[4:5].isdigit()
