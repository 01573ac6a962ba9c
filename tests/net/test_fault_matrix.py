"""Satellite: every protocol tag x fault action either recovers via
checkpoint/resume or fails loudly with the documented exception type.

Two layers:

* **Taxonomy** — a raw framed pair with a :class:`FaultyTransport`
  spliced into the send path; asserts the receiver observes exactly
  the exception class the fault table in :mod:`repro.net.fault`
  promises (this is what the session's RETRYABLE tuple keys on).
* **Recovery** — the full two-party protocol with a fault injected
  into a specific protocol message on the first connection; asserts
  the run still completes with the baseline's value and bit-identical
  gate counts, reconnecting when (and only when) the fault is
  disruptive.
"""

import pytest

from repro.bench_circuits import sum_combinational
from repro.circuit.bits import int_to_bits
from tests.helpers import run_protocol
from repro.gc.channel import ChannelClosed, ChannelTimeout, FrameCorruption
from repro.net.fault import FaultPlan, FaultRule, FaultyTransport
from repro.net.links import LinkClosed, memory_link_pair
from repro.net.session import run_resumable_pair
from repro.net.transport import FramedEndpoint

X, Y = 57, 34  # alice + bob = 91


def _faulty_pair(*rules):
    left, right = memory_link_pair()
    faulty = FaultyTransport(left, FaultPlan(list(rules)))
    return FramedEndpoint(faulty), FramedEndpoint(right), faulty


class TestFailureTaxonomy:
    """Each action produces its documented observable, no other."""

    def test_drop_is_a_timeout(self):
        a, b, ft = _faulty_pair(FaultRule("drop", tag="x"))
        a.send("x", 1)
        with pytest.raises(ChannelTimeout):
            b.recv("x", timeout=0.2)
        assert [f.action for f in ft.injected] == ["drop"]

    def test_corrupt_is_frame_corruption(self):
        a, b, ft = _faulty_pair(FaultRule("corrupt", tag="x"))
        a.send("x", 1)
        with pytest.raises(FrameCorruption, match="CRC"):
            b.recv("x", timeout=2.0)
        assert [f.action for f in ft.injected] == ["corrupt"]

    def test_duplicate_is_a_sequence_gap(self):
        a, b, ft = _faulty_pair(FaultRule("duplicate", tag="x"))
        a.send("x", 1)
        assert b.recv("x", timeout=2.0) == 1  # first copy is fine
        a.send("y", 2)
        with pytest.raises(FrameCorruption, match="sequence gap"):
            b.recv("y", timeout=2.0)  # replayed copy lands first
        assert [f.action for f in ft.injected] == ["duplicate"]

    def test_reorder_is_a_sequence_gap(self):
        a, b, ft = _faulty_pair(FaultRule("reorder", tag="x"))
        a.send("x", 1)  # held back
        a.send("y", 2)  # arrives first
        with pytest.raises(FrameCorruption, match="sequence gap"):
            b.recv("x", timeout=2.0)
        assert [f.action for f in ft.injected] == ["reorder"]

    def test_disconnect_is_closed_on_both_sides(self):
        a, b, ft = _faulty_pair(FaultRule("disconnect", tag="x"))
        with pytest.raises((ChannelClosed, LinkClosed)):
            a.send("x", 1)
        with pytest.raises(ChannelClosed):
            b.recv("x", timeout=2.0)
        assert [f.action for f in ft.injected] == ["disconnect"]

    def test_delay_and_split_are_harmless(self):
        a, b, ft = _faulty_pair(
            FaultRule("delay", tag="x", delay=0.02), FaultRule("split", tag="y")
        )
        a.send("x", [1, b"\x00" * 64])
        a.send("y", "still fine")
        assert b.recv("x", timeout=2.0) == [1, b"\x00" * 64]
        assert b.recv("y", timeout=2.0) == "still fine"
        assert sorted(f.action for f in ft.injected) == ["delay", "split"]


#: (faulty role, action, protocol tag it targets).  The role is the
#: *sender* of that tag; disruptive faults must force a reconnect,
#: benign ones must not.  The ``ot-*`` rows hit the extension's base
#: phase, a run of random OTs with the garbler as their receiver: the
#: evaluator sends ``ot-setup``, the garbler ``ot-b``, and no ``ot-e``
#: exists.  Alice's labels are one run frame and each OT window one
#: ``otx-d`` / ``otx-e`` pair, so a fault on one of them loses a whole run.
MATRIX = [
    ("garbler", "corrupt", "tables", True),
    ("garbler", "drop", "tables", True),
    ("garbler", "duplicate", "tables", True),
    ("garbler", "reorder", "tables", True),
    ("garbler", "disconnect", "tables", True),
    ("garbler", "corrupt", "alice-label", True),
    ("garbler", "drop", "alice-label", True),
    ("garbler", "corrupt", "otx-e", True),
    ("garbler", "drop", "otx-e", True),
    ("evaluator", "disconnect", "otx-d", True),
    ("garbler", "drop", "ot-b", True),
    ("garbler", "corrupt", "result", True),
    ("garbler", "drop", "net-hello", True),
    ("evaluator", "corrupt", "outputs", True),
    ("evaluator", "disconnect", "ot-setup", True),
    ("garbler", "corrupt", "ot-b", True),
    ("evaluator", "drop", "ot-setup", True),
    ("garbler", "split", "tables", False),
    ("garbler", "delay", "tables", False),
]


class TestRecoveryMatrix:
    @pytest.fixture(scope="class")
    def baseline(self):
        net, cycles = sum_combinational(32)
        return run_protocol(
            net, cycles, alice=int_to_bits(X, 32), bob=int_to_bits(Y, 32)
        )

    @pytest.mark.parametrize(
        "role,action,tag,disruptive",
        MATRIX,
        ids=[f"{r}-{a}-{t}" for r, a, t, _ in MATRIX],
    )
    def test_fault_recovers_bit_identically(
        self, baseline, role, action, tag, disruptive
    ):
        net, cycles = sum_combinational(32)
        injected = []

        def wrap(link_role, attempt, link):
            if link_role == role and attempt == 0:
                faulty = FaultyTransport(
                    link, FaultPlan([FaultRule(action, tag=tag)])
                )
                injected.append(faulty)
                return faulty
            return link

        a_res, b_res = run_resumable_pair(
            net,
            cycles,
            alice=int_to_bits(X, 32),
            bob=int_to_bits(Y, 32),
            timeout=1.0,
            wrap=wrap,
        )
        fired = [f for ft in injected for f in ft.injected]
        assert len(fired) == 1 and fired[0].action == action and fired[0].tag == tag

        assert a_res.value == b_res.value == baseline.value == (X + Y) & 0xFFFFFFFF
        assert a_res.outputs == baseline.outputs
        # Engine stats roll back with the checkpoint: gate counts are
        # bit-identical to the uninterrupted run, replay or not.
        assert a_res.stats.garbled_nonxor == baseline.alice_stats.garbled_nonxor
        assert b_res.stats.garbled_nonxor == baseline.bob_stats.garbled_nonxor
        reconnects = a_res.reconnects + b_res.reconnects
        if disruptive:
            assert reconnects >= 1
        else:
            assert reconnects == 0


class TestSeededPlans:
    def test_same_seed_same_schedule(self):
        p1 = FaultPlan.random(seed=42, n_faults=4)
        p2 = FaultPlan.random(seed=42, n_faults=4)
        assert [(r.action, r.frame_index) for r in p1.rules] == [
            (r.action, r.frame_index) for r in p2.rules
        ]

    def test_different_seed_different_schedule(self):
        p1 = FaultPlan.random(seed=1, n_faults=5, max_frame=1000)
        p2 = FaultPlan.random(seed=2, n_faults=5, max_frame=1000)
        assert [(r.action, r.frame_index) for r in p1.rules] != [
            (r.action, r.frame_index) for r in p2.rules
        ]

    def test_seeded_recovery_is_reproducible(self):
        """The acceptance rehearsal: a seeded fault schedule on the
        first connection, run twice — identical outcome both times."""

        def run_once():
            net, cycles = sum_combinational(32)

            def wrap(role, attempt, link):
                if role == "garbler" and attempt == 0:
                    return FaultyTransport(
                        link,
                        FaultPlan.random(
                            seed=7,
                            n_faults=2,
                            actions=("corrupt", "duplicate"),
                            max_frame=40,
                        ),
                    )
                return link

            return run_resumable_pair(
                net,
                cycles,
                alice=int_to_bits(X, 32),
                bob=int_to_bits(Y, 32),
                timeout=1.0,
                wrap=wrap,
            )

        (a1, b1), (a2, b2) = run_once(), run_once()
        assert a1.value == a2.value == (X + Y) & 0xFFFFFFFF
        assert a1.stats.garbled_nonxor == a2.stats.garbled_nonxor
        assert (a1.reconnects, b1.reconnects) == (a2.reconnects, b2.reconnects)
