"""Tests for the observability layer (repro.obs).

Covers the span/counter/event model itself, the sinks, and the two
guarantees the engine integration makes: an *enabled* obs produces
per-cycle trace events and per-phase totals, and a *disabled* (default)
run produces zero events while leaving the paper's gate counts
bit-identical.
"""

import json
import threading

import pytest

from repro.obs import (
    NULL_OBS,
    JsonlSink,
    ListSink,
    NullObs,
    Obs,
    render_profile,
    render_tree,
    timing_summary,
)


class FakeClock:
    """Deterministic clock: each read advances by ``tick`` seconds."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        t = self.t
        self.t += self.tick
        return t


class TestSpans:
    def test_span_accumulates_time_and_calls(self):
        obs = Obs(clock=FakeClock())
        with obs.span("a"):
            pass
        with obs.span("a"):
            pass
        totals = obs.phase_totals()
        assert totals["a"].calls == 2
        assert totals["a"].seconds > 0

    def test_spans_nest(self):
        obs = Obs()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        root = next(iter(obs.trees.values()))
        outer = root.children["outer"]
        assert "inner" in outer.children
        assert "inner" not in root.children

    def test_add_time_attaches_under_open_span(self):
        obs = Obs()
        with obs.span("outer"):
            obs.add_time("flushed", 0.5, calls=10)
        root = next(iter(obs.trees.values()))
        node = root.children["outer"].children["flushed"]
        assert node.seconds == pytest.approx(0.5)
        assert node.calls == 10

    def test_phase_totals_sum_across_threads(self):
        obs = Obs()

        def work(label):
            obs.set_thread_label(label)
            obs.add_time("phase", 1.0)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(obs.trees) == {"t0", "t1"}
        assert obs.phase_totals()["phase"].seconds == pytest.approx(2.0)
        assert obs.phase_totals()["phase"].calls == 2

    def test_counters(self):
        obs = Obs()
        obs.inc("tables", 3)
        obs.inc("tables")
        assert obs.counters() == {"tables": 4}


class TestSinks:
    def test_list_sink_captures_events_with_metadata(self):
        obs = Obs(sink=ListSink())
        obs.set_thread_label("alice")
        obs.event("cycle", cycle=0, tables_sent=5)
        (event,) = obs.sink.events
        assert event["event"] == "cycle"
        assert event["tables_sent"] == 5
        assert event["thread"] == "alice"
        assert "t" in event

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs = Obs(sink=JsonlSink(path))
        obs.event("cycle", cycle=0)
        obs.event("cycle", cycle=1)
        obs.close()
        lines = [json.loads(l) for l in open(path)]
        assert [l["cycle"] for l in lines] == [0, 1]

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()


class TestNullObs:
    def test_null_obs_is_disabled_and_inert(self):
        assert NULL_OBS.enabled is False
        with NULL_OBS.span("anything"):
            pass
        NULL_OBS.add_time("x", 1.0)
        NULL_OBS.inc("x")
        NULL_OBS.event("cycle", cycle=0)
        assert NULL_OBS.phase_totals() == {}
        assert NULL_OBS.counters() == {}

    def test_render_helpers_accept_null_obs(self):
        text = render_profile(NULL_OBS)
        # The canonical phases always appear so profiles line up.
        for phase in ("garble", "eval", "channel.wait", "step"):
            assert phase in text
        assert render_tree(NULL_OBS) == ""
        assert timing_summary(NULL_OBS) == {}


def _hamming_run(obs=None):
    from repro import bench_circuits as BC
    from tests.helpers import run_local

    net, cc = BC.hamming_sequential(32)
    a, b = 0xDEADBEEF, 0x12345678
    return run_local(
        net,
        cc,
        alice=lambda c: [(a >> c) & 1],
        bob=lambda c: [(b >> c) & 1],
        obs=obs,
    )


class TestEngineIntegration:
    def test_disabled_run_adds_no_events_and_identical_counts(self):
        sink = ListSink()
        enabled = _hamming_run(obs=Obs(sink=sink))
        disabled = _hamming_run(obs=None)
        # Gate counts must be bit-identical with and without obs.
        assert enabled.stats.garbled_nonxor == disabled.stats.garbled_nonxor
        assert enabled.stats.cat_i == disabled.stats.cat_i
        assert enabled.stats.cat_ii == disabled.stats.cat_ii
        assert enabled.stats.cat_iii == disabled.stats.cat_iii
        assert enabled.stats.cat_iv_xor == disabled.stats.cat_iv_xor
        assert enabled.stats.tables_filtered == disabled.stats.tables_filtered
        assert enabled.stats.reduction_calls == disabled.stats.reduction_calls
        assert disabled.timing is None
        # The enabled run traced one cycle event per cycle (and, on a
        # cold cache, one trace.build); the disabled run cannot have
        # touched the sink (it never saw it).
        cycles = [e for e in sink.events if e["event"] == "cycle"]
        assert len(cycles) == enabled.stats.cycles
        assert {e["event"] for e in sink.events} <= {"cycle", "trace.build"}

    def test_enabled_run_reports_phases(self):
        result = _hamming_run(obs=Obs())
        assert result.timing is not None
        assert set(result.timing) >= {"step", "garble"}
        assert result.timing["step"] > 0

    def test_per_cycle_events_carry_category_counts(self):
        sink = ListSink()
        result = _hamming_run(obs=Obs(sink=sink))
        events = [e for e in sink.events if e["event"] == "cycle"]
        assert [e["cycle"] for e in events] == list(
            range(result.stats.cycles)
        )
        assert sum(e["tables_sent"] for e in events) == (
            result.stats.tables_sent
        )
        assert sum(e["cat_i"] for e in events) == result.stats.cat_i

    def test_protocol_run_times_both_parties(self):
        from repro.circuit import CircuitBuilder
        from repro.circuit import modules as M
        from repro.circuit.bits import int_to_bits
        from tests.helpers import run_protocol

        b = CircuitBuilder()
        x = b.alice_input(8)
        y = b.bob_input(8)
        b.set_outputs(M.ripple_add(b, x, y))
        net = b.build()
        obs = Obs(sink=ListSink())
        result = run_protocol(
            net, 1, alice=int_to_bits(5, 8), bob=int_to_bits(9, 8), obs=obs
        )
        assert result.value == 14
        assert set(obs.trees) == {"alice", "bob"}
        timing = result.timing
        assert timing is not None
        for phase in ("garble", "eval", "channel.wait", "step"):
            assert phase in timing
        # Both parties blocked on the channel at least once.
        assert result.alice_wait_seconds > 0
        assert result.bob_wait_seconds > 0
        threads = {e["thread"] for e in obs.sink.events}
        assert threads == {"alice", "bob"}
        # Half-gate garbling + evaluation + OT all hash labels.
        assert obs.counters()["hash.calls"] > 0

    def test_trace_build_is_timed_once_cold_and_never_warm(self):
        from repro import bench_circuits as BC
        from repro.circuit.bits import int_to_bits
        from tests.helpers import run_protocol

        net, cycles = BC.sum_sequential(8)
        inputs = dict(alice=lambda c: int_to_bits(5, 8)[c:c + 1],
                      bob=lambda c: int_to_bits(9, 8)[c:c + 1])
        cold = Obs(sink=ListSink())
        result = run_protocol(net, cycles, obs=cold, **inputs)
        assert result.value == 14
        # Whichever party reached attach first built it; the other hit.
        assert cold.phase_totals()["trace.build"].calls == 1
        builds = [e for e in cold.sink.events if e["event"] == "trace.build"]
        assert len(builds) == 1
        assert builds[0]["ops"] > 0 and builds[0]["labels"] >= builds[0]["slots"] > 0
        # Replayed cycles still report: one event per cycle per party,
        # with the recorded category counts and no sweep-only phases.
        cycle_events = [e for e in cold.sink.events if e["event"] == "cycle"]
        assert len(cycle_events) == 2 * cycles
        assert sum(e["tables_sent"] for e in cycle_events
                   if e["thread"] == "alice") == result.stats.tables_sent
        assert all(e["reduce_seconds"] == e["macro_seconds"] == 0.0
                   for e in cycle_events)
        assert "reduce" not in result.timing and "macro" not in result.timing

        warm = Obs(sink=ListSink())
        run_protocol(net, cycles, obs=warm, **inputs)
        assert "trace.build" not in warm.phase_totals()
        assert not [e for e in warm.sink.events if e["event"] == "trace.build"]
