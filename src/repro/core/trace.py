"""The residual trace: SkipGate's public sweep, recorded once per program.

Every decision a SkipGate engine takes depends only on public bits and
label *identity* (paper Section 3.5; :mod:`repro.core.backend`), so for
a fixed (netlist, cycle count, public inputs) the backend calls it
issues and its final output states are a constant both parties can
compute ahead of time.  :func:`residual_trace` runs a sweeping engine
**once** over a :class:`TraceBackend`, which numbers every label it
hands out and logs the calls as flat typed-int columns;
:class:`TraceReplayer` then drives any real backend through that log
with no netlist and no engine.  This module decides nothing: which
gates are skipped is the sweeping engines' business alone, and they
stay as trace builder and oracle.  A row the engine's table filter
drops (Algorithm 4 line 18) leaves the trace at build, so no party
garbles or evaluates a table that is never sent.

A trace holds label *ids* and truth tables, never label bytes (the
structure of a run is reusable across sessions, labels and delta are
not): every numeric column is a typed ``array`` that cannot hold a
128-bit label.  A last-use pass rewrites ids to recycled *slots*, so
the replayer's label table is bounded by the peak number of live
labels, not by the length of the run.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import accumulate, compress
from time import perf_counter
from typing import Hashable, List, Sequence

from ..circuit.netlist import Netlist
from ..obs import NULL_OBS
from .backend import Backend, CountingBackend
from .plan import make_engine
from .stats import CycleStats, RunStats

#: Codes of the ``op`` column.  A garble op is ``GARBLE + tt`` (its 4-bit
#: truth table); column ``x`` holds the index into ``keys`` (SECRET), the
#: cycle number (BEGIN) or the gate id (GARBLE: the row's index among
#: every garble the builder saw, filtered ones included).
SECRET, XOR, BEGIN, GARBLE = range(4)

#: Traces kept per netlist (LRU over cycle counts and public inputs).
TRACES_PER_NETLIST = 4
#: Traces built by this process (a cache hit does not count).
BUILDS = 0


class ResidualTrace:
    """One recorded run; read-only (and shared by every session of the
    program) once :func:`residual_trace` has returned it.  Row ``i`` of
    the columns is one backend call writing label slot ``dst[i]`` from
    slots ``a[i]``, ``b[i]``.  ``bounds[0]`` ends the init bucket,
    ``bounds[c + 1]`` cycle ``c``, which sends ``tables[c]`` tables (one
    per garble row: filtered rows are not in the trace); ``keys`` are
    the public ``secret_label`` key tuples, ``outputs`` the final output
    states (a public bit or ``(slot, flip)``), ``stats`` the builder's
    RunStats.  ``runs`` holds the first row of every run (a stretch of
    one kind of call inside one bucket; garbles of any truth table are
    one kind), then ``len(op)``: the replay unit."""

    def __init__(self) -> None:
        self.op = array("B")
        self.x, self.a, self.b, self.dst, self.bounds, self.runs, self.tables = (
            array("l") for _ in range(7))
        self.keys, self.outputs = [], []
        self.stats = RunStats()
        self.n_labels = self.n_slots = 0


class TraceBackend(Backend):
    """Records one sweeping-engine run into ``trace``.  Labels come from
    a wrapped :class:`CountingBackend` and each one handed out gets the
    next id, so ids name *values*: a memoised ``secret_label`` key is
    logged at first mint only, and an ``xor`` that reproduces a label
    is not logged: free XOR is exact, so later rows read the first id,
    not a rebuild through a table the filter may drop (``(a ^ g) ^ g``)."""

    def __init__(self) -> None:
        self._inner = CountingBackend()
        self.ids: dict = {}
        self.trace = t = ResidualTrace()
        self._appends = tuple(c.append for c in (t.op, t.x, t.a, t.b, t.dst))
        self.filtered: set = set()  # gate ids of the tables the engine dropped
        self._gid = self._cycle_gid = 0

    def _log(self, op: int, x: int, a: int = 0, b: int = 0, label=None) -> None:
        t = self.trace
        # Unrolled: this is the recorder's hot path.
        op_, x_, a_, b_, dst_ = self._appends
        op_(op)
        x_(x)
        a_(a)
        b_(b)
        dst_(t.n_labels)
        if label is not None:
            self.ids[label] = t.n_labels
            t.n_labels += 1

    def secret_label(self, key: Hashable) -> int:
        label = self._inner.secret_label(key)
        if label not in self.ids:
            self.trace.keys.append(key)
            self._log(SECRET, len(self.trace.keys) - 1, label=label)
        return label

    def xor(self, la: int, lb: int) -> int:
        label = la ^ lb
        if label not in self.ids:
            self._log(XOR, 0, self.ids[la], self.ids[lb], label)
        return label

    def garble(self, tt: int, la: int, lb: int, key: int) -> int:
        label = self._inner.garble(tt, la, lb, key)
        self._log(GARBLE + tt, self._gid, self.ids[la], self.ids[lb], label)
        self._gid += 1
        return label

    def begin_cycle(self, cycle: int, tables: int = 0) -> None:
        self._log(BEGIN, cycle)
        self._cycle_gid = self._gid

    def end_cycle(self, kept_keys=(), dropped_keys=()) -> None:
        # An engine's gate keys number the cycle's garbles from 0.
        self.filtered.update(self._cycle_gid + key for key in dropped_keys)
        self.trace.tables.append(len(kept_keys))
        self.trace.bounds.append(len(self.trace.op))


class TraceAuditError(RuntimeError):
    """A table the engine filtered (Algorithm 4 line 18) is still read."""


def _drop_filtered(t: ResidualTrace, filtered: set) -> None:
    """Remove, in place, every garble row in ``filtered`` and every xor
    that no remaining row and no output reads, in one backward pass over
    label ids (before slots are assigned); raise
    :class:`TraceAuditError` if a filtered row is still read."""
    op, x, a, b, dst = t.op, t.x, t.a, t.b, t.dst
    live = bytearray(t.n_labels)
    for s in (s for s in t.outputs if type(s) is not int):
        live[s[0]] = 1
    keep = bytearray(len(op))
    for i in range(len(op) - 1, -1, -1):
        o = op[i]
        if o == SECRET or o == BEGIN:
            keep[i] = 1
        elif o >= GARBLE and x[i] in filtered:
            if live[dst[i]]:
                raise TraceAuditError(
                    f"cycle {bisect_right(t.bounds, i) - 1}: the table of gate "
                    f"{x[i]} was filtered, but a later row or an output reads it")
        elif o >= GARBLE or live[dst[i]]:
            keep[i] = live[a[i]] = live[b[i]] = 1
    t.bounds[:] = array("l", accumulate(
        keep.count(1, lo, hi) for lo, hi in zip([0, *t.bounds], t.bounds)))
    for column in (op, x, a, b, dst):
        column[:] = array(column.typecode, compress(column, keep))


def _assign_slots(t: ResidualTrace) -> None:
    """Rewrite label ids to recycled table slots, in place: a slot is
    freed at the last op that reads its label (never, for an output)
    and handed to the next label minted."""
    op, a, b, dst = t.op, t.a, t.b, t.dst
    last = [-1] * t.n_labels
    for i, o in enumerate(op):
        if o == XOR or o >= GARBLE:
            last[a[i]] = last[b[i]] = i
    for s in (s for s in t.outputs if type(s) is not int):
        last[s[0]] = len(op)
    slot = [0] * t.n_labels
    free: List[int] = []
    for i, o in enumerate(op):
        if o == BEGIN:
            continue
        if o != SECRET:
            ia, ib = a[i], b[i]
            a[i], b[i] = slot[ia], slot[ib]
            free += {slot[j] for j in (ia, ib) if last[j] == i}
        if not free:
            free.append(t.n_slots)
            t.n_slots += 1
        s = slot[dst[i]] = free.pop()
        if last[dst[i]] < 0:
            free.append(s)  # never read: reusable at once
        dst[i] = s
    t.outputs[:] = [s if type(s) is int else (slot[s[0]], s[1]) for s in t.outputs]


def _mark_runs(t: ResidualTrace) -> None:
    """Fill ``t.runs``; a BEGIN row is a run of its own."""
    cuts, kind = set(t.bounds), -1
    for i, o in enumerate(t.op):
        o = min(o, GARBLE)
        if o != kind or o == BEGIN or i in cuts:
            t.runs.append(i)
        kind = o
    t.runs.append(len(t.op))


#: netlist -> LRU of its traces (weak-keyed, like the plan cache), and
#: the one lock for cache and build: concurrent Alice/Bob threads over
#: one program build its trace once (the second waits, then hits).
_TRACES: "weakref.WeakKeyDictionary[Netlist, OrderedDict]" = weakref.WeakKeyDictionary()
_TRACE_LOCK = threading.Lock()


def residual_trace(
    net: Netlist, cycles: int, public=(), public_init: Sequence[int] = (),
    engine: str = "compiled", obs=NULL_OBS,
) -> ResidualTrace:
    """Build (or fetch the cached) trace of ``cycles`` cycles of ``net``.
    ``engine`` picks the *builder* (both sweeping engines record the same
    trace); every argument is public — there is no private input to pass."""
    global BUILDS
    rows = [public(c) for c in range(cycles)] if callable(public) else [public]
    cache_key = (cycles, tuple(map(tuple, rows)), tuple(public_init), engine)
    with _TRACE_LOCK:
        lru = _TRACES.setdefault(net, OrderedDict())
        trace = lru.get(cache_key)
        if trace is not None:
            lru.move_to_end(cache_key)
            return trace
        t0 = perf_counter()
        recorder = TraceBackend()
        trace = recorder.trace
        eng = make_engine(net, recorder, public_init=public_init, engine=engine)
        trace.bounds.append(len(trace.op))
        trace.stats = eng.run(cycles, public)
        trace.outputs += [
            s if type(s) is int else (recorder.ids[s[0]], s[1])
            for s in eng.output_states()
        ]
        # The engine's macro context and handler closures point back at
        # it: empty it so it and the recorder (its label -> id map is the
        # size of the run) are freed on return, not by a later cyclic
        # collection.
        vars(eng).clear()
        if recorder.filtered:
            _drop_filtered(trace, recorder.filtered)
        _assign_slots(trace)
        _mark_runs(trace)
        lru[cache_key] = trace
        if len(lru) > TRACES_PER_NETLIST:
            lru.popitem(last=False)
        BUILDS += 1
        seconds = perf_counter() - t0
    if obs.enabled:
        obs.add_time("trace.build", seconds)
        obs.event("trace.build", seconds=round(seconds, 6), ops=len(trace.op),
                  labels=trace.n_labels, slots=trace.n_slots)
    return trace


class TraceReplayer:
    """Drives a real backend through a trace: same calls, same order.
    Exposes what the session layers read of an engine (``cycle``,
    ``stats``, ``output_states()``, ``snapshot()``/``restore()``); the
    init bucket replays on construction, where an engine resolved its
    flip-flop and memory init labels."""

    def __init__(self, trace: ResidualTrace, backend: Backend, obs=NULL_OBS) -> None:
        self.trace, self.backend, self.obs, self.cycle = trace, backend, obs, 0
        self._labels: List[int] = [0] * trace.n_slots
        self._garble_seconds = 0.0
        self._garble_many = (
            self._timed_garble_many if obs.enabled else backend.garble_many)
        self._run(0, trace.bounds[0])

    @property
    def stats(self) -> RunStats:
        """The recorded stats of the cycles replayed so far."""
        return self.trace.stats.prefix(self.cycle)

    def _timed_garble_many(self, *run) -> None:
        t0 = perf_counter()
        self.backend.garble_many(*run)
        self._garble_seconds += perf_counter() - t0

    def _run(self, lo: int, hi: int) -> None:
        """Replay rows ``lo:hi`` a run at a time: a stretch of garbles is
        one ``garble_many`` (with the rows' gate ids), a stretch of input
        labels one ``secret_labels``, and ``begin_cycle`` gets the
        cycle's table count."""
        t, backend, lab = self.trace, self.backend, self._labels
        op, x, a, b, dst, runs = t.op, t.x, t.a, t.b, t.dst, t.runs
        xor, keys = backend.xor, t.keys
        r = bisect_left(runs, lo)
        while lo < hi:
            r += 1
            end = runs[r]
            o = op[lo]
            if o == XOR:
                for ia, ib, d in zip(a[lo:end], b[lo:end], dst[lo:end]):
                    lab[d] = xor(lab[ia], lab[ib])
            elif o >= GARBLE:
                tts = [c - GARBLE for c in op[lo:end]]
                self._garble_many(
                    tts, x[lo:end], a[lo:end], b[lo:end], dst[lo:end], lab)
            elif o == SECRET:
                labels = backend.secret_labels([keys[i] for i in x[lo:end]])
                for d, label in zip(dst[lo:end], labels):
                    lab[d] = label
            else:
                # The cycle's table count is public: the evaluator reads
                # its table blob by it, so no count crosses the wire.
                backend.begin_cycle(x[lo], t.tables[x[lo]])
            lo = end

    def step(self) -> CycleStats:
        """Replay one cycle: labels, ``begin_cycle``, xor/garble, ``end_cycle``."""
        t, c, obs = self.trace, self.cycle, self.obs
        cs = t.stats.per_cycle[c]
        t0 = perf_counter()
        self._garble_seconds = 0.0
        self._run(t.bounds[c], t.bounds[c + 1])
        self.backend.end_cycle()
        self.cycle = c + 1
        if obs.enabled:
            seconds = perf_counter() - t0
            phase = getattr(self.backend, "PROFILE_PHASE", "garble")
            obs.add_time("step", seconds)
            obs.add_time(phase, self._garble_seconds, cs.cat_iv_garbled)
            obs.event(
                "cycle", seconds=round(seconds, 6),
                garble_seconds=round(self._garble_seconds, 6),
                reduce_seconds=0.0, macro_seconds=0.0, **vars(cs),
            )
        return cs

    def output_states(self) -> list:
        """Declared outputs: a public bit or ``(label, flip)``."""
        lab = self._labels
        return [s if type(s) is int else (lab[s[0]], s[1]) for s in self.trace.outputs]

    def snapshot(self) -> dict:
        """A trace position plus the live label table."""
        return {"cycle": self.cycle, "labels": list(self._labels)}

    def restore(self, snap: dict) -> None:
        self.cycle = snap["cycle"]
        self._labels = list(snap["labels"])
