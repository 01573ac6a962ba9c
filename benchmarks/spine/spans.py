"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; nothing inside ``repro`` is
patched.  A span is ``{id, name, start, end, parent, op_id}`` with
times in seconds on the ``perf_counter`` clock, relative to the
tracer's creation.  Spans of one op share ``op_id``; set-up and probe
spans carry ``op_id = None``.

The parent of a span is the innermost open span of the same thread.
Work handed to another thread (the evaluator of an in-process run)
names its parent explicitly.  Spans stay in memory until
:meth:`Tracer.write_jsonl` is called when the run ends.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional


class Tracer:
    """Records spans when ``enabled``; a disabled tracer records
    nothing and costs one attribute test per ``span`` call."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Prepended to span names while a reference probe reuses the
        #: workload classes, so its spans keep apart from the run's own.
        self.prefix = ""
        self.spans: List[dict] = []
        self._t0 = perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None,
             parent: Optional[int] = None):
        """Time the ``with`` body as one span; yields the span id
        (``None`` when disabled) so another thread can adopt it as
        ``parent``."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]["id"]
        if op_id is None and stack:
            op_id = stack[-1]["op_id"]
        with self._lock:
            record = {"id": len(self.spans), "name": self.prefix + name,
                      "start": 0.0, "end": 0.0, "parent": parent,
                      "op_id": op_id}
            self.spans.append(record)
        stack.append(record)
        record["start"] = perf_counter() - self._t0
        try:
            yield record["id"]
        finally:
            record["end"] = perf_counter() - self._t0
            stack.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def read_jsonl(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: Iterable[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the interval its children cover.

    Children of one span may overlap (two parties on two threads), so
    the covered interval is the union, not the sum.
    """
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()))
        for s in spans
    }


def self_time_by_name(spans: List[dict]) -> Dict[str, dict]:
    """Span name -> ``{"count", "total_s", "self_s"}`` over the file."""
    selfs = self_times(spans)
    out: Dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"],
                             {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out


def tree_errors(spans: List[dict], slack: float = 1e-6) -> List[str]:
    """Why ``spans`` is not a well-formed forest (empty when it is):
    every parent exists, every child lies inside its parent, every
    span of an op carries the op's id, and no self time is negative.
    """
    by_id = {s["id"]: s for s in spans}
    errors = []
    if len(by_id) != len(spans):
        errors.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"span {s['id']} {s['name']}: ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {s['id']} {s['name']}: parent "
                          f"{s['parent']} does not exist")
            continue
        if (s["start"] < parent["start"] - slack
                or s["end"] > parent["end"] + slack):
            errors.append(f"span {s['id']} {s['name']}: outside parent "
                          f"{parent['id']} {parent['name']}")
        if parent["op_id"] is not None and s["op_id"] != parent["op_id"]:
            errors.append(f"span {s['id']} {s['name']}: op_id differs "
                          f"from parent {parent['id']}")
    for sid, value in self_times(spans).items():
        if value < -slack:
            errors.append(f"span {sid}: negative self time {value}")
    return errors
