"""Human-readable rendering of collected instrumentation.

``render_profile`` prints the flat per-phase breakdown (the canonical
phases always appear, even at zero, so profiles are comparable across
runs and backends); ``render_tree`` prints each thread's span tree
with nesting.
"""

from __future__ import annotations

from typing import Dict, Union

from .core import NullObs, Obs, PhaseTotal

#: Phases always shown in the profile, in display order.  ``garble``
#: and ``eval`` are the per-table crypto work on Alice's and Bob's
#: side, ``channel.wait`` is time blocked on the peer and ``step`` the
#: whole per-cycle replay.
CANONICAL_PHASES = ("garble", "eval", "channel.wait", "step")


def timing_summary(obs: Union[Obs, NullObs]) -> Dict[str, float]:
    """Phase name -> total seconds (plain dict for results/JSON)."""
    return {name: pt.seconds for name, pt in obs.phase_totals().items()}


def render_profile(obs: Union[Obs, NullObs]) -> str:
    """Flat per-phase table: calls, total seconds, share of ``step``."""
    totals = obs.phase_totals()
    names = list(CANONICAL_PHASES)
    names += sorted(n for n in totals if n not in CANONICAL_PHASES)
    base = totals.get("step", PhaseTotal(0.0, 0)).seconds
    lines = [f"{'phase':<16} {'calls':>10} {'seconds':>10} {'% of step':>10}"]
    for name in names:
        pt = totals.get(name, PhaseTotal(0.0, 0))
        pct = f"{100.0 * pt.seconds / base:>9.1f}%" if base > 0 else f"{'-':>10}"
        lines.append(f"{name:<16} {pt.calls:>10,} {pt.seconds:>10.4f} {pct}")
    counters = obs.counters()
    if counters:
        lines.append("")
        lines.append(f"{'counter':<32} {'value':>12}")
        for name in sorted(counters):
            lines.append(f"{name:<32} {counters[name]:>12,}")
    return "\n".join(lines)


def render_tree(obs: Union[Obs, NullObs]) -> str:
    """Per-thread hierarchical span trees (inclusive times)."""
    lines = []
    trees = getattr(obs, "trees", {})
    for label in sorted(trees):
        for depth, node in trees[label].walk():
            if depth == 0:
                lines.append(f"[{label}]")
            else:
                indent = "  " * depth
                lines.append(
                    f"{indent}{node.name:<{max(2, 24 - 2 * depth)}} "
                    f"{node.seconds:>10.4f}s  x{node.calls:,}"
                )
    return "\n".join(lines)
