"""Garbling cost accounting.

The paper's sole cost metric is the **number of garbled non-XOR gates**
(Section 5.2): under free-XOR [15] XOR gates are free, and under
half-gates [49] every garbled non-XOR gate costs two ciphertexts of
communication, which is the GC bottleneck [7].  :class:`RunStats`
tracks that metric per cycle plus the per-category breakdown of the
SkipGate algorithm and the bookkeeping needed for the complexity bound
of Section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CycleStats:
    """SkipGate statistics for a single sequential cycle."""

    cycle: int = 0
    #: Category i: both inputs public; computed locally.
    cat_i: int = 0
    #: Category ii: one public input; collapsed to const/wire/inverter.
    cat_ii: int = 0
    #: Category iii: identical or inverted secret labels; resolved locally.
    cat_iii: int = 0
    #: Category iv XOR/XNOR gates: free under free-XOR.
    cat_iv_xor: int = 0
    #: Category iv non-XOR gates garbled this cycle (before filtering).
    cat_iv_garbled: int = 0
    #: Garbled tables dropped because label_fanout reached 0 (Alg. 4 l.18).
    tables_filtered: int = 0
    #: Garbled tables actually sent: cat_iv_garbled - tables_filtered.
    tables_sent: int = 0
    #: Invocations of recursive_reduction (fanout decrements; Sec. 3.4).
    reduction_calls: int = 0
    #: Dynamic gates expanded by memory macros this cycle.
    dynamic_gates: int = 0
    #: Static gates skipped because their label_fanout was already 0
    #: when reached ("for g where label_fanout > 0", Algorithms 4-5).
    dead_skipped: int = 0


@dataclass
class RunStats:
    """Aggregated statistics for a full sequential SkipGate run."""

    cycles: int = 0
    #: Non-XOR gates per cycle under conventional GC (circuit size).
    conventional_nonxor_per_cycle: int = 0
    per_cycle: List[CycleStats] = field(default_factory=list)

    cat_i: int = 0
    cat_ii: int = 0
    cat_iii: int = 0
    cat_iv_xor: int = 0
    cat_iv_garbled: int = 0
    tables_filtered: int = 0
    tables_sent: int = 0
    reduction_calls: int = 0
    dynamic_gates: int = 0
    dead_skipped: int = 0

    def add_cycle(self, cs: CycleStats) -> None:
        """Fold one cycle's stats into the aggregate."""
        self.cycles += 1
        self.per_cycle.append(cs)
        self.cat_i += cs.cat_i
        self.cat_ii += cs.cat_ii
        self.cat_iii += cs.cat_iii
        self.cat_iv_xor += cs.cat_iv_xor
        self.cat_iv_garbled += cs.cat_iv_garbled
        self.tables_filtered += cs.tables_filtered
        self.tables_sent += cs.tables_sent
        self.reduction_calls += cs.reduction_calls
        self.dynamic_gates += cs.dynamic_gates
        self.dead_skipped += cs.dead_skipped

    def prefix(self, cycles: int) -> "RunStats":
        """The aggregate of the first ``cycles`` cycles, as a new object."""
        out = RunStats(
            conventional_nonxor_per_cycle=self.conventional_nonxor_per_cycle
        )
        for cs in self.per_cycle[:cycles]:
            out.add_cycle(cs)
        return out

    # -- the paper's headline numbers ---------------------------------------

    @property
    def garbled_nonxor(self) -> int:
        """Total garbled non-XOR gates communicated (the paper's metric)."""
        return self.tables_sent

    @property
    def conventional_nonxor(self) -> int:
        """Cost without SkipGate: circuit non-XOR count x cycles.

        This is how the paper computes the "w/o SkipGate" columns, e.g.
        1,909 x 126,755 = 241,975,295 for Hamming 160 (Section 5.6).
        """
        return self.conventional_nonxor_per_cycle * self.cycles

    @property
    def skipped(self) -> int:
        """Gates skipped relative to conventional GC (Table 1 column)."""
        return self.conventional_nonxor - self.garbled_nonxor

    @property
    def improvement_pct(self) -> float:
        """Percentage improvement over conventional GC (Table 1)."""
        conv = self.conventional_nonxor
        if conv == 0:
            return 0.0
        return 100.0 * self.skipped / conv

    @property
    def improvement_factor(self) -> float:
        """Multiplicative improvement (Table 4 reports this / 1000)."""
        if self.garbled_nonxor == 0:
            return float("inf") if self.conventional_nonxor else 1.0
        return self.conventional_nonxor / self.garbled_nonxor

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"cycles={self.cycles} garbled_nonxor={self.garbled_nonxor} "
            f"conventional={self.conventional_nonxor} "
            f"(cat i/ii/iii/xor/garbled = {self.cat_i}/{self.cat_ii}/"
            f"{self.cat_iii}/{self.cat_iv_xor}/{self.cat_iv_garbled}, "
            f"filtered={self.tables_filtered})"
        )
