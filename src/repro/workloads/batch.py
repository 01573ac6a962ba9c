"""Batched-inputs execution: one garble pass, a vector of queries.

"Reuse It Or Lose It" (Mood et al.) motivates amortizing garbling
work across evaluator queries; naive garbled-circuit *reuse* leaks
labels, so the safe construction is a **batched circuit**: the
workload's netlist is built with ``B`` Bob query slots sharing Alice's
input wires (see :func:`repro.workloads.psi.build_psi`), and one
ordinary session over that netlist answers ``B`` queries.  What
amortizes is everything paid per *session* rather than per *gate*:
dial + handshake, admission, the IKNP base-OT phase (kappa DH
exchanges), Alice's input-label transfer, and the
scheduling/decode overhead — which is why a batch of N queries beats N
independent sessions (the ``psi_batch_speedup`` gate in
``benchmarks/bench_psi.py``).

:func:`run_batch` is the in-process operator surface (local simulator
or the two-party protocol, both parties in-process) —
``repro.api.run_batch`` re-exports it.  The serve-path equivalent is
``ServeClient.run_batch``, which runs the same batched program as one
evaluator session against a server already serving the ``@b<N>``
shape; both return the same :class:`BatchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import batched_name, get_workload
from .psi import encode_bob_batch, set_from_seed

__all__ = ["BatchQuery", "BatchResult", "encode_batch", "run_batch",
           "split_batch"]


@dataclass(frozen=True)
class BatchQuery:
    """One query's slice of a batched result."""

    index: int
    outputs: List[int]
    #: Decoded intersection size (PSI workloads).
    size: int
    #: Per-slot membership flags (hash variant; None when the shape
    #: reveals only the size).
    flags: Optional[List[int]] = None


@dataclass
class BatchResult:
    """What one batched pass produced, split per query."""

    workload: str
    program: str
    batch: int
    queries: List[BatchQuery] = field(default_factory=list)
    outputs: List[int] = field(default_factory=list)
    garbled_nonxor: Optional[int] = None
    #: The underlying engine/session result (RunResult,
    #: ProtocolResult or SessionResult — mode-dependent).
    raw: object = None

    @property
    def sizes(self) -> List[int]:
        return [q.size for q in self.queries]

    def to_record(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "program": self.program,
            "batch": self.batch,
            "sizes": self.sizes,
            "garbled_nonxor": self.garbled_nonxor,
        }


def _resolve(workload: str, n_queries: int):
    """The base workload and its batch-``n_queries`` sibling."""
    base = get_workload(workload)
    if base.batch != 1:
        raise ValueError(
            f"pass the base workload name, not the batched shape "
            f"({workload!r} is batch-{base.batch})"
        )
    if n_queries < 1:
        raise ValueError("run_batch needs at least one query")
    name = batched_name(workload, n_queries)
    return base, get_workload(name), name


def encode_batch(workload: str, values: Sequence[int]) -> List[int]:
    """Bob's input bits for a batch of seeded query sets."""
    _base, batched, _name = _resolve(workload, len(values))
    spec = batched.spec
    return encode_bob_batch(spec, [
        set_from_seed(spec, int(v)) for v in values
    ])


def split_batch(
    workload: str, n_queries: int, outputs: Sequence[int]
) -> List[BatchQuery]:
    """Slice + decode a batched output vector into per-query results."""
    _base, batched, _name = _resolve(workload, n_queries)
    queries: List[BatchQuery] = []
    for i, bits in enumerate(batched.split_outputs(outputs)):
        decoded = batched.decode_query(bits)
        queries.append(BatchQuery(
            index=i,
            outputs=list(bits),
            size=int(decoded["size"]),
            flags=decoded["flags"],
        ))
    return queries


def run_batch(
    workload: str,
    values: Sequence[int],
    *,
    server_value: int = 0,
    mode: str = "local",
    ot_group: str = "modp512",
    timeout: Optional[float] = None,
    seed: Optional[int] = None,
    obs=None,
) -> BatchResult:
    """Run a workload over a vector of evaluator query seeds in one
    garbling pass, in-process.

    ``values[j]`` seeds query ``j``'s set
    (:func:`~repro.workloads.psi.set_from_seed`); ``server_value``
    seeds the garbler's set.  ``mode="local"`` runs the counting
    simulator, ``mode="protocol"`` the real two-party crypto with both
    parties in-process.  Returns a :class:`BatchResult` whose
    ``queries[j].outputs`` is bit-identical to a fresh batch-1 run of
    query ``j`` alone — asserted by ``tests/workloads``.
    """
    if mode not in ("local", "protocol"):
        raise ValueError(
            f"run_batch runs mode 'local' or 'protocol', not {mode!r}; "
            "use ServeClient.run_batch for the serve path"
        )
    base, batched, name = _resolve(workload, len(values))
    from .. import api

    net, cycles = batched.build()
    inputs = {
        "alice": batched.alice_source(server_value, cycles),
        "bob": encode_batch(workload, values),
    }
    kwargs = dict(mode=mode, cycles=cycles, obs=obs)
    if mode == "protocol":
        kwargs.update(ot_group=ot_group, timeout=timeout,
                      seed=seed)
    elif seed is not None:
        kwargs.update(seed=seed)
    res = api.run(net, inputs, **kwargs)
    outputs = list(res.outputs)
    return BatchResult(
        workload=workload,
        program=name,
        batch=len(values),
        queries=split_batch(workload, len(values), outputs),
        outputs=outputs,
        garbled_nonxor=res.stats.garbled_nonxor,
        raw=res,
    )
