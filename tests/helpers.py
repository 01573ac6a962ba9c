"""Shared test shims over :func:`repro.api.run`.

The legacy ``evaluate_with_stats`` / ``run_protocol`` entrypoints are
gone; :func:`repro.api.run` with an ``inputs`` mapping is the one front
door.  Tests, however, overwhelmingly want the old positional spelling
(``net, cycles, alice=..., bob=...``), so these wrappers keep the
call sites short while routing every test through the public API.
"""

from repro import api
from repro.core.protocol import _expand_bits
from repro.core.run import replay
from repro.core.trace import residual_trace

#: Keys lifted out of the keyword arguments into api.run's ``inputs``.
_INPUT_KEYS = (
    "alice", "bob", "public", "alice_init", "bob_init", "public_init"
)


def _split(kwargs: dict) -> dict:
    return {k: kwargs.pop(k) for k in _INPUT_KEYS if k in kwargs}


def run_local(net, cycles=1, **kwargs):
    """``api.run(net, inputs, mode="local", ...)`` — the residual trace
    replayed in the clear, every output checked against the plain
    simulator (the old ``evaluate_with_stats``)."""
    inputs = _split(kwargs)
    return api.run(net, inputs, mode="local", cycles=cycles, **kwargs)


def replay_trace(trace, net, cycles=1, alice=(), bob=(), alice_init=(),
                 bob_init=(), **_public):
    """:func:`repro.core.run.replay` of a given ``trace`` of ``net`` on
    the spelling of :func:`run_local`: ``(outputs, stats)``."""
    bits = _expand_bits(net, "alice", alice, alice_init, cycles)
    bits.update(_expand_bits(net, "bob", bob, bob_init, cycles))
    return replay(trace, bits)


def run_local_both(net, cycles=1, **kwargs):
    """:func:`run_local`, plus the trace the reference engine builds,
    replayed in the clear.  The two builders must agree on outputs and
    every statistic; used where a macro port takes its secret path (the
    compiled engine then runs the port's own ``engine_step`` through
    its MacroContext)."""
    compiled = run_local(net, cycles, **kwargs)
    inputs = _split(dict(kwargs))
    ref = residual_trace(net, cycles, inputs.get("public", ()),
                         inputs.get("public_init", ()), engine="reference")
    outputs, stats = replay_trace(ref, net, cycles, **inputs)
    assert outputs == compiled.outputs
    assert stats == compiled.stats
    return compiled


def run_protocol(net, cycles=1, **kwargs):
    """``api.run(net, inputs, mode="protocol", ...)`` — both crypto
    parties in-process (the old ``run_protocol``)."""
    inputs = _split(kwargs)
    return api.run(net, inputs, mode="protocol", cycles=cycles, **kwargs)
