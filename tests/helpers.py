"""Shared test shims over :func:`repro.api.run`.

The legacy ``evaluate_with_stats`` / ``run_protocol`` entrypoints are
gone; :func:`repro.api.run` with an ``inputs`` mapping is the one front
door.  Tests, however, overwhelmingly want the old positional spelling
(``net, cycles, alice=..., bob=...``), so these wrappers keep the
call sites short while routing every test through the public API.
"""

from repro import api

#: Keys lifted out of the keyword arguments into api.run's ``inputs``.
_INPUT_KEYS = (
    "alice", "bob", "public", "alice_init", "bob_init", "public_init"
)


def _split(kwargs: dict) -> dict:
    return {k: kwargs.pop(k) for k in _INPUT_KEYS if k in kwargs}


def run_local(net, cycles=1, **kwargs):
    """``api.run(net, inputs, mode="local", ...)`` — counting backend
    plus plain-simulator outputs (the old ``evaluate_with_stats``)."""
    inputs = _split(kwargs)
    return api.run(net, inputs, mode="local", cycles=cycles, **kwargs)


def run_local_both(net, cycles=1, **kwargs):
    """:func:`run_local` on the reference and the compiled engine.
    The two must agree on outputs and every statistic; used where a
    macro port takes its secret path (the compiled engine then runs
    the port's own ``engine_step`` through its MacroContext)."""
    ref = run_local(net, cycles, engine="reference", **kwargs)
    compiled = run_local(net, cycles, engine="compiled", **kwargs)
    assert ref.outputs == compiled.outputs
    assert ref.stats == compiled.stats
    return compiled


def run_protocol(net, cycles=1, **kwargs):
    """``api.run(net, inputs, mode="protocol", ...)`` — both crypto
    parties in-process (the old ``run_protocol``)."""
    inputs = _split(kwargs)
    return api.run(net, inputs, mode="protocol", cycles=cycles, **kwargs)
