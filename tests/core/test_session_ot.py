"""One session OT: Bob's input labels always travel by IKNP extension.

No module chooses between two OTs.  ``ot=`` survives only as a keyword
of the five entry points ``benchmarks/spine`` calls, where
``"extension"`` is the one value accepted; nothing stores, echoes or
forwards it, and the CLIs have no ``--ot`` flag.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro import api
from repro.__main__ import main
from repro.bench_circuits import sum_combinational
from repro.circuit.bits import int_to_bits
from repro.core import protocol
from repro.gc.material import build_material
from repro.net.session import run_resumable_pair
from repro.serve import GarbleServer, ServeClient, ServeConfig, registry_program
from repro.serve.client import run_session
from repro.serve.loadgen import run_loadgen
from repro.workloads.batch import run_batch

NET, CYCLES = sum_combinational(32)
INPUTS = {"alice": int_to_bits(1234, 32), "bob": int_to_bits(4321, 32)}


def test_a_default_protocol_run_extends_and_sends_no_chosen_ot(monkeypatch):
    sent = {"garbler": set(), "evaluator": set()}
    real_pair = protocol.channel_pair

    def tapped_pair(**kwargs):
        ends = real_pair(**kwargs)
        for role, end in zip(sent, ends):
            def send(tag, payload, _send=end.send, _log=sent[role]):
                _log.add(tag)
                _send(tag, payload)

            end.send = send
        return ends

    monkeypatch.setattr(protocol, "channel_pair", tapped_pair)
    res = api.run(NET, INPUTS, mode="protocol", cycles=CYCLES)
    assert res.value == 5555
    # The 128 random base OTs (``ot-setup`` / ``ot-b``), then the
    # extension; no ``ot-e`` either way.
    assert {t for t in sent["garbler"] if t.startswith("ot")} == {"ot-b", "otx-e"}
    assert {t for t in sent["evaluator"] if t.startswith("ot")} == {
        "ot-setup", "otx-u", "otx-d"}


FROZEN = {
    "api.run": lambda ot: api.run(NET, INPUTS, mode="protocol",
                                  cycles=CYCLES, ot=ot),
    "make_parties": lambda ot: protocol.make_parties(NET, CYCLES, ot=ot),
    "ServeConfig": lambda ot: ServeConfig(ot=ot),
    "ServeClient": lambda ot: ServeClient("127.0.0.1", 1, ot=ot),
    "build_material": lambda ot: build_material(NET, CYCLES, ot=ot),
}


@pytest.mark.parametrize("entry", sorted(FROZEN))
def test_the_frozen_spine_keyword_names_only_the_extension(entry):
    with pytest.raises(ValueError, match="'simplest'"):
        FROZEN[entry]("simplest")


def test_serve_config_neither_stores_nor_echoes_nor_forwards_the_keyword():
    config = ServeConfig(ot="extension", pool="thread", precompute=False)
    assert "ot" not in {f.name for f in fields(ServeConfig)}
    assert "ot" not in config.to_dict()  # the ``stats`` config echo
    assert config.replace(workers=3).workers == 3
    assert ServeConfig.from_dict(config.to_dict()) == config
    server = GarbleServer({"sum32": registry_program("sum32", 1)}, config=config)
    # What every worker is handed: the server's config, as stored.
    assert "ot" not in vars(server.config)


@pytest.mark.parametrize("fn", [
    protocol._run_protocol, protocol.GarblerParty, protocol.EvaluatorParty,
    protocol.GarblerBackend, protocol.EvaluatorBackend,
    protocol.GarblerParty.from_material, protocol.record_material,
    run_resumable_pair, run_session, ServeClient.submit, run_loadgen,
    run_batch,
], ids=lambda fn: fn.__qualname__)
def test_no_other_entry_point_takes_the_keyword(fn):
    assert "ot" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("argv", [
    ["party", "both", "--transport", "memory", "--circuit", "sum32"],
    ["serve", "--circuit", "sum32"],
    ["loadgen", "--connect", "127.0.0.1:1"],
], ids=lambda argv: argv[0])
def test_the_clis_reject_an_ot_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--ot", "extension"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ot extension" in capsys.readouterr().err
