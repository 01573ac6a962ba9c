"""Workloads served end-to-end: bit-identity between the local
simulator, a single shard and a routed 2-shard fleet; keyed garbler
sets; and the batched-inputs client path."""

import pytest

from repro import api
from repro.serve import (
    GarbleServer,
    LocalFleet,
    ServeClient,
    ServeConfig,
    make_server,
)
from repro.serve.loadgen import run_loadgen
from repro.workloads import (
    get_workload,
    verify_outcomes,
    workload_keyed_program,
    workload_program,
)
from repro.workloads import psi as P
from repro.workloads.batch import run_batch

SERVER_SEED = 7


def _local_reference(name, server_value, value):
    wl = get_workload(name)
    net, cycles = wl.build()
    return api.run(
        net,
        {"alice": wl.alice_source(server_value, cycles),
         "bob": wl.bob_source(value, cycles)},
        cycles=cycles,
    )


class TestSingleShard:
    def test_served_psi_is_bit_identical_to_local_simulator(self):
        name = "psi-sort8x16"
        with make_server([name], value=SERVER_SEED, pool="thread") as srv:
            with ServeClient(srv.host, srv.port) as client:
                for value in (11, 29):
                    res = client.run(name, value)
                    ref = _local_reference(name, SERVER_SEED, value)
                    assert list(res.outputs) == list(ref.outputs)
                    assert (res.stats.garbled_nonxor
                            == ref.stats.garbled_nonxor)
                    wl = get_workload(name)
                    spec = wl.spec
                    a = set(P.set_from_seed(spec, SERVER_SEED))
                    b = set(P.set_from_seed(spec, value))
                    decoded = wl.decode_query(list(res.outputs))
                    assert decoded["size"] == len(a & b)

    def test_loadgen_verifies_workload_semantics(self):
        name = "psi-hash8x16"
        with make_server([name], value=SERVER_SEED, pool="thread") as srv:
            report = run_loadgen(
                srv.host, srv.port, name, clients=2,
                server_value=SERVER_SEED, workload="psi",
            )
        assert report.ok == 2
        assert report.failed == 0 and report.busy == 0
        assert report.verify_errors == []
        assert report.workload == "psi"
        assert report.to_record()["workload"] == "psi"

    def test_loadgen_workload_needs_server_value(self):
        name = "psi-hash8x16"
        with make_server([name], value=SERVER_SEED, pool="thread") as srv:
            report = run_loadgen(
                srv.host, srv.port, name, clients=1, workload="psi",
            )
        assert any("server" in e for e in report.verify_errors)

    def test_loadgen_rejects_unknown_workload_family(self):
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, "sum32", clients=1,
                        workload="nope")


class TestKeyedGarblerSets:
    def test_garbler_key_selects_the_tenant_set(self):
        name = "psi-sort8x16"
        tenants = {"acme": 101, "globex": 202}
        program = workload_keyed_program(name, tenants, value=SERVER_SEED)
        wl = get_workload(name)
        with GarbleServer({name: program}, pool="thread") as srv:
            with ServeClient(srv.host, srv.port) as client:
                for key, seed in tenants.items():
                    res = client.run(name, 31, garbler_key=key)
                    assert list(res.outputs) == wl.oracle(seed, 31)
                # No key -> the default garbler set.
                res = client.run(name, 31)
                assert list(res.outputs) == wl.oracle(SERVER_SEED, 31)


class TestFleetAndBatch:
    def test_fleet_serves_psi_bit_identically_and_batches(self):
        base = "psi-sort8x16"
        values = [41, 42, 43, 44]
        programs = {
            n: workload_program(n, value=SERVER_SEED)
            for n in (base, f"{base}@b{len(values)}")
        }
        config = ServeConfig(pool="thread")
        with LocalFleet(programs, shards=2, config=config) as fleet:
            with ServeClient(fleet.host, fleet.port) as client:
                fresh = [client.run(base, v) for v in values]
                for v, res in zip(values, fresh):
                    ref = _local_reference(base, SERVER_SEED, v)
                    assert list(res.outputs) == list(ref.outputs)
                    assert (res.stats.garbled_nonxor
                            == ref.stats.garbled_nonxor)

                batch = client.run_batch(base, values)
                # One batched session answers every query with the
                # exact bits N fresh sessions produced.
                for j, res in enumerate(fresh):
                    assert batch.queries[j].outputs == list(res.outputs)
                # ... and matches the in-process batched simulator.
                local = run_batch(base, values, server_value=SERVER_SEED)
                assert batch.outputs == local.outputs
                assert batch.garbled_nonxor == local.garbled_nonxor

                errors = verify_outcomes(
                    base, SERVER_SEED,
                    [type("O", (), {
                        "ok": True, "outputs": list(r.outputs),
                        "value": v, "session": f"s{v}",
                    })() for v, r in zip(values, fresh)],
                )
                assert errors == []

    def test_verify_outcomes_flags_non_workload_circuits(self):
        assert verify_outcomes("sum32", 0, []) != []
        assert verify_outcomes("psi-sort8x16", None, []) != []
