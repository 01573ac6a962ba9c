"""The PSI circuit family: generator correctness against the python
oracle, input encoding contracts, naming, registry splice and the
batched-inputs API."""

import pickle
import random

import pytest

from repro import api
from repro.net.cli import circuit_names, _registry
from repro.workloads import (
    REGISTERED_BATCHES,
    batched_name,
    get_workload,
    workload_circuits,
    workload_names,
    workload_registry,
)
from repro.workloads import psi as P
from repro.workloads.batch import encode_batch, run_batch, split_batch


def _run_psi(spec, alice_set, query_sets):
    net, cycles = P.build_psi(spec)
    return api.run(
        net,
        {"alice": P.encode_set(spec, alice_set),
         "bob": P.encode_bob_batch(spec, query_sets)},
        cycles=cycles,
    )


class TestCircuits:
    @pytest.mark.parametrize("variant", ["sort", "hash"])
    @pytest.mark.parametrize("set_size,width", [(2, 8), (4, 8), (8, 16)])
    def test_matches_python_oracle(self, variant, set_size, width):
        spec = P.psi_spec(variant, set_size, width)
        for seed_a, seed_b in [(1, 2), (7, 7), (123, 456)]:
            a = P.set_from_seed(spec, seed_a)
            b = P.set_from_seed(spec, seed_b)
            res = _run_psi(spec, a, [b])
            assert list(res.outputs) == P.expected_outputs(spec, a, [b])
            decoded = P.decode_query(
                spec, P.split_outputs(spec, res.outputs)[0]
            )
            assert decoded["size"] == len(set(a) & set(b))

    @pytest.mark.parametrize("variant", ["sort", "hash"])
    def test_randomized_sweep(self, variant):
        rng = random.Random(99)
        for _ in range(10):
            spec = P.psi_spec(
                variant, rng.choice([2, 4, 8]), rng.choice([8, 12])
            )
            a = P.set_from_seed(spec, rng.randrange(10**6))
            b = P.set_from_seed(spec, rng.randrange(10**6))
            res = _run_psi(spec, a, [b])
            assert list(res.outputs) == P.expected_outputs(spec, a, [b])

    def test_hash_flags_name_bobs_matching_slots(self):
        spec = P.psi_spec("hash", 4, 8)
        a = P.set_from_seed(spec, 3)
        b = P.set_from_seed(spec, 5)
        res = _run_psi(spec, a, [b])
        decoded = P.decode_query(
            spec, P.split_outputs(spec, res.outputs)[0]
        )
        # Reconstruct which of Bob's slots hold a shared element: the
        # flag vector follows Bob's own bucket layout.
        layout = P._bucket_layout(spec, b)
        expect_flags = [
            1 if (e is not None and e in set(a)) else 0
            for bucket in layout for e in bucket
        ]
        assert decoded["flags"] == expect_flags
        assert decoded["size"] == sum(expect_flags)

    def test_sort_variant_reveals_only_the_size(self):
        spec = P.psi_spec("sort", 4, 8)
        bits = P.query_output_bits(spec)
        assert bits == (2 * 4 - 1).bit_length()
        a = P.set_from_seed(spec, 3)
        b = P.set_from_seed(spec, 5)
        res = _run_psi(spec, a, [b])
        assert len(res.outputs) == bits
        decoded = P.decode_query(spec, list(res.outputs))
        assert decoded["flags"] is None

    def test_batched_circuit_shares_alice_wires(self):
        base = P.psi_spec("sort", 4, 8)
        spec = P.psi_spec("sort", 4, 8, batch=3)
        net, _ = P.build_psi(spec)
        net1, _ = P.build_psi(base)
        assert len(net.inputs["alice"]) == len(net1.inputs["alice"])
        assert len(net.inputs["bob"]) == 3 * len(net1.inputs["bob"])
        a = P.set_from_seed(spec, 42)
        qs = [P.set_from_seed(spec, 100 + j) for j in range(3)]
        res = api.run(
            net,
            {"alice": P.encode_set(base, a),
             "bob": P.encode_bob_batch(spec, qs)},
            cycles=1,
        )
        assert list(res.outputs) == P.expected_outputs(spec, a, qs)


class TestSpecAndNames:
    def test_sort_needs_power_of_two_set(self):
        with pytest.raises(ValueError):
            P.psi_spec("sort", 6, 8)

    def test_hash_buckets_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            P.psi_spec("hash", 8, 16, buckets=3)

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            P.psi_spec("sort", 4, 8, batch=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            P.psi_spec("bloom", 4, 8)

    @pytest.mark.parametrize("name", [
        "psi-sort8x16", "psi-hash8x16", "psi-hash8x16@b4",
        "psi-sort16x32",
    ])
    def test_name_round_trip(self, name):
        spec = P.parse_psi_name(name)
        assert spec is not None
        assert P.psi_name(spec) == name

    @pytest.mark.parametrize("name", [
        "psi-sort8", "sort8x16", "psi-bloom8x16", "psi-sort8x16@b",
    ])
    def test_non_psi_names_parse_to_none(self, name):
        assert P.parse_psi_name(name) is None


class TestEncoding:
    SPEC = P.psi_spec("hash", 4, 8)

    def test_wrong_set_size_rejected(self):
        with pytest.raises(ValueError):
            P.encode_set(self.SPEC, (1, 2, 3))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            P.encode_set(self.SPEC, (1, 2, 2, 3))

    def test_out_of_range_elements_rejected(self):
        with pytest.raises(ValueError):
            P.encode_set(self.SPEC, (-1, 1, 2, 3))
        with pytest.raises(ValueError):
            P.encode_set(self.SPEC, (1, 2, 3, 1 << 8))

    def test_bucket_overflow_is_a_loud_error(self):
        spec = P.psi_spec("hash", 4, 8, buckets=2, capacity=2)
        # All four elements hash (low bits) to bucket 0: capacity 2
        # cannot hold them, and silent truncation would be wrong.
        with pytest.raises(ValueError):
            P.encode_set(spec, (2, 4, 6, 8))

    def test_seeded_sets_are_valid_and_deterministic(self):
        for spec in (self.SPEC, P.psi_spec("sort", 8, 16)):
            s1 = P.set_from_seed(spec, 11)
            assert s1 == P.set_from_seed(spec, 11)
            assert len(s1) == spec.set_size
            assert len(set(s1)) == spec.set_size
            assert all(1 <= e <= P.universe(spec) for e in s1)

    def test_seeded_sets_intersect_in_expectation(self):
        spec = P.psi_spec("sort", 8, 16)
        hits = sum(
            len(set(P.set_from_seed(spec, 2 * i))
                & set(P.set_from_seed(spec, 2 * i + 1)))
            for i in range(50)
        )
        # Universe is 4*set_size, so two independent sets share
        # set_size/4 = 2 elements in expectation; 50 pairs give a
        # comfortable margin against an accidental empty-universe bug.
        assert hits > 20

    def test_sources_are_picklable_and_match_encoders(self):
        spec = P.psi_spec("hash", 4, 8, batch=2)
        alice = P.PsiAliceSource(spec)
        bob = P.PsiBobSource(spec)
        assert pickle.loads(pickle.dumps(alice))(5, 1) == alice(5, 1)
        assert alice(5, 1) == P.encode_set(
            spec.base, P.set_from_seed(spec, 5)
        )
        assert bob(9, 1) == P.encode_bob_batch(spec, [
            P.set_from_seed(spec, P.query_seed(9, slot))
            for slot in range(2)
        ])


class TestRegistry:
    def test_registered_names_include_base_and_batch_shapes(self):
        names = workload_names()
        assert "psi-sort8x16" in names
        assert "psi-hash8x16" in names
        for batch in REGISTERED_BATCHES:
            assert f"psi-hash8x16@b{batch}" in names

    def test_workloads_are_first_class_bench_circuits(self):
        reg = _registry()
        for name in workload_names():
            assert name in reg
            assert name in circuit_names()
        entry = reg["psi-sort8x16"]
        wl = workload_registry()["psi-sort8x16"]
        assert entry.alice_source(5, 1) == wl.alice_source(5, 1)
        assert entry.bob_source(9, 1) == wl.bob_source(9, 1)
        assert workload_circuits().keys() == workload_registry().keys()

    def test_get_workload_synthesizes_parseable_names(self):
        wl = get_workload("psi-sort4x8")
        assert wl.name == "psi-sort4x8"
        assert wl.spec.set_size == 4 and wl.spec.width == 8
        with pytest.raises(KeyError):
            get_workload("sum32")

    def test_batched_name_contract(self):
        assert batched_name("psi-sort8x16", 4) == "psi-sort8x16@b4"
        assert batched_name("psi-sort8x16", 1) == "psi-sort8x16"
        with pytest.raises(ValueError):
            batched_name("psi-sort8x16@b4", 2)

    def test_workload_oracle_matches_engine(self):
        wl = get_workload("psi-hash8x16@b4")
        net, cycles = wl.build()
        res = api.run(
            net,
            {"alice": wl.alice_source(7, cycles),
             "bob": wl.bob_source(21, cycles)},
            cycles=cycles,
        )
        assert list(res.outputs) == wl.oracle(7, 21)


class TestRunBatch:
    def test_batch_is_bit_identical_to_solo_runs(self):
        values = [11, 22, 33]
        batch = run_batch("psi-sort8x16", values, server_value=7)
        assert batch.program == "psi-sort8x16@b3"
        assert batch.batch == 3
        for j, v in enumerate(values):
            solo = run_batch("psi-sort8x16", [v], server_value=7)
            assert solo.queries[0].outputs == batch.queries[j].outputs
            assert solo.queries[0].size == batch.queries[j].size

    def test_sizes_match_python_intersections(self):
        spec = get_workload("psi-hash8x16").spec
        values = [5, 6, 7]
        batch = run_batch("psi-hash8x16", values, server_value=3)
        a = set(P.set_from_seed(spec, 3))
        assert batch.sizes == [
            len(a & set(P.set_from_seed(spec, v))) for v in values
        ]
        record = batch.to_record()
        assert record["batch"] == 3
        assert record["sizes"] == batch.sizes

    def test_encode_and_split_round_trip(self):
        values = [1, 2]
        bits = encode_batch("psi-sort8x16", values)
        wl = get_workload("psi-sort8x16@b2")
        assert len(bits) == len(wl.build()[0].inputs["bob"])
        batch = run_batch("psi-sort8x16", values, server_value=9)
        assert split_batch(
            "psi-sort8x16", 2, batch.outputs
        ) == batch.queries

    def test_batched_shape_names_are_rejected_as_input(self):
        with pytest.raises(ValueError):
            run_batch("psi-sort8x16@b4", [1, 2], server_value=0)

    def test_serve_mode_is_not_run_batchs_job(self):
        with pytest.raises(ValueError):
            run_batch("psi-sort8x16", [1], mode="serve")

    def test_api_reexport_and_protocol_mode(self):
        res = api.run_batch(
            "psi-sort8x16", [5, 6], server_value=7,
            mode="protocol",
        )
        local = api.run_batch("psi-sort8x16", [5, 6], server_value=7)
        assert res.outputs == local.outputs
        assert res.garbled_nonxor == local.garbled_nonxor
