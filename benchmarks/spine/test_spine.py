"""Self-test of the measurement spine.

    python -m pytest benchmarks/spine

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  One
``run.py --quick --traced`` pass over all five workloads (about a
tenth of the size, well under a minute) feeds most checks; the rest
are static checks of ``BENCHMARK.json``, ``baseline.json`` and the
helpers.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import spans  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One quick traced pass: its standard output and result file."""
    out = tmp_path_factory.mktemp("spine")
    proc = subprocess.run(RUN + ["--quick", "--traced", "--seed", "5",
                                 "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    (result,) = out.glob("result-*.json")
    with open(result) as fh:
        record = json.load(fh)
    return {"stdout": proc.stdout, "record": record, "path": str(result)}


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/spine"]
    assert spec["command"][-1] == "benchmarks/spine/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [x["name"] for x in
             spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # The driver makes 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert 3420 / runs >= 2 * spec["run_seconds"]


# -- the quick pass ------------------------------------------------------------


def _printed(stdout: str) -> dict:
    """``{(workload, part): {metric: (value, unit)}}`` from the text."""
    sections: dict = {}
    current = None
    for line in stdout.splitlines():
        head = re.match(r"(\w+) -- (end to end|per layer)", line)
        if head:
            part = "per_layer" if head.group(2) == "per layer" else "end_to_end"
            current = sections.setdefault((head.group(1), part), {})
            continue
        row = re.match(r"  (\S+)\s+(-?[\d.]+(?:e[+-]?\d+)?)\s+(\S+)", line)
        if row and current is not None:
            current[row.group(1)] = (float(row.group(2)), row.group(3))
    return sections


def test_every_declared_metric_is_printed_with_its_unit(spec, quick):
    printed = _printed(quick["stdout"])
    for w in spec["workloads"]:
        for part in ("end_to_end", "per_layer"):
            rows = printed[w["name"], part]
            for m in spec[part]:
                assert m["name"] in rows, (w["name"], m["name"])
                assert rows[m["name"]][1] == m["unit"], (w["name"], m)


def test_names_are_plain_and_values_finite(quick):
    for workload, entry in quick["record"]["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            result = entry[part]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            for name, row in result["metrics"].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
                assert math.isfinite(row["value"]), (workload, name)


def test_correctness_gates_ran(quick):
    loads = quick["record"]["workloads"]
    for name in ("serve_online", "serve_full", "fleet_routed"):
        checks = loads[name]["per_layer"]["checks"]
        assert checks["accepted_is_completed_plus_failed"]
        assert checks["no_failed_sessions"] and checks["children_reaped"]
    layers = {n: loads[n]["per_layer"]["metrics"] for n in loads}
    assert layers["serve_online"]["gc.material.hit_ratio"]["value"] == 1.0
    assert layers["fleet_routed"]["gc.material.hit_ratio"]["value"] == 1.0
    assert layers["serve_full"]["gc.material.hit_ratio"]["value"] == 0.0
    assert loads["fleet_routed"]["per_layer"]["checks"][
        "router_routed_every_session"]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for name, entry in loads.items():
        assert (entry["end_to_end"]["metrics"]["wire_bytes_per_op"]["value"]
                == expected["wire_bytes_per_op"][name + "@quick"]), name


def test_metadata_is_recorded(quick):
    meta = quick["record"]["meta"]
    for key in ("nproc", "python", "platform", "commit", "seed", "loop",
                "loopback"):
        assert key in meta
    assert meta["loop"] == "closed" and meta["seed"] == 5
    for entry in quick["record"]["workloads"].values():
        policy = entry["per_layer"]["policy"]
        assert policy["clients"] <= meta["nproc"]
        assert policy["ops"] >= 1 and policy["windows"] >= 1


def test_span_files_are_well_formed_trees(quick):
    for workload, entry in quick["record"]["workloads"].items():
        records = spans.read_jsonl(entry["per_layer"]["span_file"])
        assert records, workload
        assert spans.tree_errors(records) == [], workload
        assert all(v >= -1e-6 for v in spans.self_times(records).values())
        counts = entry["per_layer"]["span_counts"]
        assert counts["ops_traced"] >= 1
        ops = [s for s in records if s["name"] == "op"]
        assert len({s["op_id"] for s in ops}) == len(ops) >= 1
    # Named in the acceptance criteria: measured, with samples behind them.
    loads = quick["record"]["workloads"]
    fleet = loads["fleet_routed"]["per_layer"]["metrics"]
    assert fleet["serve.router.hop_p50_ms"]["value"] > 0
    assert loads["serve_online"]["per_layer"]["metrics"][
        "serve.client.gap_p50_ms"]["value"] != 0
    for entry in loads.values():
        m = entry["per_layer"]["metrics"]
        assert m["core.plan.us_per_cycle"]["value"] > 0
        assert "bench.explained_share" in m
        assert "bench.trace_overhead_share" in m


def test_a_result_compares_clean_against_itself(spec, quick):
    summary = compare.summarize([quick["path"]])
    assert compare.compare(summary, summary, spec, layers=True) == 0


def test_driver_call_prints_one_result_line(spec, tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "serve_online", "--seed", "11", "--seconds", "1",
               "--trace", "0", "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure."""
    import shutil

    bare = tmp_path / "benchmarks" / "spine"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "arm_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_refuses_more_client_threads_than_cores(monkeypatch, capsys):
    import worker

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(sys, "argv", [
        "worker.py", "--mode", "measure", "--workload", "serve_full",
        "--seed", "1", "--seconds", "1", "--out", "unused"])
    assert worker.main() == 2
    assert "refusing" in capsys.readouterr().err


# -- baseline.json -------------------------------------------------------------


def test_baseline_holds_the_layer_predictions(spec):
    with open(os.path.join(HERE, "baseline.json")) as fh:
        base = json.load(fh)
    assert base["schema"] == compare.SUMMARY_SCHEMA and len(base["runs"]) >= 3
    loads = base["workloads"]
    assert set(loads) == {w["name"] for w in spec["workloads"]}

    def layer(workload, name):
        return loads[workload]["per_layer"][name]["median"]

    def plan_share(workload):
        plan_ms = (2 * layer(workload, "core.plan.cycles_per_op")
                   * layer(workload, "core.plan.us_per_cycle") / 1e3)
        return plan_ms / loads[workload]["end_to_end"]["op_p50_ms"]["median"]

    assert plan_share("arm_sweep") > plan_share("gc_heavy")
    assert (layer("gc_heavy", "gc.hashing.calls_per_op")
            >= 100 * layer("arm_sweep", "gc.hashing.calls_per_op"))
    assert layer("serve_online", "gc.material.hit_ratio") == 1.0
    assert layer("fleet_routed", "gc.material.hit_ratio") == 1.0
    assert layer("serve_full", "gc.material.hit_ratio") == 0.0
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for name, entry in loads.items():
        assert entry["end_to_end"]["failed_share"]["median"] == 0
        wire = entry["end_to_end"]["wire_bytes_per_op"]
        assert wire["q1"] == wire["q3"] == wire["median"]
        assert wire["median"] == expected["wire_bytes_per_op"][name]
        for m in spec["end_to_end"]:
            assert m["name"] in entry["end_to_end"]
        for m in spec["per_layer"]:
            assert m["name"] in entry["per_layer"]


# -- helpers -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    records = [
        {"id": 0, "name": "op", "start": 0.0, "end": 10.0, "parent": None,
         "op_id": 1},
        {"id": 1, "name": "a", "start": 1.0, "end": 6.0, "parent": 0,
         "op_id": 1},
        {"id": 2, "name": "b", "start": 4.0, "end": 8.0, "parent": 0,
         "op_id": 1},
    ]
    assert spans.tree_errors(records) == []
    assert spans.self_times(records)[0] == pytest.approx(3.0)
    broken = records + [{"id": 3, "name": "c", "start": 9.0, "end": 11.0,
                         "parent": 0, "op_id": 1},
                        {"id": 4, "name": "d", "start": 1.0, "end": 2.0,
                         "parent": 9, "op_id": 1}]
    errors = spans.tree_errors(broken)
    assert any("outside parent" in e for e in errors)
    assert any("does not exist" in e for e in errors)


def test_verdicts():
    steady = {"median": 100.0, "q1": 99.0, "q3": 101.0, "n": 3}
    slower = {"median": 115.0, "q1": 114.0, "q3": 116.0, "n": 3}
    noisy = {"median": 115.0, "q1": 100.0, "q3": 130.0, "n": 3}
    assert compare.verdict(steady, steady, "lower", 0.10)[1] == "ok"
    assert compare.verdict(steady, slower, "lower", 0.10)[1] == "worse"
    assert compare.verdict(steady, slower, "higher", 0.10)[1] == "ok"
    assert compare.verdict(slower, steady, "higher", 0.10)[1] == "worse"
    assert compare.verdict(steady, noisy, "lower", 0.10)[1] == "unresolved"
