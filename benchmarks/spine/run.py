"""Measurement spine: one command, five workloads, end-to-end and
per-layer metrics.

    python3 benchmarks/spine/run.py                      # every workload
    python3 benchmarks/spine/run.py --traced             # ... plus the traced run
    python3 benchmarks/spine/run.py --workload gc_heavy --seed 7
    python3 benchmarks/spine/run.py --workload gc_heavy --seed 7 \\
        --seconds 12 --trace 1                           # what a driver calls

Every measurement runs in a fresh ``worker.py`` process.  For the
end-to-end run of a workload this file starts three: two that only set
the workload up (for ``setup_s``, the median of three fresh set-ups)
and one that sets it up and measures.  Every metric is printed by name
with its unit; with ``--workload`` the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.

See README.md in this directory for the metric glossary, the reason
for each workload and how to read the trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
from compare import quartile_summary  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
DEFAULT_OUT = os.path.join(HERE, "out")

#: Fresh-process set-ups behind one ``setup_s`` (the measuring process
#: is one of them).
SETUP_SAMPLES = 3
#: A worker that has not finished by then is killed (the driver's own
#: limit for one run is 180 s).
WORKER_TIMEOUT_S = 170.0
#: Printed and stored, but always 0 on a passing run, so not declared
#: in BENCHMARK.json (whose metrics must never be 0); ``failed`` in the
#: result line carries the same fact.
EXTRA_UNITS = {"failed_share": "ratio"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units_of(spec: dict) -> Dict[str, str]:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    return units


def commit_id() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_meta(args) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": commit_id(),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "loop": "closed", "loopback": True,
        "setup_samples": 1 if args.quick else SETUP_SAMPLES,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def worker(mode: str, workload: str, args) -> dict:
    """Run ``worker.py`` once and return the JSON object it printed."""
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", args.out]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}/{mode}: no result within {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}/{mode}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_end_to_end(workload: str, args) -> dict:
    extra = 0 if args.quick else SETUP_SAMPLES - 1
    setups = [worker("setup", workload, args)["setup_s"]
              for _ in range(extra)]
    result = worker("measure", workload, args)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"] = {"value": median(setups),
                                    **quartile_summary(setups)}
    return result


def show(workload: str, title: str, result: dict, units: Dict[str, str]) -> None:
    print(f"\n{workload} -- {title}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, "
          f"{'correct' if result['correct'] else 'NOT CORRECT'}")
    for name, row in result["metrics"].items():
        spread = ""
        if row.get("n", 1) > 1 and "q1" in row:
            spread = f"   [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n {row['n']}]"
        print(f"  {name:<36} {row['value']:>16.6f} {units[name]}{spread}")
    for name, ok in result.get("checks", {}).items():
        if not ok:
            print(f"  check failed: {name}")


def contract_line(result: dict, declared: List[dict]) -> str:
    """The one-line result a driver reads: exactly the declared
    metrics, each with its value and unit."""
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        if not math.isfinite(value):
            sys.exit(f"{m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1,
                    help="inputs are generated from this (default 1)")
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds "
                         "of BENCHMARK.json; a tenth of it with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: run traced and report the per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="run end to end, then traced, and report both")
    ap.add_argument("--quick", action="store_true",
                    help="about a tenth of the size: smaller circuits, "
                         "shorter windows, one set-up sample")
    ap.add_argument("--out", help=f"where spans and result files go "
                                  f"(default {DEFAULT_OUT})")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec["run_seconds"] / (10.0 if args.quick else 1.0)
    write_result = args.out is not None or args.workload is None
    args.out = os.path.abspath(args.out or DEFAULT_OUT)

    units = units_of(spec)
    record = {"schema": "spine-result/1", "meta": host_meta(args),
              "workloads": {}}
    last = part = None
    for workload in ([args.workload] if args.workload else names):
        entry = record["workloads"].setdefault(workload, {})
        traced = None
        if args.traced or args.trace == 1:
            traced = worker("trace", workload, args)
        if args.traced and args.quick:
            # A smoke run: the traced worker's untraced windows stand in
            # for the separate end-to-end run.
            part, entry["end_to_end"] = "end_to_end", {
                **{key: traced[key] for key in
                   ("correct", "attempted", "failed", "checks", "policy")},
                "metrics": traced["untraced_end_to_end"]}
            show(workload, "end to end (of the traced run)",
                 entry["end_to_end"], units)
        elif traced is None or args.traced:
            part, entry["end_to_end"] = "end_to_end", run_end_to_end(
                workload, args)
            show(workload, "end to end", entry["end_to_end"], units)
        if traced is not None:
            part, entry["per_layer"] = "per_layer", traced
            show(workload, "per layer (traced run)", traced, units)
            print(f"  spans -> {traced['span_file']}")
        last = entry[part]
    if write_result:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(
            args.out, "result-seed%d-%s.json"
            % (args.seed, time.strftime("%Y%m%dT%H%M%S")))
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"\nresult -> {path}")
    if args.workload:
        print(contract_line(last, spec[part]))
    ok = all(part["correct"] for entry in record["workloads"].values()
             for part in entry.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
