"""Compare two sets of spine results, metric by metric.

    python3 benchmarks/spine/compare.py --base A.json --new B.json
    python3 benchmarks/spine/compare.py --base runs/parent/ --new runs/change/
    python3 benchmarks/spine/compare.py --base benchmarks/spine/baseline.json \\
        --new benchmarks/spine/out/
    python3 benchmarks/spine/compare.py --summarize a.json b.json c.json \\
        > benchmarks/spine/baseline.json

Each side is one or more result files written by ``run.py`` (or
directories of them), or one summary written by ``--summarize``.  For
every workload and end-to-end metric it prints both medians with their
quartiles, the relative change, the metric's bound from
``BENCHMARK.json`` and a verdict:

``ok``          the new median is not worse than the base by more than
                the bound
``worse``       it is
``unresolved``  the run-to-run spread (the distance between the
                quartiles, as a share of the median) of either side is
                wider than the bound, so the runs cannot tell

Per-layer metrics have no bound; ``--layers`` prints their medians and
change without a verdict.  Exit status is 1 if any metric is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from statistics import median, quantiles
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

SUMMARY_SCHEMA = "spine-summary/1"


def _files(paths: List[str]) -> List[str]:
    out = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(sorted(glob.glob(os.path.join(path, "result-*.json"))))
        else:
            out.append(path)
    if not out:
        sys.exit(f"no result files in {paths}")
    return out


def quartile_summary(values: List[float]) -> dict:
    """Quartiles (as ``statistics.quantiles`` gives them) and count of
    the samples behind one reported value."""
    if len(values) > 1:
        q1, _q2, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"q1": q1, "q3": q3, "n": len(values)}


def _stats(values: List[float]) -> dict:
    return {"median": median(values), **quartile_summary(values),
            "values": values}


def summarize(paths: List[str]) -> dict:
    """Fold result files into medians and quartiles per workload,
    part (``end_to_end`` / ``per_layer``) and metric."""
    files = _files(paths)
    metas = []
    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    within: Dict[tuple, dict] = {}
    for path in files:
        with open(path) as fh:
            record = json.load(fh)
        if record.get("schema") == SUMMARY_SCHEMA:
            if len(files) > 1:
                sys.exit(f"{path} is a summary; give it alone")
            return record
        metas.append(record["meta"])
        for workload, entry in record["workloads"].items():
            for part, result in entry.items():
                if not result["correct"]:
                    sys.exit(f"{path}: {workload}/{part} was not correct")
                for name, row in result["metrics"].items():
                    samples.setdefault(workload, {}).setdefault(
                        part, {}).setdefault(name, []).append(row["value"])
                    within[workload, part, name] = row
    summary = {"schema": SUMMARY_SCHEMA, "runs": metas, "workloads": {}}
    for workload, parts in samples.items():
        for part, metrics in parts.items():
            for name, values in metrics.items():
                stats = _stats(values)
                row = within[workload, part, name]
                if len(values) == 1 and "q1" in row:
                    # One run: the quartiles over its own windows are
                    # the only spread there is.
                    stats["q1"], stats["q3"] = row["q1"], row["q3"]
                summary["workloads"].setdefault(workload, {}).setdefault(
                    part, {})[name] = stats
    return summary


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) \
        if stats["median"] else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple:
    """``(relative change, verdict)``; a positive change is worse."""
    if base["median"] == 0:
        change = 0.0 if new["median"] == 0 else float("inf")
    else:
        change = (new["median"] - base["median"]) / abs(base["median"])
    if better == "higher":
        change = -change
    if max(_spread(base), _spread(new)) > bound:
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def compare(base: dict, new: dict, spec: dict, layers: bool) -> int:
    worse = 0
    fmt = "{:<14} {:<34} {:>13} {:>25} {:>13} {:>25} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "base", "[q1, q3] n", "new",
                     "[q1, q3] n", "change", "bound", "verdict"))
    declared = [("end_to_end", m) for m in spec["end_to_end"]]
    if layers:
        declared += [("per_layer", m) for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for part, m in declared:
            b = base["workloads"].get(workload, {}).get(part, {}).get(m["name"])
            n = new["workloads"].get(workload, {}).get(part, {}).get(m["name"])
            if b is None or n is None:
                continue
            bound = m.get("bound")
            change, word = verdict(b, n, m["better"],
                                   bound if bound is not None else float("inf"))
            if bound is None:
                word = ""
            worse += word == "worse"
            quart = lambda s: "[%.5g, %.5g] %d" % (s["q1"], s["q3"], s["n"])
            print(fmt.format(
                workload, m["name"], "%.5g" % b["median"], quart(b),
                "%.5g" % n["median"], quart(n), "%+.1f%%" % (100 * change),
                "" if bound is None else "%.0f%%" % (100 * bound), word))
    return worse


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", nargs="+", help="result files or directories")
    ap.add_argument("--new", nargs="+", help="result files or directories")
    ap.add_argument("--layers", action="store_true",
                    help="also print the per-layer metrics (no verdict)")
    ap.add_argument("--summarize", nargs="+", metavar="FILE",
                    help="print the summary of these result files as JSON")
    args = ap.parse_args()
    if args.summarize:
        json.dump(summarize(args.summarize), sys.stdout, indent=1)
        print()
        return 0
    if not (args.base and args.new):
        ap.error("give --base and --new (or --summarize)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    worse = compare(summarize(args.base), summarize(args.new), spec,
                    args.layers)
    print(f"\n{worse} metric(s) worse than their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
