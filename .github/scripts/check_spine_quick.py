"""Every spine workload ran, correct, with no failed op and no failed check.

Reads the one ``result-*.json`` that ``benchmarks/spine/run.py --quick
--out DIR`` wrote.  ``expected.json`` still holds the wire figures of
the per-transfer framing until the spine is re-baselined, so
``wire_bytes_as_committed`` is reported, not gated
(tests/core/test_wire_budget.py pins the current figures).

    python3 benchmarks/spine/run.py --quick --out DIR
    python3 .github/scripts/check_spine_quick.py DIR
"""

import glob, json, sys
(path,) = glob.glob(sys.argv[1] + "/result-*.json")
workloads = json.load(open(path))["workloads"]
committed = json.load(open("benchmarks/spine/expected.json"))
assert len(workloads) == 5, sorted(workloads)
for name, entry in workloads.items():
    for part, result in entry.items():
        where = f"{name}/{part}"
        assert result["correct"] is True, (where, result)
        assert result["failed"] == 0, (where, result["failed"])
        # ROADMAP 1(a): reported, not gated, until expected.json
        # is re-baselined to the trace-framed wire.
        checks = dict(result["checks"])
        if "wire_bytes_as_committed" in checks:
            checks.pop("wire_bytes_as_committed")
            print(f"{where}: wire_bytes_per_op measured",
                  result["metrics"]["wire_bytes_per_op"]["value"],
                  "committed",
                  committed["wire_bytes_per_op"][name + "@quick"])
        bad = [c for c, ok in checks.items() if not ok]
        assert not bad, (where, bad)
print("spine-quick:", ", ".join(sorted(workloads)), "correct")
