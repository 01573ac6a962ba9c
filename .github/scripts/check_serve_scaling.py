"""Server + loadgen at 4 and 16 clients: zero rejects, and scaling.

Checks the logs of one ``repro serve --max-sessions 20`` and its two
``repro loadgen --client-procs`` waves (4 then 16 clients); with 8 or
more cores the 16-client throughput must not fall below the 4-client
one.

    python .github/scripts/check_serve_scaling.py SERVE_JSONL SERVE_ERR LOADGEN4_JSON LOADGEN16_JSON
"""

import json, os, sys

serve_log, serve_err, lg4_path, lg16_path = sys.argv[1:]
lines = [json.loads(l) for l in open(serve_log)]
ready = next(r for r in lines if r.get("event") == "ready")
stats = next(r for r in lines if r.get("event") == "stats")
lg4 = json.load(open(lg4_path))
lg16 = json.load(open(lg16_path))
assert ready["pool"] == "process", ready
for lg in (lg4, lg16):
    assert lg["failed"] == 0 and lg["busy"] == 0, lg
    assert lg["verify_errors"] == [], lg
assert lg4["ok"] == 4 and lg16["ok"] == 16, (lg4, lg16)
assert stats["completed"] == 20 and stats["failed"] == 0, stats
assert stats["rejected_busy"] == 0 and stats["rejected_error"] == 0
cores = os.cpu_count() or 1
msg = (f"4c {lg4['sessions_per_sec']}/s, "
       f"16c {lg16['sessions_per_sec']}/s ({cores} cores)")
if cores >= 8:
    # With cores to scale onto, more clients must not mean
    # less throughput: the 16-client figure gates against
    # the 4-client one.
    assert lg16["sessions_per_sec"] >= lg4["sessions_per_sec"], msg
for path in (serve_log, serve_err):
    text = open(path).read()
    for bad in ("Traceback", "Task was destroyed"):
        assert bad not in text, f"{path}:\n{text}"
print("serve-smoke:", msg)
