"""Adversarial clients alongside a verified load: the server's and chaos's verdicts.

Checks the ``repro chaos --crashes 1`` record and the server's stats
line and logs: every adversary saw its structured outcome, every
honest session completed, and no log holds a traceback.

    python .github/scripts/check_chaos.py CHAOS_JSON SERVE_JSONL SERVE_ERR
"""

import json, sys

chaos_path, serve_log, serve_err = sys.argv[1:]
chaos = json.load(open(chaos_path))
lines = [json.loads(l) for l in open(serve_log)]
stats = next(r for r in lines if r.get("event") == "stats")
# Every adversary saw its expected structured outcome and
# every well-behaved session completed, verified, in budget.
assert chaos["ok"], chaos["failures"]
assert chaos["baseline_ok"] == 4 and chaos["adversarial_ok"] == 4
# The adversaries actually exercised the hardened edge.
assert chaos["handshake_rejects"] >= 3, chaos
assert chaos["handshake_timeouts"] >= 1, chaos
assert chaos["replay_hits"] >= 1, chaos
# Server side: no stalls — every honest session completed;
# the single failure is the deliberately crashed session,
# whose result was parked and replayed.
assert stats["completed"] == 8, stats
assert stats["failed"] == 1, stats
assert stats["replay_hits"] >= 1, stats
# Zero unhandled exceptions anywhere in the server logs.
for path in (serve_log, serve_err):
    text = open(path).read()
    assert "Traceback" not in text, f"{path}:\n{text}"
print("chaos-smoke:",
      f"p95 ratio {chaos['p95_ratio']}, "
      f"{chaos['handshake_rejects']} handshake rejects, "
      f"{chaos['replay_hits']} replay hits")
