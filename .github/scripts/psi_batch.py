"""PSI serve: the verified loadgen record, then the batched-inputs API live.

Against ``repro serve --workload psi --value 7`` on 127.0.0.1:9500:
checks the loadgen record (sizes verified against a python set
oracle), then runs one batched session of four queries and checks
each intersection size.

    PYTHONPATH=src python .github/scripts/psi_batch.py LOADGEN_JSON
"""

import json, sys
from repro.serve import ServeClient
from repro.workloads import get_workload
from repro.workloads import psi as P

lg = json.load(open(sys.argv[1]))
assert lg["ok"] == 4 and lg["failed"] == 0 and lg["busy"] == 0, lg
# Semantic verification ran: every decoded intersection was
# checked against the plain-python set oracle, none diverged.
assert lg["verify_errors"] == [], lg
assert lg["workload"] == "psi", lg

# Batched-inputs API against the live server: one session,
# one garble pass, four queries.
base = "psi-hash8x16"
values = [100, 101, 102, 103]
with ServeClient("127.0.0.1", 9500) as client:
    batch = client.run_batch(base, values)
wl = get_workload(base)
alice = set(P.set_from_seed(wl.spec, 7))
for v, q in zip(values, batch.queries):
    bob = set(P.set_from_seed(wl.spec, v))
    assert q.size == len(alice & bob), (v, q.size)
print("workload-smoke:", lg["sessions_per_sec"], "sessions/s,",
      "batch sizes", batch.sizes)
