"""Fleet: a verified loadgen through the router, then a forced drain handoff.

Against a router on 127.0.0.1:9400 fronting shards on 9401 and 9402
(both serving sum32 and sum32-seq): checks the 8-client loadgen
record, then runs a deliberately slow sum32-seq session, drains the
shard that owns it mid-session, and checks the result is bit-identical
to the local reference and the fleet counters add up.

    PYTHONPATH=src python .github/scripts/fleet_handoff.py LOADGEN_JSON
"""

import json, sys, threading, time
from repro import api
from repro.net.cli import _registry
from repro.serve import ServeClient, fetch_fleet_stats, fetch_stats
from repro.serve.client import run_session

lg = json.load(open(sys.argv[1]))
assert lg["ok"] == 8 and lg["failed"] == 0 and lg["busy"] == 0, lg
assert lg["verify_errors"] == [], lg

# Force a mid-session drain handoff: a deliberately slow
# sum32-seq session, then drain whichever shard owns it.
entry = _registry()["sum32-seq"]
net, cycles = entry.build()
bob = entry.bob_source(7, cycles)

def slow_bob(cycle):
    time.sleep(0.05)
    return bob(cycle) if callable(bob) else bob

ref = api.run(net, {"alice": entry.alice_source(1234, cycles),
                    "bob": entry.bob_source(7, cycles)},
              cycles=cycles)
box = {}

def client():
    box["r"] = run_session("127.0.0.1", 9400, "sum32-seq", net,
                           session_id="ci-handoff",
                           bob=slow_bob, cycles=cycles)

t = threading.Thread(target=client)
t.start()
shards = [("127.0.0.1", 9401), ("127.0.0.1", 9402)]
owner = None
for _ in range(200):
    owner = next((a for a in shards
                  if fetch_stats(*a)["active"] >= 1), None)
    if owner:
        break
    time.sleep(0.05)
assert owner, "handoff session never became active"
# The router is out of the byte path: with the session live
# on its shard, the router's only open connection is this
# stats probe itself.
probe = ServeClient("127.0.0.1", 9400).stats()
assert probe["open_connections"] == 1, probe
assert fetch_stats(*owner)["active"] >= 1
drain = ServeClient("127.0.0.1", 9400).drain(shard=owner)
assert drain["draining"] is True and drain["handoffs"] == 1, drain
t.join(timeout=120)
r = box["r"]
# Bit-identical across the handoff: outputs AND gate counts
# match the local simulator reference.
assert r.value == ref.value, (r.value, ref.value)
assert list(r.outputs) == list(ref.outputs)
assert r.stats.garbled_nonxor == ref.stats.garbled_nonxor
assert r.reconnects >= 1, r
agg = fetch_fleet_stats("127.0.0.1", 9400)["aggregate"]
assert agg["handed_off"] == 1 and agg["adopted"] == 1, agg
assert agg["completed"] == 9 and agg["failed"] == 0, agg
router = ServeClient("127.0.0.1", 9400).stats()
assert router["routed_sessions"] >= 9, router
print("fleet-smoke:", lg["sessions_per_sec"], "sessions/s,",
      f"handoff {owner[1]} -> peer, value {r.value}")
