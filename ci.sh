#!/usr/bin/env bash
# Lint gate + test suite. Every check here must stay green; run before
# pushing. SimSan's mutation self-tests are part of `cargo test`.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test -q --workspace

echo "== rustdoc (broken or private intra-doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "== perfbench self-test (replay checks against the served report) =="
# perfbench is a separate package, outside the workspace. Its traced
# replay re-runs each chain's signal join and attribution and checks the
# counts against what serve reported, so a telemetry change that breaks
# them fails here rather than in the benchmark.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== profile smoke (trace + metrics JSON round-trip) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q -p flashoverlap-cli --bin flashoverlap -- profile \
  -m 1024 -n 2048 -k 2048 --gpus 2 --platform a800 \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.json" > /dev/null
python3 - "$tmp/trace.json" "$tmp/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
devices = {e["pid"] for e in events if e.get("ph") == "X"}
assert devices == {0, 1}, f"trace must cover every device, got {devices}"
assert any(e.get("ph") == "s" for e in events), "missing signal flow events"
assert any(e.get("ph") == "C" for e in events), "missing counter tracks"
with open(sys.argv[2]) as f:
    metrics = json.load(f)
assert len(metrics["methods"]) == 5, "report must list every method"
for m in metrics["methods"]:
    eff = m["overlap_efficiency"]
    assert eff is None or 0.0 <= eff <= 1.0, m
assert metrics["signal_latency"]["samples"] > 0, "no signal-latency samples"
assert metrics["links"], "no link stats"
print("profile smoke: ok")
EOF

echo "== verify gate (static schedule proof + conformance matrix, deterministic) =="
# Two identical runs: the byte-compare is the determinism gate. The
# command itself exits nonzero on any static violation, nonconforming
# cell or unclean serve-mix shape; the matrix and caveat counts are
# pinned by planverify's mutation unit tests.
cargo run -q -p flashoverlap-cli --bin flashoverlap -- verify \
  -m 2048 -n 4096 -k 4096 --gpus 2 --metrics-out "$tmp/verify.json" > /dev/null
cargo run -q -p flashoverlap-cli --bin flashoverlap -- verify \
  -m 2048 -n 4096 -k 4096 --gpus 2 --metrics-out "$tmp/verify2.json" > /dev/null
cmp "$tmp/verify.json" "$tmp/verify2.json" \
  || { echo "verify gate: identical inputs wrote different reports"; exit 1; }
python3 - "$tmp/verify.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["kind"] == "flashoverlap-verify", report.get("kind")
cells = report["matrix"]
assert len(report["methods"]) == 5, "report must cover every method"
mix = report["serve_mix"]
assert mix, "serve-mix sweep must cover at least one quantized shape"
print(f"verify gate: ok ({len(cells)} cells conform, {len(mix)} serve shapes clean)")
EOF

echo "== chaos smoke (seeded fault campaigns, zero hangs, zero violations) =="
# `timeout` doubles as the hang gate: every campaign must terminate under
# the watchdog, so the whole sweep finishing inside the limit proves it.
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- chaos \
  --seed 7 --campaigns 20 --metrics-out "$tmp/chaos.json" > /dev/null
python3 - "$tmp/chaos.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    chaos = json.load(f)
assert chaos["campaigns"] == 20, chaos["campaigns"]
assert chaos["hangs"] == 0, "a campaign hung"
assert chaos["violations"] == 0, "bit-exact-or-degraded invariant violated"
for r in chaos["results"]:
    assert r["faults"] >= 1, "every campaign must inject at least one fault"
    assert r["bit_exact"] or (r["outcome"] == "degraded" and r["cause"]), r
recovered = sum(r["outcome"] == "recovered" for r in chaos["results"])
assert recovered >= 1, "sweep must exercise the tail-recovery path"
print(f"chaos smoke: ok ({recovered} recovered, "
      f"{sum(r['outcome'] == 'degraded' for r in chaos['results'])} degraded)")
EOF

echo "== serve smoke (seeded continuous batching, full accounting, warm cache) =="
# Two identical seeded runs: the byte-compare is the determinism gate,
# the timeout is the no-silent-hang gate. The accounting identities are
# checked in Rust (ServeReport::check): serve exits nonzero on a
# violation.
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --seed 7 --chaos --metrics-out "$tmp/serve.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --seed 7 --chaos --metrics-out "$tmp/serve2.json" > /dev/null
cmp "$tmp/serve.json" "$tmp/serve2.json" \
  || { echo "serve smoke: same seed wrote different metrics"; exit 1; }
python3 - "$tmp/serve.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    serve = json.load(f)
reqs = serve["requests"]
assert serve["plan_cache"]["hit_rate"] > 0, "token buckets must drive plan reuse"
dispositions = {r["disposition"] for r in serve["per_request"]}
assert dispositions <= {"clean", "recovered", "degraded", "shed"}, dispositions
print(f"serve smoke: ok (hit rate {serve['plan_cache']['hit_rate']:.2f}, "
      f"{reqs['recovered']} recovered, {reqs['degraded']} degraded, "
      f"{reqs['shed']} shed)")
EOF

echo "== multi-replica smoke (routing, per-replica accounting, scaling, pipelining) =="
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 7 --replicas 4 --router shape-affinity \
  --metrics-out "$tmp/affinity.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 7 --replicas 4 --router round-robin \
  --metrics-out "$tmp/rr.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 7 --replicas 4 --router shape-affinity \
  --scaling --metrics-out "$tmp/scaling.json" > /dev/null
python3 - "$tmp/affinity.json" "$tmp/rr.json" "$tmp/scaling.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    affinity = json.load(f)
assert affinity["replicas"] == 4 and affinity["router"] == "shape-affinity", affinity
with open(sys.argv[2]) as f:
    rr = json.load(f)
assert affinity["plan_cache"]["hit_rate"] >= rr["plan_cache"]["hit_rate"], \
    "shape affinity must not lose to round-robin on cache hit rate"
with open(sys.argv[3]) as f:
    scaling = json.load(f)
assert scaling["goodput_scaling"] >= 3.0, \
    f"4 replicas must deliver >= 3x goodput, got {scaling['goodput_scaling']:.2f}"
pipe = scaling["pipelining"]
assert pipe["pipelined_p95_ns"] < pipe["serial_p95_ns"], \
    "cross-batch pipelining must beat serial chains on p95"
print(f"multi-replica smoke: ok ({scaling['goodput_scaling']:.2f}x goodput, "
      f"p95 {pipe['pipelined_p95_ns']/1e3:.0f}us vs {pipe['serial_p95_ns']/1e3:.0f}us, "
      f"affinity hit rate {affinity['plan_cache']['hit_rate']:.2f} "
      f"vs rr {rr['plan_cache']['hit_rate']:.2f})")
EOF

echo "== chaos-sequence gate (wedged replica: quarantine + re-route, no abort) =="
# A deterministically wedged replica must not abort the run: serve exits
# zero, quarantines the replica, re-routes its queue, and two seeded
# runs byte-compare. Arrivals are fast enough that the wedged replica's
# queue holds batches worth re-routing at quarantine time.
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --chaos --replicas 4 --wedge-replica 2 --rate 12000 --requests 200 --seed 7 \
  --metrics-out "$tmp/wedge.json" > /dev/null \
  || { echo "chaos-sequence gate: wedged replica aborted the run"; exit 1; }
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --chaos --replicas 4 --wedge-replica 2 --rate 12000 --requests 200 --seed 7 \
  --metrics-out "$tmp/wedge2.json" > /dev/null
cmp "$tmp/wedge.json" "$tmp/wedge2.json" \
  || { echo "chaos-sequence gate: same seed wrote different reports"; exit 1; }
python3 - "$tmp/wedge.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    wedge = json.load(f)
assert wedge["chaos"] is True and wedge["wedge_replica"] == 2, wedge
reqs = wedge["requests"]
res = wedge["resilience"]
per = wedge["per_replica"]
assert per[2]["quarantined"] is True, "the wedged replica must end quarantined"
assert res["replicas_quarantined"] >= 1, res
assert res["replicas_quarantined"] < wedge["replicas"], \
    "the last healthy replica must never be pulled from service"
assert res["batches_rerouted"] > 0, "quarantine must re-route the stranded queue"
rerouted = [b for b in wedge["per_batch"] if b["routing"] == "re-routed"]
assert rerouted, "re-routed batches must be stamped in the batch records"
assert len(rerouted) <= res["batches_rerouted"], "records cannot exceed hops"
assert all(b["replica"] != 2 for b in rerouted), \
    "a re-routed batch landed back on the wedged replica"
print(f"chaos-sequence gate: ok ({res['replicas_quarantined']} quarantined, "
      f"{res['batches_rerouted']} re-route hops, {res['quarantine_shed']} shed, "
      f"{reqs['recovered']} recovered, {reqs['degraded']} degraded)")
EOF

echo "== analyze gate (critical-path attribution, tuned vs per-wave signaling) =="
# analyze exits nonzero when an arm's attribution does not tile its
# makespan exactly (which also bounds every share to [0, 1]); this gate
# checks only the scenario claim.
cargo run -q -p flashoverlap-cli --bin flashoverlap -- analyze \
  -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 \
  --metrics-out "$tmp/analyze.json" > /dev/null
python3 - "$tmp/analyze.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    analyze = json.load(f)
assert analyze["kind"] == "flashoverlap-analyze", analyze.get("kind")
tuned = analyze["tuned"]["attribution"]["categories"]["signal_wait_ns"]
per_wave = analyze["per_wave"]["attribution"]["categories"]["signal_wait_ns"]
assert tuned < per_wave, \
    f"tuned plan must spend less critical-path time in signal-wait " \
    f"({tuned} vs {per_wave})"
assert analyze["signal_wait_saved_ns"] > 0, analyze["signal_wait_saved_ns"]
print(f"analyze gate: ok (signal-wait {tuned} ns tuned vs {per_wave} ns per-wave)")
EOF

echo "== topology gate (2-node serve: determinism, hierarchical savings, locality) =="
# Two nodes x 2 GPUs each: same seed byte-compares, the hierarchical
# collective schedule must cross nodes with strictly fewer bytes than
# the flat ring, and the locality router must spill across nodes less
# than round-robin under identical traffic.
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 11 --gpus 4 --nodes 2 --replicas 4 \
  --router locality --metrics-out "$tmp/topo.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 11 --gpus 4 --nodes 2 --replicas 4 \
  --router locality --metrics-out "$tmp/topo2.json" > /dev/null
cmp "$tmp/topo.json" "$tmp/topo2.json" \
  || { echo "topology gate: same seed wrote different two-node reports"; exit 1; }
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --requests 120 --rate 2400 --seed 11 --gpus 4 --nodes 2 --replicas 4 \
  --router round-robin --metrics-out "$tmp/topo-rr.json" > /dev/null
python3 - "$tmp/topo.json" "$tmp/topo-rr.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    loc = json.load(f)
with open(sys.argv[2]) as f:
    rr = json.load(f)
assert loc["nodes"] == 2 and loc["router"] == "locality", loc["router"]
assert len(loc["per_node"]) == 2, "one stats row per node"
for r in loc["per_replica"]:
    assert r["node"] == r["id"] % loc["nodes"], r
ib = loc["cross_node"]["inter_bytes"]
assert ib["hierarchical"] > 0, "a node-spanning TP group must cross nodes"
assert ib["hierarchical"] < ib["flat_baseline"], \
    f"hierarchical collectives must move fewer inter-node bytes than the " \
    f"flat ring ({ib['hierarchical']} vs {ib['flat_baseline']})"
assert loc["offered"] == rr["offered"], "identical traffic required"
loc_rate = loc["cross_node"]["batches"] / loc["batches"]["executed"]
rr_rate = rr["cross_node"]["batches"] / rr["batches"]["executed"]
assert loc_rate < rr_rate, \
    f"locality must spill across nodes less than round-robin " \
    f"({loc_rate:.3f} vs {rr_rate:.3f})"
saved = 1 - ib["hierarchical"] / ib["flat_baseline"]
print(f"topology gate: ok (hierarchical saves {saved:.0%} inter-node bytes, "
      f"spill rate {loc_rate:.2f} locality vs {rr_rate:.2f} round-robin)")
EOF

echo "== bench gate (BENCH_serve.json byte-stable, attribution identity exact) =="
# Two identical seeded runs byte-compare; the committed artifact at the
# repo root must match what the pinned command regenerates today. bench
# exits nonzero when the report breaks an accounting identity
# (ServeReport::check: attribution tiles the makespan, percentiles
# ordered).
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  --requests 120 --seed 7 --metrics-out "$tmp/bench.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  --requests 120 --seed 7 --metrics-out "$tmp/bench2.json" > /dev/null
cmp "$tmp/bench.json" "$tmp/bench2.json" \
  || { echo "bench gate: same seed wrote different artifacts"; exit 1; }
cmp "$tmp/bench.json" BENCH_serve.json \
  || { echo "bench gate: committed BENCH_serve.json is stale; regenerate with" \
       "'flashoverlap bench --requests 120 --seed 7'"; exit 1; }
python3 - "$tmp/bench.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["kind"] == "flashoverlap-bench-serve", bench.get("kind")
attr = bench["attribution"]
assert bench["drift_rows"] > 0, "predictor-drift table must be populated"
print(f"bench gate: ok (makespan {bench['makespan_ns']/1e6:.2f} ms virtual, "
      f"idle share {attr['shares']['idle']:.3f})")
EOF

echo "== parallel gate (sealed engines: byte-identical for any --parallel) =="
# The deterministic-merge contract: the same seeded bench must write a
# byte-identical artifact under --parallel 4, under an odd thread count
# (engines share threads via i mod threads), and with the serial
# engine. Wall-clock is not gated here: wall ordering is host-dependent,
# and perfbench measures it (engine.serial_wall_s /
# engine.parallel_wall_s).
par_scenario=(--requests 200 --rate 400 --gpus 8 --replicas 4 --seed 7)
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  "${par_scenario[@]}" --metrics-out "$tmp/par-serial.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  "${par_scenario[@]}" --parallel 4 --metrics-out "$tmp/par-4.json" > /dev/null
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  "${par_scenario[@]}" --parallel 3 --metrics-out "$tmp/par-3.json" > /dev/null
cmp "$tmp/par-serial.json" "$tmp/par-4.json" \
  || { echo "parallel gate: --parallel 4 diverged from serial"; exit 1; }
cmp "$tmp/par-serial.json" "$tmp/par-3.json" \
  || { echo "parallel gate: --parallel 3 diverged from serial"; exit 1; }
# Chaos + wedged replica under threads: the eager-force path must make
# the quarantine decision at the same virtual instant the serial engine
# does. wedge.json is the serial run from the chaos-sequence gate.
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- serve \
  --chaos --replicas 4 --wedge-replica 2 --rate 12000 --requests 200 --seed 7 \
  --parallel 4 --metrics-out "$tmp/wedge-par.json" > /dev/null
cmp "$tmp/wedge.json" "$tmp/wedge-par.json" \
  || { echo "parallel gate: wedged chaos serve diverged under --parallel 4"; exit 1; }
echo "parallel gate: ok (byte-identical at 1/3/4 threads incl. wedged chaos)"

echo "ci: all gates passed"
