#!/usr/bin/env bash
# Lint gate + test suite. Every check here must stay green; run before
# pushing. This script only runs tools: every scenario claim and every
# two-run byte-compare is a Rust test that `cargo test` runs (see the
# "Checks" list in README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
# Build first, so the timeout below bounds only the run. The timeout is
# the no-silent-hang gate: serve and chaos must terminate under their
# watchdogs. The run takes about 160 s on a 2-core host; 900 s leaves
# more than 5x, so only a hang trips it.
cargo test -q --workspace --no-run
timeout 900 cargo test -q --workspace

echo "== rustdoc (broken or private intra-doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "== perfbench self-test (replay checks against the served report) =="
# perfbench is a separate package, outside the workspace. Its traced
# replay re-runs each chain's signal join and attribution and checks the
# counts against what serve reported, so a telemetry change that breaks
# them fails here rather than in the benchmark.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== BENCH_serve.json is what the pinned command writes today =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
timeout 300 cargo run -q -p flashoverlap-cli --bin flashoverlap -- bench \
  --requests 120 --seed 7 --metrics-out "$tmp/bench.json" > /dev/null
cmp "$tmp/bench.json" BENCH_serve.json \
  || { echo "committed BENCH_serve.json is stale; regenerate with" \
       "'flashoverlap bench --requests 120 --seed 7'"; exit 1; }

echo "ci: all gates passed"
