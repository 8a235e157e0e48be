#!/usr/bin/env sh
# Tier-1 verification: release build + full test suite (see ROADMAP.md).
#
# With no argument, the tier-1 gate runs unchanged: build everything,
# run everything. CI splits the same suite into lanes so the slow
# byte-granular crash matrix and the multi-writer stress runs don't
# serialise behind the fast unit tests:
#
#   verify.sh          build + the whole suite (the tier-1 gate)
#   verify.sh unit     everything except *_truncation / *_stress tests
#   verify.sh crash    WAL crash-recovery matrix (*_truncation tests)
#   verify.sh stress   concurrent-commit stress runs (*_stress tests)
#   verify.sh async-durability
#                      the async epoch/ack contract: mixed-durability
#                      crash matrix, wait_for_epoch liveness, epoch
#                      monotonicity property test, SOAP round-trip
#   verify.sh cache    the read-cache consistency contract (DESIGN.md
#                      §7.3): table-version unit tests, cache unit
#                      tests, the targeted invalidation test, the
#                      differential harness's cached-vs-uncached
#                      family, and the SOAP bypass/stats round-trip
#   verify.sh shard    the sharded-catalog contract (DESIGN.md §7.4):
#                      the differential harness's 4-shard family,
#                      the two-phase membership crash matrix,
#                      the parallel loader equivalence test, and the
#                      SOAP shard-routing round-trip
#   verify.sh mvcc     the snapshot-read contract (DESIGN.md §7.5):
#                      relstore version-chain/snapshot/vacuum unit
#                      tests, the differential harness's MVCC family,
#                      the snapshot-isolation test, and the
#                      MVCC WAL-truncation crash matrix
#   verify.sh planner  the cost-based-planner contract (DESIGN.md
#                      §7.6): relstore statistics/index-dive unit
#                      tests, plan construction unit tests, the
#                      plan-shape + statistics edge-case regressions,
#                      the differential harness's planner-vs-posting-
#                      scan family (barrier/MVCC/4-shard), and the
#                      explainQuery SOAP round-trip
#   verify.sh wire     the binary wire-protocol contract (DESIGN.md
#                      §7.7): frame codec unit tests, the golden
#                      transcript pinning both wire formats, the
#                      seeded Request/Reply codec round-trip
#                      properties, the differential harness's
#                      SOAP-vs-binary family (barrier/MVCC/4-shard)
#                      and its all-toggles configuration, the frame-decoder
#                      fuzz/robustness harness, the 8×200 pipelining
#                      stress test, and the connection-reuse
#                      regressions shared with the SOAP keep-alive
#                      client
#   verify.sh catbench the benchmark's own workspace (catbench/):
#                      release build and smoke test against the
#                      current crates
#
# The twin steps of the cache, shard, mvcc, planner and wire lanes each
# run one family of the differential harness (crates/mcs-net/tests/
# twin.rs). A failure prints its seed; one variable replays every
# family:
#
#   MCS_TWIN_SEED=<seed> cargo test -p mcs-net --test twin -- --nocapture
set -eu
cd "$(dirname "$0")/.."

# Run one family of the differential harness; on failure, print the
# replay hint and fail the lane.
twin() {
  if ! cargo test -q -p mcs-net --test twin "$1"; then
    echo "$lane lane failed." >&2
    echo "To replay a twin-divergence failure, rerun with the seed printed above:" >&2
    echo "  MCS_TWIN_SEED=<seed> cargo test -p mcs-net --test twin -- --nocapture" >&2
    exit 1
  fi
}

lane="${1:-all}"
case "$lane" in
  all)
    cargo build --release
    cargo test -q
    ;;
  unit)
    cargo build --release
    cargo test -q -- --skip _truncation --skip _stress
    ;;
  crash)
    start=$(date +%s)
    cargo test -q _truncation
    echo "crash lane: $(($(date +%s) - start))s elapsed"
    ;;
  stress)
    start=$(date +%s)
    cargo test -q _stress
    echo "stress lane: $(($(date +%s) - start))s elapsed"
    ;;
  async-durability)
    start=$(date +%s)
    if ! cargo test -q -p relstore --test epoch_monotonicity --test async_epoch_liveness; then
      echo "async-durability lane failed." >&2
      echo "To replay a monotonicity failure, rerun with the seed printed above:" >&2
      echo "  RELSTORE_EPOCH_SEED=<seed> cargo test -p relstore --test epoch_monotonicity -- --nocapture" >&2
      exit 1
    fi
    cargo test -q -p relstore epoch
    cargo test -q -p mcs --test crash_atomicity mixed_durability_epoch_contract
    cargo test -q -p mcs-net --test async_durability
    echo "async-durability lane: $(($(date +%s) - start))s elapsed"
    ;;
  cache)
    start=$(date +%s)
    cargo test -q -p relstore --lib table_version
    cargo test -q -p mcs --lib cache
    cargo test -q -p mcs --test cache_consistency
    twin cached_catalog_equals_uncached_twin
    cargo test -q -p mcs-net --test cache_over_net
    cargo test -q -p soapstack --test keep_alive
    echo "cache lane: $(($(date +%s) - start))s elapsed"
    ;;
  shard)
    start=$(date +%s)
    twin sharded_catalog_equals_single_shard_twin
    cargo test -q -p mcs --test shard_crash
    cargo test -q -p workload sharded
    cargo test -q -p mcs-net --test sharded_over_net
    echo "shard lane: $(($(date +%s) - start))s elapsed"
    ;;
  mvcc)
    start=$(date +%s)
    cargo test -q -p relstore --lib mvcc
    cargo test -q -p relstore --lib snapshot
    cargo test -q -p relstore --lib vacuum
    cargo test -q -p mcs --test mvcc_twin
    twin mvcc_catalog_equals_barrier_twin
    cargo test -q -p mcs --test mvcc_truncation
    echo "mvcc lane: $(($(date +%s) - start))s elapsed"
    ;;
  planner)
    start=$(date +%s)
    cargo test -q -p relstore --lib stats
    cargo test -q -p relstore --lib statistics
    cargo test -q -p relstore --lib planner
    cargo test -q -p mcs --lib plan
    cargo test -q -p mcs --test plan_shape
    twin planner_equals_posting_scan_oracle
    cargo test -q -p mcs-net --test roundtrip explain
    echo "planner lane: $(($(date +%s) - start))s elapsed"
    ;;
  wire)
    start=$(date +%s)
    cargo test -q -p mcs-net --lib binproto
    cargo test -q -p mcs-net --lib ops
    cargo test -q -p mcs-net --test wire_golden
    if ! cargo test -q -p mcs-net --test codec_roundtrip; then
      echo "wire lane failed." >&2
      echo "To replay a round-trip failure, rerun with the seed printed above:" >&2
      echo "  MCS_WIRE_SEED=<seed> cargo test -p mcs-net --test codec_roundtrip -- --nocapture" >&2
      exit 1
    fi
    twin binary_protocol_equals_soap
    twin all_toggles_equal_the_oracle
    cargo test -q -p mcs-net --test bin_fuzz
    cargo test -q -p mcs-net --test bin_pipeline_stress
    cargo test -q -p soapstack --test keep_alive
    echo "wire lane: $(($(date +%s) - start))s elapsed"
    ;;
  catbench)
    start=$(date +%s)
    cargo test --release --offline --manifest-path catbench/Cargo.toml
    echo "catbench lane: $(($(date +%s) - start))s elapsed"
    ;;
  *)
    echo "usage: verify.sh [unit|crash|stress|async-durability|cache|shard|mvcc|planner|wire|catbench]" >&2
    exit 2
    ;;
esac
