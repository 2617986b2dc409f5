#!/usr/bin/env bash
# Full local gate: everything CI checks, in the order that fails fastest.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# Debug-assertions pass over every workspace member: unoptimized profile, so
# every debug_assert! in the hot path is live — the flit pool's 8-bit
# generation tags (use-after-free / double-free checks on every FlitRef
# deref, DESIGN.md §19), the FifoBank ring-bounds checks, the O(1)
# quiescence flag's cross-check against a full shard scan, the worklist
# exactness cross-check, and the circuit port masks and credit availability
# words checked against their definitions all fire here and nowhere else.
# `--workspace` matters: a plain `cargo test` runs only the root package's
# tests, not the crates' own (engine edge cases, the arbiter oracle, the
# pool race stress test, the pseudo-circuit unit tests, the campaign spec).
echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

# Second pass with a capped thread budget: every test that builds a
# simulation or calls parallel_map now runs through the sharded engine and
# worker pool (NOC_THREADS caps both), so the determinism matrix in
# tests/determinism_threads.rs and the golden report are exercised with the
# pool genuinely engaged.
echo "==> NOC_THREADS=2 cargo test -q"
NOC_THREADS=2 cargo test -q --offline

# Third pass over the goldens with quiescence fast-forwarding disabled:
# the pinned reports must be byte-identical whether or not the engine is
# allowed to skip provably-empty cycles (DESIGN.md §15). The goldens use
# closed-loop CMP traffic where fast-forwarding never fires, so this pass
# is the explicit witness that the default-on path changes nothing.
echo "==> NOC_NO_FASTFWD=1 cargo test -q --test golden_report"
NOC_NO_FASTFWD=1 cargo test -q --offline --test golden_report

# Fourth pass: both knobs at once. With the thread cap engaged AND
# fast-forwarding off, every cycle of the determinism matrix goes through
# the sharded epoch-barrier path with the quiescent-shard mask as the only
# work-skipping mechanism — the combination the fused-merge determinism
# argument (DESIGN.md §17) has to hold under on its own.
echo "==> NOC_THREADS=2 NOC_NO_FASTFWD=1 cargo test -q --test determinism_threads --test golden_report"
NOC_THREADS=2 NOC_NO_FASTFWD=1 cargo test -q --offline \
    --test determinism_threads --test golden_report

# Benchmark pins: nocbench is its own Cargo package (own [workspace]), so no
# root-level cargo invocation reaches it. Its gate test pins the report hash
# of all three benchmark workloads — including the 32×32 low-load mesh that
# none of the goldens covers — and checks that the traced run simulates
# exactly what the untraced one does.
echo "==> cargo test --release --manifest-path nocbench/Cargo.toml"
cargo test -q --release --offline --manifest-path nocbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

# The worker pool's unsafe lifetime erasure and epoch barrier, its park/
# wake and adaptive-spin primitives (noc_base::sync), and the word-packed
# bitset arbitration primitives (noc_base::bitset — the VA/SA hot path's
# grant machinery and the engine's pending-shard mask) live in noc-base;
# lint it explicitly so a partial workspace build never skips any of them.
echo "==> cargo clippy -p noc-base --all-targets -- -D warnings"
cargo clippy -p noc-base --all-targets --offline -- -D warnings

# The router crates are thin hook layers over the shared pipeline kernel;
# lint them explicitly so a partial workspace build never skips any side
# of the kernel contract.
echo "==> cargo clippy -p pseudo-circuit -p noc-evc -p noc-hybrid --all-targets -- -D warnings"
cargo clippy -p pseudo-circuit -p noc-evc -p noc-hybrid --all-targets --offline -- -D warnings

# The SoA kernel state and the quiescence fast-forward path (injection
# lookahead in noc-traffic, advance()/is_quiescent in noc-sim) carry the
# engine's perf-critical invariants; lint both crates explicitly.
echo "==> cargo clippy -p noc-traffic -p noc-sim --all-targets -- -D warnings"
cargo clippy -p noc-traffic -p noc-sim --all-targets --offline -- -D warnings

# The campaign engine owns the cache's byte-identity contract and the only
# hand-rolled TOML/JSON parsing in the workspace; lint it explicitly so a
# partial workspace build never skips it.
echo "==> cargo clippy -p noc-campaign --all-targets -- -D warnings"
cargo clippy -p noc-campaign --all-targets --offline -- -D warnings

# noc-bench is a non-default workspace member: a root-level
# `cargo clippy --all-targets` builds its lib but NOT its benches, so the
# figure harnesses and the engine/fifo micro-benchmarks need their own pass.
echo "==> cargo clippy -p noc-bench --all-targets -- -D warnings"
cargo clippy -p noc-bench --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items --offline --quiet

echo "==> cargo run --example quickstart (smoke)"
cargo run --release --offline --example quickstart >/dev/null

# EVC smoke: the comparator scheme must run end-to-end through the CLI,
# including the kernel-provided observability surface.
echo "==> noc run --scheme evc (smoke)"
./target/release/noc run --topology mesh4x4 --scheme evc --routing xy \
    --warmup 200 --measure 1000 --drain 10000 --metrics full >/dev/null

# Ring + hybrid smoke: the topology-generalized routing layer (CW/CCW
# modes, dateline VC classes) and the profiled hybrid scheme, end to end
# through the CLI vocabulary — hybrid on the ring in one run, and the
# hierarchical ring under the pseudo-circuit scheme in another.
echo "==> noc run --topology ring8 --scheme hybrid (smoke)"
./target/release/noc run --topology ring8 --scheme hybrid --load 0.05 \
    --warmup 200 --measure 1000 --drain 10000 --metrics full >/dev/null
echo "==> noc run --topology hring2x8 --scheme pseudo+ps+bb (smoke)"
./target/release/noc run --topology hring2x8 --scheme pseudo+ps+bb \
    --load 0.05 --warmup 200 --measure 1000 --drain 10000 >/dev/null

# Engine-bench smoke: one short release-mode single-threaded sample per
# case, no snapshot write — proves the benched hot path (bitset VA/SA,
# incremental masks) executes in release mode; it is not a measurement.
echo "==> NOC_BENCH_SMOKE=1 cargo bench --bench engine (smoke)"
NOC_BENCH_SMOKE=1 cargo bench -q -p noc-bench --bench engine --offline >/dev/null

# FIFO micro-bench smoke: the FifoBank-vs-VecDeque attribution harness
# (DESIGN.md §19) must keep running; one short sample, no snapshot write.
echo "==> NOC_BENCH_SMOKE=1 cargo bench --bench fifo_micro (smoke)"
NOC_BENCH_SMOKE=1 cargo bench -q -p noc-bench --bench fifo_micro --offline >/dev/null

# Campaign smoke: a tiny 2-scheme × 2-load sweep, interrupted after one
# point (--max-points, the deterministic stand-in for a kill), resumed to
# completion, then re-run — the re-run must execute 0 points and the report
# must be byte-identical to the post-resume one (docs/CAMPAIGNS.md).
echo "==> noc campaign run / interrupt / resume / cached re-run (smoke)"
campdir=$(mktemp -d)
trap 'rm -rf "$campdir"' EXIT
cat > "$campdir/sweep.toml" <<'EOF'
name = "check-smoke"

[phases]
warmup = 50
measure = 200
drain = 2000

[axes]
topology = "mesh2x2"
scheme = ["baseline", "pseudo+ps+bb"]
packet = 2
load = [0.02, 0.05]
EOF
./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out" --max-points 1 >/dev/null
./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out" >/dev/null
cp "$campdir/out/report.json" "$campdir/report.first.json"
rerun=$(./target/release/noc campaign run --spec "$campdir/sweep.toml" \
    --out "$campdir/out")
grep -q "cache hits 4 | executed 0" <<< "$rerun" || {
    echo "campaign smoke: cached re-run executed points: $rerun" >&2
    exit 1
}
cmp -s "$campdir/out/report.json" "$campdir/report.first.json" || {
    echo "campaign smoke: cached re-run changed report bytes" >&2
    exit 1
}

# Script-level gates: the bench-compare fixture tests and the docs link
# check (dangling relative links, anchors, and DESIGN.md § references).
echo "==> scripts/test_bench_compare.sh"
scripts/test_bench_compare.sh >/dev/null

echo "==> scripts/check_links.sh"
scripts/check_links.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
