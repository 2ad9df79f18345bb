#!/usr/bin/env bash
# Builds the release daemon (`scanguard`) and the benchmark, then runs
# the benchmark against that daemon. Every argument is passed through:
#
#   bash benchmark/run.sh --workload verify-fifo32x32 --seed 3 --seconds 15 --trace 0
#   bash benchmark/run.sh --smoke
#   bash benchmark/run.sh compare --parent a.jsonl --change b.jsonl
#
# Build output goes to stderr; stdout carries only the benchmark's
# report, whose last line is one JSON object.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p scanguard-serve --bin scanguard >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/scanguard-benchmark" \
    --daemon "$CARGO_TARGET_DIR/release/scanguard" "$@"
