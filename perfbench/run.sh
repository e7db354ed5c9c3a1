#!/usr/bin/env bash
# Builds the collector and the benchmark program from source, then runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-sw --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --self-check
#
# Run it from the repository root. Build output goes to stderr, so the last
# line of stdout is the JSON result. Artifacts land in
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/collector ]]; then
    echo "perfbench: $root holds no sw-ldp workspace to build" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p ldp-collector --bin ldp-collector >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --collector "$CARGO_TARGET_DIR/release/ldp-collector" "$@"
