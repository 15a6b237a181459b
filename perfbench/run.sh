#!/usr/bin/env bash
# Build the benchmark in release mode and run it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root; build output goes to $CARGO_TARGET_DIR
# (default .bench_build), build messages to stderr.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
