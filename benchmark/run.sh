#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
# Every argument is the benchmark's own; see `src/main.rs` or README.md.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export SDRAD_BENCH_DIR="$dir"
exec cargo run --quiet --release --offline --manifest-path "$dir/Cargo.toml" -- "$@"
