#!/usr/bin/env bash
# Builds the benchmark offline, then runs every workload end to end (`run`)
# and per layer (`trace`). Results land in benchmark/out/. Pass e.g.
# `--seed 7` to change the seed of both passes.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/evanesco-benchmark"
"$bin" run "$@"
"$bin" trace "$@"
