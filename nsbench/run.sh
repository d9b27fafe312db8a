#!/usr/bin/env bash
# Builds the shipped `neusight` binary and the `nsbench` program from
# source, then runs one benchmark pass:
#
#   bash nsbench/run.sh --workload sweep_cold|fleet_zipf_reload \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build logs go to stderr; the last stdout
# line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p neusight-cli --bin neusight >&2
cargo build --release --offline --quiet --manifest-path nsbench/Cargo.toml >&2
# Keep temporary files (and any flight-recorder dump) inside the checkout.
mkdir -p "$CARGO_TARGET_DIR/nsbench/tmp"
TMPDIR="$(cd "$CARGO_TARGET_DIR/nsbench/tmp" && pwd)"
export TMPDIR
exec "$CARGO_TARGET_DIR/release/nsbench" --neusight "$CARGO_TARGET_DIR/release/neusight" "$@"
