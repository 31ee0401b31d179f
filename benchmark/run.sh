#!/usr/bin/env bash
# The benchmark's front door.
#
#   benchmark/run.sh suite  [SEED]   every workload, both passes, one result file
#   benchmark/run.sh repeat [SEED]   two complete sets of the same commit, then --compare
#   benchmark/run.sh check           fmt, clippy and the unit tests of this package
#
# Root CI does not see this package (it is a workspace of its own), so
# `check` is where its formatting, lints and tests run.
set -euo pipefail

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
# Build beside the root workspace's artefacts unless the caller chose a place.
target=${CARGO_TARGET_DIR:-target}
export CARGO_TARGET_DIR=$target

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

check() {
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest"
}

mode=${1:-suite}
seed=${2:-42}
case "$mode" in
suite)
    bench --seed "$seed"
    ;;
repeat)
    check
    out=$target/benchmark
    mkdir -p "$out"
    bench --seed "$seed" --out "$out/repeat_a.json"
    bench --seed "$seed" --out "$out/repeat_b.json"
    bench --compare "$out/repeat_a.json" "$out/repeat_b.json"
    ;;
check)
    check
    ;;
*)
    echo "usage: benchmark/run.sh [suite|repeat|check] [SEED]" >&2
    exit 2
    ;;
esac
