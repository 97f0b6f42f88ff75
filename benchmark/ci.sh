#!/bin/sh
# Smoke-run the performance ledger: the benchmark's own unit tests, then
# every workload at about 1/20 size with all correctness checks and the
# schema check of OUT.json against BENCHMARK.json. Under a minute after the
# build. A CI job needs only this one line:
#
#     sh benchmark/ci.sh
#
# Numbers from a smoke run are not comparable with a full run's; it shows
# that the ledger still builds, runs and checks, nothing more.
set -eu
cd "$(dirname "$0")/.."
# Share the root build's target directory: the crates are already built there.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --seed 1 -o .bench_tmp/smoke.json
