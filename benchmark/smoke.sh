#!/bin/sh
# Smoke test: builds offline, then runs all five workloads once each
# (1 trial, 1 s window, oracle and final-state checks on) in under 30 s.
# Exits non-zero if any answer was wrong.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick "$@"
