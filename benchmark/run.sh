#!/usr/bin/env bash
# The benchmark's one command: builds the package offline (a no-op when
# it is up to date) and hands every argument to the binary.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --workload all --out results.json
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR (relative to the caller's
# directory, as cargo reads it) or, without one, to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/cep-benchmark" "$@"
