#!/usr/bin/env bash
# Builds the repo's binaries and the benchmark, then runs the harness.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
#                    [--smoke] [--repeat N]
#
# See benchmark/README.md. Exits non-zero without a result when the
# directory around it is not a pluto-rs checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ] || [ ! -d "$root/src/bin" ]; then
  echo "benchmark/run.sh: $root is not a pluto-rs checkout (no Cargo.toml, crates/, src/bin/)" >&2
  exit 2
fi
cd "$root"

# One target directory for the repo's binaries and the harness, so that
# the harness finds plutoc and plutod next to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --bins >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/pluto-benchmark" "$@"
