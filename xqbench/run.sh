#!/usr/bin/env bash
# Build xqserve and xqbench (release, offline) into one target directory,
# then run xqbench with the given arguments. Run from the repository root:
#   bash xqbench/run.sh --seed 1                      # every workload, both passes
#   bash xqbench/run.sh --workload point_read --seed 1 --seconds 18 --trace 0
#   bash xqbench/run.sh compare a.json b.json
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -f xqbench/Cargo.toml ]; then
    echo "xqbench/run.sh: run from the root of a full checkout (xqserve is built from it)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --bin xqserve >&2
cargo build --release --offline --manifest-path xqbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/xqbench" "$@"
