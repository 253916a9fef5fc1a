#!/usr/bin/env bash
# Builds psdload from this checkout and runs it, passing every argument on:
#
#   bash bench/run.sh --workload point-hot --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary files and the benchmark's
# scratch state (WALs, ledgers, releases, span files) all live under
# .bench_build/ at the root of the checkout, so a run writes nothing
# outside it. Without the rest of the repository next to bench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/psdload" ./psdload
exec "$out/psdload" -workdir "$out" "$@"
