#!/usr/bin/env bash
# Builds leonardod and the benchmark from this source tree, then runs
# the benchmark with the given arguments, e.g.
#
#   bash leobench/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) at the repository root, the Go build cache
# included.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local
(cd leobench && go build -o "$out/leobench" .)
go build -o "$out/leonardod" ./cmd/leonardod
if [ -z "${LEOBENCH_COMMIT:-}" ] && rev=$(git rev-parse HEAD 2>/dev/null); then
	export LEOBENCH_COMMIT=$rev
fi
exec "$out/leobench" --leonardod "$out/leonardod" --out "$out" "$@"
