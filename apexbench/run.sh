#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash apexbench/run.sh --workload suite-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the driver binary, per-run scratch
# stores and journals (removed on exit), and the traced runs' spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false"
if [ -z "${APEXBENCH_COMMIT:-}" ]; then
	APEXBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export APEXBENCH_COMMIT
fi
(cd "$root/apexbench" && go build -o "$out/bin/apexbench" .) >&2
exec "$out/bin/apexbench" "$@"
