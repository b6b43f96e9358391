#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of a repository checkout:
#
#   bash perfbench/run.sh --workload analyze --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the Go build cache, the benchmark binary, the
# emitted native kernels) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d internal/core || ! -d perfbench ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
