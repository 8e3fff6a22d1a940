#!/usr/bin/env bash
# Builds the hndbench binary from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash hndbench/run.sh --workload write-rank --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch data stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/hndbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$here" && go build -o "$out/hndbench" .)
exec "$out/hndbench" -workdir "$out/work" "$@"
