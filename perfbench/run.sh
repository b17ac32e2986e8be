#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through,
# e.g. bash perfbench/run.sh --workload suite-full --seed 1 --seconds 20 --trace 0
# Everything the build writes stays under .bench_build at the repository
# root. The build needs the repository itself (go.mod replaces valueprof
# with ..), so outside a full checkout it fails before printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/bin/perfbench" . >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
