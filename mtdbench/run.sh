#!/usr/bin/env bash
# Builds the benchmark and the gridmtdd daemon from the source tree it is
# run in, then runs the benchmark with the given arguments:
#
#   bash mtdbench/run.sh --workload select --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binaries, the daemon
# logs, the full per-run records, traces and CPU profiles.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gridmtdd" || ! -f "$root/mtdbench/go.mod" ]]; then
	echo "mtdbench: run from the repository root (go.mod, cmd/gridmtdd and mtdbench/ must be here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/gridmtdd" ./cmd/gridmtdd >&2
(cd "$root/mtdbench" && go build -o "$build/bin/mtdbench" .) >&2
exec "$build/bin/mtdbench" -root "$root" "$@"
