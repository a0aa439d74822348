#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's own sources and runs it.
# Run from the repository root:
#
#   bash servebench/run.sh --workload dtg-1pct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, the per-run WAL and checkpoint directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/servebench/go.mod" ]; then
	echo "run.sh: run from the repository root (servebench/go.mod not found)" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ]; then
	echo "run.sh: no program sources here (go.mod missing at the repository root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

bin="$build/servebench"
# Rebuild when the binary is missing or any Go source or module file is newer.
stale=""
if [ -x "$bin" ]; then
	stale=$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)
fi
if [ ! -x "$bin" ] || [ -n "$stale" ]; then
	(cd "$root/servebench" && go build -o "$bin" .)
fi
exec "$bin" "$@"
