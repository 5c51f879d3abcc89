#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload channel-st --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, traces, profiles) stays under
# .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
