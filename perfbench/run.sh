#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 25 --trace 0
# Build output and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$root/.bench_build/config"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
mkdir -p "$root/.bench_build"
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
