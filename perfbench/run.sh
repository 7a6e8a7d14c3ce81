#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload sim_mobile --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (the
# binary, the Go build cache, traced-run output) stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a checkout with the sources" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
