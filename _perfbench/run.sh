#!/usr/bin/env bash
# Builds the mixedrel benchmark from the checkout it sits in and runs it.
#
#   bash _perfbench/run.sh --workload reproduce-quick --seed 1 --seconds 30 --trace 0
#   bash _perfbench/run.sh compare BASE HEAD
#
# Every build product and Go cache lives under .bench_build/ at the
# checkout root, so nothing outside the checkout is read or written
# besides the Go toolchain itself. Without the program's sources next to
# the benchmark the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if ! go -C "$root/_perfbench" build -o "$build/perfbench" . >"$build/build.log" 2>&1; then
	echo "perfbench: build failed (see $build/build.log)" >&2
	cat "$build/build.log" >&2
	exit 1
fi
exec "$build/perfbench" -root "$root" "$@"
