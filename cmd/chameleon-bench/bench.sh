#!/usr/bin/env bash
# Builds chameleon-bench from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash cmd/chameleon-bench/bench.sh --workload sim-missheavy --seed 1 --seconds 15 --trace 0
#
# Run from the root of a checkout. Everything the build writes (Go build
# cache, temporary files, the go command's config and telemetry, the
# binary) stays under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build, relative to the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	go -C "$root/cmd/chameleon-bench" build -o "$build/chameleon-bench" .
exec "$build/chameleon-bench" "$@"
