#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper-flow --seed 1 --seconds 25 --trace 0
#
# Build output, the Go build cache and configuration (so the toolchain's
# telemetry too), span files and temporary job journals all stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build) of the
# checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/perfbench"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" --root "$root" "$@"
