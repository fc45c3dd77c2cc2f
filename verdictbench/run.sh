#!/usr/bin/env bash
# Builds verdictbench from the sources of this checkout and runs it, e.g.
#
#   bash verdictbench/run.sh --workload gen-default --seed 1 --seconds 15 --trace 0
#   bash verdictbench/run.sh steady --workload gen-wide --runs 10 --seconds 15
#
# Run it from the root of the checkout. The build cache, the binary and
# the memo store of store-warm all live under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so nothing is written
# outside the checkout. The build needs the module at the checkout root;
# without it the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$src" && go build -o "$build/verdictbench" .)
exec "$build/verdictbench" "$@"
