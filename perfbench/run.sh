#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every argument passes through (see main.go for the flags):
#
#   bash perfbench/run.sh --workload suite-matrix --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. The build cache, temporary files and
# the binary live under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark reads and writes nothing outside the checkout. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
