#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 20 --trace 0
#
# The build and everything the Go toolchain writes stay inside the build
# directory of the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
