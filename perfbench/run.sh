#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare results/parent results/change
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, temporary store directories) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

if ! go build -C "$root/perfbench" -o "$build/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
if [[ "${1:-}" == compare ]]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --work "$build/work" "$@"
