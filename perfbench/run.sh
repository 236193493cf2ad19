#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serial-rw --seed 1 --seconds 10 --trace 0
#
# The smoke run (every workload briefly, traced and untraced, every check on)
# is a test: (cd perfbench && go test ./...).
#
# Everything the build and the run leave behind goes under .bench_build/ in the
# checkout (Go build cache, temp dirs, the binary and the span dumps).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
