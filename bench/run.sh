#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything it writes (Go build cache, binary,
# file-backend data directories, span files) goes under .bench_build/
# in the checkout root; nothing outside the checkout is read or written,
# which is why HOME and the Go directories are moved there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gotmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
