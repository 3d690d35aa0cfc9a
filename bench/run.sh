#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root with the arguments given. Everything the build writes —
# the binary, Go's build and module caches, temporaries — stays under
# .bench_build, and no user-level Go configuration is read.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/vrec-bench" .) >&2
cd "$root"
exec "$build/vrec-bench" "$@"
