#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (under the current
# directory, which must be the repository root) and runs it with the
# given arguments. Everything the build writes stays inside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export BENCH_COMMIT
(cd "$root/bench" && go build -o "$build/lmbench" .)
exec "$build/lmbench" "$@"
