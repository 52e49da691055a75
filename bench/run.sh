#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# toolchain cache is pointed into .bench_build so a run reads and writes only
# inside its checkout; the harness itself builds ares-server there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go -C bench build -o "$build/ares-perfbench" . >&2
exec "$build/ares-perfbench" "$@"
