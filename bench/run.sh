#!/usr/bin/env bash
# Builds the benchmark and the gpusched server from this checkout's
# sources into .bench_build/, then runs the benchmark from the checkout
# root with the given arguments, e.g.
#
#   bash bench/run.sh --workload stream-energy --seed 42 --seconds 15 --trace 0
#
# The Go build cache and temporary files also live under .bench_build/,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(
	cd "$root/bench"
	go build -o "$out/bin/bench" .
	go build -o "$out/bin/gpusched" gpushare/cmd/gpusched
)

cd "$root"
exec "$out/bin/bench" --gpusched "$out/bin/gpusched" "$@"
