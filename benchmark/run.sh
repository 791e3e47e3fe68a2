#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build and the run write — Go's build cache, its temporary
# files, the binary, the disk-backed worlds, results and traces — stays under
# this directory, so a run touches nothing outside its checkout.
#
#   bash benchmark/run.sh                       # whole suite, untraced + traced
#   bash benchmark/run.sh -aa                   # suite twice, A/A comparison
#   bash benchmark/run.sh --workload mainnet-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cache="$here/.cache"
mkdir -p "$cache/gotmp" "$cache/home"
(
	cd "$here"
	# HOME moves Go's telemetry and env files into the checkout too.
	HOME="$cache/home" XDG_CONFIG_HOME="$cache/home/.config" XDG_CACHE_HOME="$cache/home/.cache" \
		GOCACHE="$cache/go-build" GOTMPDIR="$cache/gotmp" GOPATH="$cache/gopath" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off \
		go build -o "$cache/benchmark" .
)
export DMVCC_BENCH_HOME="$here"
exec "$cache/benchmark" "$@"
