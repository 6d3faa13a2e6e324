#!/usr/bin/env bash
# Builds storbench from this checkout's sources and runs it with the
# arguments given. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload ops-quarter --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry counters) and the binary itself stay under .bench_build in
# the current directory. The build fails, and the script exits non-zero
# without printing a result, when the module the benchmark measures is
# not next to bench/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go -C bench build -o "$out/storbench" ./cmd/storbench
exec "$out/storbench" "$@"
