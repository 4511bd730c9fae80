#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload dc-disk --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's telemetry all stay
# under .bench_build/ in the checkout. See bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# Keep reading the user's go env file while telemetry moves into the checkout.
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-${HOME:-/nonexistent}/.config}/go/env}"
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
