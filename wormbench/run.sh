#!/usr/bin/env bash
# Builds the wormnet benchmark from source and runs it. Run from the root of
# a checkout of the repository:
#
#   bash wormbench/run.sh --workload sat512 --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every scratch file stay under
# .bench_build/ in the checkout. Without the rest of the repository
# (wormbench/go.mod replaces module wormnet with ..) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/wormbench" && go build -o "$out/wormbench" .)
exec "$out/wormbench" --workdir "$out" "$@"
