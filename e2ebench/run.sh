#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments are passed through, e.g.
#
#   bash e2ebench/run.sh --workload lr-avazu-split --seed 1 --seconds 15 --trace 0
#
# Everything the build writes goes under .bench_build/ at the root: the
# Go build cache, temporary files and the binary. The toolchain is used
# as installed, with no module downloads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
