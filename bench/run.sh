#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# every argument passed through. Run it from the repository root:
#
#   bash bench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                      # one full set, every workload
#   bash bench/run.sh compare a.json b.json
#
# The build writes only under .bench_build/ in the checkout: the build
# cache, temporary files and the Go command's own configuration all live
# there, and the toolchain is never downloaded.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/ttmcas-bench" .)
exec "$out/ttmcas-bench" "$@"
