#!/bin/sh
# The repository's full verification pass — what CI runs, runnable
# anywhere a Go toolchain exists (no make required).
set -eux

# Formatting gate: every Go file must be gofmt-clean (hidden
# directories, such as the benchmark's .bench_build/, are skipped).
unformatted="$(gofmt -l $(find . -name '*.go' -not -path './.*'))"
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The end-to-end benchmark (bench/, run by bench/run.sh) is a nested Go
# module, so the commands above never compile it: vet and test it on
# its own, including its 1 s smoke of every workload.
(cd bench && go vet ./... && go test ./...)

# Bench smoke: one iteration of each throughput benchmark — including
# the compiled core kernel's — so a broken benchmark fails CI without
# CI paying for real measurement runs.
go test -run '^$' -bench . -benchtime 1x ./internal/core ./internal/mc ./internal/sens ./internal/sweep ./internal/timeline

# Load-generator smoke: one short mixed run against an in-process
# server. -check fails the run on zero completed requests, any
# transport error, or any 5xx — a one-second end-to-end exercise of the
# whole serving stack (routing, caches, worker pool, encoding).
go run ./cmd/ttmcas-loadgen -scenario mixed -d 1s -c 4 -check

# Chaos smoke: one short fault-injected run (latency spikes, errors,
# one panic) against a deliberately small in-process server. -check
# asserts the availability contract: zero transport errors, every 5xx
# a deliberate Retry-After-bearing shed, goodput >= 90% of admitted
# requests, bounded p99, stale fallbacks observed, and the goroutine
# count back at baseline after drain.
go run ./cmd/ttmcas-loadgen -scenario chaos -d 2s -c 8 -check

# Cluster smoke: a 4-node in-process cluster (real loopback listeners
# between peers) with one node killed a quarter in and revived at three
# quarters. -check asserts zero transport errors, every request
# answered 200 across the kill and rejoin, forwards actually exercised,
# and the ring reconverged.
go run ./cmd/ttmcas-loadgen -scenario cluster -nodes 4 -kill -d 2s -c 4 -check

# Timeline smoke: one fab-fire-recovery batch job driven end to end
# through /v1/jobs (submit, poll to success, fetch the result), then a
# short 9:1 cached/uncached POST /v1/scenarios mix against an
# in-process server. -check fails on transport errors or any 5xx
# beyond deliberate Retry-After-bearing sheds.
go run ./cmd/ttmcas-loadgen -scenario timeline -d 2s -c 4 -check

# Distributed-job smoke: heavy mc-band batch jobs sharded across a
# 4-node in-process ring with a mid-run node kill and rejoin. -check
# asserts zero lost jobs, remotely completed shards, and a reconverged
# ring.
go run ./cmd/ttmcas-loadgen -scenario distjobs -nodes 4 -kill -d 2s -c 3 -check

# Netsplit smoke: a 4-node in-process cluster with a mid-run asymmetric
# partition (every majority node's traffic to the victim blackholed,
# the victim's outbound intact) that heals before the run ends. -check
# asserts the partition-tolerance contract: zero transport errors and
# zero non-2xx in every phase, zero lost jobs, breakers open and
# re-close, the ring reconverges, and partitioned-phase throughput at
# least half the healthy phase's.
go run ./cmd/ttmcas-loadgen -scenario netsplit -nodes 4 -d 2s -c 2 -check
