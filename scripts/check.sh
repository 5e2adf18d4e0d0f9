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
# the compiled core kernel's and the server's cached-hit path — so a
# broken benchmark fails CI without CI paying for real measurement
# runs.
go test -run '^$' -bench . -benchtime 1x ./internal/core ./internal/mc ./internal/sens ./internal/sweep ./internal/timeline
go test -run '^$' -bench '^BenchmarkServerTTMCachedHit$' -benchtime 1x ./internal/server

# The loadgen smokes: each scenario once, briefly, under -check, which
# fails the run unless the scenario's contract holds. The contracts are
# spelled out in the cmd/ttmcas-loadgen package comment and
# table-tested in cmd/ttmcas-loadgen/check_test.go:
#   chaos     fault-injected single server: every 5xx a deliberate shed,
#             goodput, bounded p99, stale serves, goroutines drained
#   cluster   4 nodes, one killed and revived: every request 200,
#             forwards exercised, node restarted, ring reconverged
#   timeline  one batch job end to end, then a /v1/scenarios mix: no
#             5xx beyond deliberate sheds
#   distjobs  sharded mc-band jobs across 4 nodes with a kill: zero lost
#             jobs, remote shards, node restarted, ring reconverged
#   netsplit  4 nodes across an asymmetric partition and heal: every
#             request 2xx, zero lost jobs, breakers open and re-close,
#             ring reconverged, partitioned RPS >= 0.5 x healthy
go run ./cmd/ttmcas-loadgen -scenario chaos -d 2s -c 8 -check
go run ./cmd/ttmcas-loadgen -scenario cluster -nodes 4 -kill -d 2s -c 4 -check
go run ./cmd/ttmcas-loadgen -scenario timeline -d 2s -c 4 -check
go run ./cmd/ttmcas-loadgen -scenario distjobs -nodes 4 -kill -d 2s -c 3 -check
go run ./cmd/ttmcas-loadgen -scenario netsplit -nodes 4 -d 2s -c 2 -check
