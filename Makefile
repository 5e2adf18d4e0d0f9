# Developer/CI entry points. `make check` is what CI runs; the race
# detector is part of it because internal/server is concurrent.

GO ?= go

.PHONY: check fmt vet build test race serve bench benchmod benchsmoke loadsmoke chaossmoke clustersmoke timelinesmoke distjobssmoke netsplitsmoke

check: fmt vet build race benchmod benchsmoke loadsmoke chaossmoke clustersmoke timelinesmoke distjobssmoke netsplitsmoke

# Every Go file must be gofmt-clean; any file gofmt -l lists fails the
# check (hidden directories, such as .bench_build/, are skipped).
fmt:
	@out="$$(gofmt -l $$(find . -name '*.go' -not -path './.*'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

serve: build
	$(GO) run ./cmd/ttmcas-serve

# The end-to-end benchmark (bench/, run by bench/run.sh) is a nested Go
# module that ./... never reaches: vet it and run its tests, including
# the 1 s smoke of every workload.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every throughput benchmark — including the compiled
# core kernel's — catches benchmarks that no longer compile or fail,
# without paying for measurement runs.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core ./internal/mc ./internal/sens ./internal/sweep ./internal/timeline

# One short closed-loop run of the load generator against an in-process
# server; -check fails on transport errors or 5xx responses.
loadsmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario mixed -d 1s -c 4 -check

# One short fault-injected run against a deliberately small in-process
# server; -check asserts the availability contract: every 5xx a
# deliberate Retry-After-bearing shed, goodput >= 90% of admitted,
# bounded p99, stale serves observed, goroutines drained.
chaossmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario chaos -d 2s -c 8 -check

# A 4-node in-process cluster with a mid-run node kill and rejoin;
# -check runs a single-node baseline first and asserts near-linear
# scaling (>= 0.8 x 4 x baseline RPS) with zero lost requests and a
# reconverged ring.
clustersmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario cluster -nodes 4 -kill -d 2s -c 4 -check

# A short timeline run: one fab-fire-recovery batch job driven through
# /v1/jobs end to end, then a 9:1 cached/uncached POST /v1/scenarios
# mix; -check fails on transport errors or any 5xx beyond deliberate
# sheds.
timelinesmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario timeline -d 2s -c 4 -check

# A 4-node in-process cluster running heavy mc-band batch jobs sharded
# across the ring, with a mid-run node kill and rejoin; -check runs a
# single-node baseline first and asserts zero lost jobs, remotely
# completed shards, a reconverged ring, and >= 0.7 x 4 x baseline
# jobs/s.
distjobssmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario distjobs -nodes 4 -kill -d 2s -c 3 -check

# A 4-node in-process cluster with a mid-run asymmetric partition
# (majority -> victim traffic blackholed, victim outbound intact) that
# heals before the run ends; -check asserts the partition-tolerance
# contract: zero client-visible errors in every phase, zero lost jobs,
# breakers open and re-close, the ring reconverges, and partitioned
# throughput >= 0.5 x healthy.
netsplitsmoke:
	$(GO) run ./cmd/ttmcas-loadgen -scenario netsplit -nodes 4 -d 2s -c 2 -check

# Full measurement runs (kernel, band curves, Sobol) with allocation
# counts and a parallel-vs-serial guard; writes BENCH_jobs.json.
bench:
	scripts/bench.sh
