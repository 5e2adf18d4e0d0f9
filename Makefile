# Developer/CI entry points. `make check` is what CI runs: it is
# scripts/check.sh, the one list of verification steps (gofmt gate,
# vet, build, the test suite under the race detector, the bench/
# module, the bench smoke and the loadgen -check smokes).

GO ?= go

.PHONY: check fmt vet build test race serve bench

check:
	scripts/check.sh

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

# Full measurement runs (kernel, band curves, Sobol, the cached-hit
# server path, timeline, distjobs, netsplit) with allocation counts and
# guards; writes the BENCH_*.json records.
bench:
	scripts/bench.sh
