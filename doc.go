// Package ttmcas is an open-source Go implementation of the modeling
// framework from "Supply Chain Aware Computer Architecture" (Ning,
// Tziantzioulis, Wentzlaff — ISCA 2023): a chip-creation
// time-to-market model, the Chip Agility Score (CAS), and a
// Moonwalk-style chip-creation cost model, together with the
// substrates needed to reproduce the paper's five case studies — a
// process-node database, a negative-binomial yield model, a
// trace-driven cache simulator, structural accelerator models, a
// discrete-event fab-pipeline simulator, Monte-Carlo uncertainty and
// Sobol sensitivity analysis, and optimizers for cache sizing and
// multi-process production splits.
//
// # Quick start
//
//	d := ttmcas.A11().Retarget(ttmcas.N28) // re-release the A11 at 28nm
//	r, err := ttmcas.Evaluate(d, 10e6, ttmcas.FullCapacity())
//	// r.TTM is the time-to-market in calendar weeks;
//	// r.Tapeout/r.Fabrication/r.Packaging decompose it (Eq. 1).
//
//	cas, err := ttmcas.CAS(d, 10e6, ttmcas.FullCapacity())
//	// cas.CAS is the Chip Agility Score (Eq. 8), wafers/week².
//
//	cost, err := ttmcas.Cost(d, 10e6)
//	// cost.Total decomposes into NRE, wafers and packaging.
//
// Market conditions model the supply-chain state: capacity fractions
// per node and quoted foundry queues:
//
//	shortage := ttmcas.FullCapacity().WithQueue(ttmcas.N7, 4).AtCapacity(0.6)
//
// Every figure and table of the paper's evaluation regenerates through
// the Figure function (or the ttmcas CLI's `figure`/`table`
// subcommands), and the benchmark harness in bench_test.go times each
// one.
//
// # Serving
//
// The cmd/ttmcas-serve binary runs the framework as an always-on HTTP
// evaluation service (internal/server): a JSON REST API over this
// package — POST /v1/ttm, /v1/cas, /v1/cost, /v1/sensitivity,
// /v1/plan, /v1/scenarios (timeline evaluation) and GET /v1/nodes,
// /v1/scenarios, /v1/designs, /v1/episodes — with a
// keyed, byte-budgeted response cache, single-flight deduplication of
// concurrent identical evaluations, a bounded worker pool for the
// expensive analyses, per-request timeouts, graceful shutdown, and
// /healthz + /metrics endpoints. Built-in designs are addressable by
// name through DesignByName, the same registry the CLI's -design flag
// uses.
//
// # Operating under overload
//
// The server degrades predictably instead of collapsing when offered
// more work than it can finish (internal/resilience). Every
// evaluation route passes through a CoDel-style admission limiter —
// one per route class, cheap (closed-form evaluations) and heavy (the
// sensitivity/plan worker pool): while the minimum queueing delay
// over a rolling interval exceeds the -shed-target-ms target,
// arrivals are shed with 503 and a Retry-After header rather than
// queued behind work that cannot finish in time. Cache hits bypass
// admission, so a shedding server still serves its hot set at full
// speed. Cached answers never degrade: the models are deterministic, so
// a cached body stays valid until evicted, and hits bypass both
// admission and fault injection. An off-by-default fault injector
// (-fault-spec; internal/resilience/fault) degrades routes and cluster
// links for drills: cmd/ttmcas-loadgen's chaos scenario runs
// fault-injected load over warmed and fresh keys and asserts
// availability — every warmed key answered 2xx, every 5xx a deliberate
// shed or a contained panic, goodput at least 90% of admitted
// requests, no goroutine leaks after drain.
//
// # Running a cluster
//
// Several ttmcas-serve processes form a cluster given only each
// other's URLs (-peers plus -cluster-addr; internal/cluster — no
// coordinator, no external store). A consistent-hash ring with
// virtual nodes maps each request's canonical cache key to one owning
// node: send any request to any node, the owner computes and caches
// it, a non-owner forwards server-side in one hop (X-Cache: FWD) — so
// each distinct evaluation is computed once cluster-wide. Batch jobs route
// to their owner the same way and are findable through any node.
// Gossip-style health probes drive an alive → suspect → dead state
// machine: a suspect peer keeps its ring segment (brief stalls don't
// reshuffle the keyspace), a dead one is evicted and the ring
// rebalances, moving only ≈1/N of the keyspace; the first successful
// probe rejoins it. A failed forward falls back to local computation
// — availability beats placement — and /v1/cluster plus the
// ttmcas_cluster_* metrics expose membership, epoch and traffic
// placement. cmd/ttmcas-loadgen's cluster scenario drives an
// in-process N-node fleet through a kill and rejoin and asserts that
// no request is lost and the ring reconverges (part of make check).
//
// # Batch jobs
//
// The analyses behind the paper's figures — Monte-Carlo uncertainty
// bands, Sobol sensitivity, node-by-volume sweeps, cache Pareto
// fronts, multi-scenario plan portfolios — take seconds to minutes, so
// the server also runs them asynchronously (internal/jobs): POST
// /v1/jobs accepts a typed spec and returns 202 with a job id; GET
// /v1/jobs/{id} reports progress (done/total and ETA); DELETE cancels
// a running job promptly. Jobs are executed by a bounded worker pool
// with per-job deadlines and panic isolation, and with snapshot
// persistence enabled they survive a server restart: finished results
// come back queryable and interrupted jobs re-run from their
// deterministic specs. The ttmcas CLI's `jobs` subcommand runs the
// same specs locally without a server.
//
// # Composing scenarios
//
// Static market conditions answer "what does TTM look like under this
// state"; disruptions are trajectories. The timeline composer
// (internal/timeline, exported here as TimelineSpec, CompileTimeline
// and EvaluateTimeline) turns a declarative spec — fab-outage ramps
// with recovery, demand shocks with the hoarding feedback,
// queue-depth drift, composed over a named base scenario — into a
// piecewise conditions curve, evaluates TTM and CAS at every step
// through the same compiled kernel as the static path, and reports
// summary statistics: peak TTM, peak CAS degradation, time-to-recover
// and the integrated AUC schedule loss. An optional in-flight study
// simulates an order placed at week 0 through the disruption
// (promised vs simulated TTM). A built-in library of historical
// episodes (TimelineEpisodes; the 2020-22 global shortage, a
// single-fab loss, an export-control shock, a fab-fire recovery) is
// anchored bit-for-bit to the static scenario library at its
// endpoints. The server evaluates timelines inline at POST
// /v1/scenarios, asynchronously as the "timeline" job kind, and the
// CLI's `timeline` subcommand runs them locally.
//
// # Performance
//
// core.Model.Compile resolves a (design, volume, conditions) triple
// once into a flat, allocation-free evaluation kernel, and the
// Monte-Carlo, Sobol and split-study drivers fan out over it in
// adaptive chunks with one kernel clone and one RNG per worker
// (falling back to inline execution for small batches, so the fan-out
// costs nothing on one core). Production code holds one
// implementation of the equations, the batch path below: the per-call
// methods (EvalResultChips, EvalChipsAtCapacity, CASChipsAtCapacity,
// CASResultChips, CostChips) run it on a one-sample batch the
// Evaluator owns, Model.Evaluate, TTM and CAS are a Compile plus one
// such call, and the cost model reads its die phase. The kernel is
// tested bit-for-bit, error text included, against a
// map-based reference that exists only in internal/core's tests,
// across all built-in designs, model variants and market scenarios
// and under fuzzed inputs, and `make bench` records the kernel and
// driver throughput — with allocation counts — in BENCH_jobs.json.
//
// The batch path is structure-of-arrays: Evaluator.EvalBatch and
// CASBatch take a core.Batch of flat per-input columns — perturbation fields, chip
// counts, a global factor, per-node factor and queue columns in
// compiled node order, with nil meaning "default for every sample" —
// and fill caller-preallocated output slices in one call. Per-sample
// failures come back as a compact index list (core.BatchErrors) whose
// First method returns the lowest-index failure, exactly what a serial
// per-call loop would have hit, with the identical error value. A
// capacity sweep is a Global column. Batches are oracle-tested
// bit-for-bit against the per-call methods, sample by sample (values
// and error reporting), and are allocation-free in steady state;
// callers pool the Batch, outputs and BatchErrors per worker and share
// one Evaluator, while per-call callers give each goroutine its own
// Evaluator.Clone. It is the one
// evaluation path of every driver — the Monte-Carlo estimates and
// bands, the Saltelli estimator (serial and sharded alike: one range
// evaluator, one reducer), the split-study fraction sweep, and per-step
// timeline evaluation (compiled once, stepped via SetConditions) — and
// each package's tests hold its driver bit for bit against a
// per-sample reference on core.Model.
//
// The HTTP service applies the same discipline to its hot path. A
// sharded, byte-budgeted cache holds encoded response bodies in
// pointer-free byte rings the collector never scans, evicting
// second-chance FIFO (a hit costs a map lookup, a key compare and a
// copy into a pooled buffer — no encoding, no timer, near-zero
// allocation), single-flight collapses concurrent
// identical misses, and an LRU caches compiled evaluators per
// design identity (design, re-target node), onto which
// each miss binds its own market conditions, so misses skip
// re-compilation even under conditions never seen before.
// The end-to-end benchmark (bench/run.sh) measures the hit and miss
// paths under load against a bit-for-bit oracle, and `make bench`
// records the in-process hit path as BenchmarkServerTTMCachedHit in
// BENCH_jobs.json.
//
// The model equations are implemented exactly as printed in the paper;
// parameter values are calibrated to the paper's published anchors as
// documented in DESIGN.md. Absolute weeks and dollars are
// representational — comparisons between designs, nodes and market
// conditions are the intended use, as in the paper itself.
package ttmcas
