// Command ttmcas-serve runs the supply-chain model as an always-on
// HTTP evaluation service: a JSON REST API over the public ttmcas
// package with a keyed, byte-budgeted response cache, single-flight
// deduplication of concurrent identical evaluations, a bounded worker
// pool for the expensive analyses, and health/metrics endpoints.
//
// Usage:
//
//	ttmcas-serve [-addr :8080] [-cache-bytes 67108864] [-cache-shards 16] [-eval-cache 256]
//	             [-max-concurrent 4] [-cheap-concurrent 2*GOMAXPROCS] [-request-timeout 30s]
//	             [-shed-target-ms 25]
//	             [-job-workers 2] [-max-jobs 32] [-job-ttl 1h] [-job-timeout 10m]
//	             [-job-snapshots DIR] [-max-samples 8192] [-max-curve-points 64]
//	             [-max-timeline-steps 256]
//	             [-fault-spec ""] [-fault-seed 1] [-pprof-addr localhost:6060]
//	             [-peers URL,URL] [-cluster-addr http://host:port] [-node-id ID]
//	             [-vnodes 64] [-probe-interval 1s] [-probe-timeout 0]
//
// Endpoints:
//
//	POST   /v1/ttm              time-to-market with per-phase breakdown
//	POST   /v1/cas              Chip Agility Score (optionally a CAS/TTM curve)
//	POST   /v1/cost             chip-creation cost breakdown
//	POST   /v1/sensitivity      Sobol sensitivity of TTM (worker pool)
//	POST   /v1/plan             §7 manufacturing-plan recommendation (worker pool)
//	POST   /v1/scenarios        evaluate a composed disruption timeline inline
//	POST   /v1/jobs             submit an async batch job (mc-band, sensitivity,
//	                            sweep, pareto, plan-portfolio, timeline)
//	GET    /v1/jobs             list batch jobs, newest first
//	GET    /v1/jobs/{id}        job status with progress and ETA
//	GET    /v1/jobs/{id}/result finished job's result document
//	DELETE /v1/jobs/{id}        cancel a job (remove it once finished)
//	GET    /v1/nodes            the process-node database
//	GET    /v1/scenarios        built-in market scenarios
//	GET    /v1/episodes         built-in historical disruption episodes
//	GET    /v1/designs          built-in case-study designs
//	GET    /v1/cluster          cluster membership, ring and peer health
//	GET    /healthz             liveness probe (JSON: node ID, uptime, ring epoch)
//	GET    /metrics             Prometheus text-format counters
//
// With -pprof-addr the standard net/http/pprof profiles are served on
// a second, separate listener (off by default; bind it to localhost).
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM; running batch jobs are cancelled, and with -job-snapshots
// they are persisted and resumed on the next start.
//
// # Operating under overload
//
// Every evaluation route passes through a CoDel-style admission
// limiter (one per route class: "cheap" for closed-form evaluations,
// "heavy" for the sensitivity/plan worker pool). When the minimum
// queueing delay over a rolling interval stays above -shed-target-ms
// the limiter sheds: excess requests are answered 503 with a
// Retry-After header instead of being queued behind work that cannot
// finish in time. Admission counters are exported on /metrics as
// ttmcas_admission_{admitted,shed}_total{class}.
//
// Cached answers never degrade: every model is a pure function of its
// request and the built-in node database, so a cached body stays valid
// until evicted, and cache hits bypass both admission and fault
// injection. Overload and injected faults reach only cache misses.
//
// -fault-spec enables fault injection (off by default; seeded by
// -fault-seed) for chaos testing. Route rules degrade this node's
// handlers, e.g.:
//
//	-fault-spec "route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1"
//
// Injected route faults surface as 503s with Retry-After (or one-shot
// contained panics). All injected faults are counted in
// ttmcas_faults_injected_total{kind}. See ttmcas-loadgen -scenario
// chaos for the matching availability check, and "Failure model"
// below for link rules.
//
// # Cluster mode
//
// With -peers and -cluster-addr set, the node joins a consistent-hash
// cluster: every canonical request key has exactly one owning node, and
// a node receiving a key it does not own forwards the request to the
// owner over HTTP. Peer health is probed via /healthz every
// -probe-interval; a peer failing probes is first suspected (kept on
// the ring) and then evicted, its key range redistributing to the
// survivors, and re-admitted on its first successful probe. Forwarding failures never lose requests — the node
// computes locally instead. Batch jobs route to the owner of their spec
// so snapshots never collide. See README.md "Running a cluster".
//
// # Failure model
//
// The cluster transport assumes peers can fail arbitrarily — crash,
// hang, or be partitioned away asymmetrically — and promises that none
// of it becomes a client-visible error:
//
//   - Every peer gets a circuit breaker. Enough consecutive transport
//     failures (or a high failure rate over a rolling window) opens it;
//     while open, forwards to that peer fail instantly instead of
//     burning their deadline, and the node computes locally. Health
//     probes keep flowing regardless — they are the recovery detector —
//     and probe successes walk the breaker through half-open back to
//     closed. Breaker state is exported per peer on /metrics
//     (ttmcas_cluster_breaker_state) and in /v1/cluster.
//
//   - Retries spend a bounded budget. Only idempotent traffic retries
//     (evaluation forwards; never job submission), with full-jitter
//     exponential backoff, honoring Retry-After on 503s, and drawing on
//     a per-class token budget that refills as a fraction of request
//     volume — so a down peer costs a trickle of retries, not a storm.
//     ttmcas_cluster_retries_total and _retries_denied_total count the
//     spend.
//
//   - What cannot retry falls back. A failed job-submit forward runs
//     the job locally; a failed shard dispatch hedges to the next-alive
//     peer and finally computes locally; a partitioned owner's key
//     range redistributes once gossip evicts it. A partition therefore
//     degrades locality and throughput, never correctness.
//
//   - Probes are bounded separately. -probe-timeout caps one probe
//     independently of -probe-interval, so a hung peer (accepting
//     connections, never answering) is suspected on schedule instead of
//     wedging the prober.
//
// Link rules in the same -fault-spec inject deterministic network
// faults into this exact machinery for drills. Rules are
// ';'-separated, fields space-separated:
//
//	-fault-spec "partition=a:8080,b:8080"             # symmetric split
//	-fault-spec "partition=a:8080->b:8080"            # one direction only
//	-fault-spec "to=b:8080 error-rate=0.3 latency=50ms"
//
// See ttmcas-loadgen -scenario netsplit for the matching
// partition-tolerance check, and README.md "Failure model" for the
// full contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ttmcas/internal/resilience/fault"
	"ttmcas/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmcas-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttmcas-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "response-cache byte budget across shards, charged per entry as its 16-byte record header, key and body; the oldest entry not hit since written is evicted first (negative disables caching)")
	cacheShards := fs.Int("cache-shards", 16, "response-cache shard count, rounded up to a power of two")
	evalCache := fs.Int("eval-cache", 256, "compiled-evaluator cache capacity in entries, one per design identity (negative disables)")
	accessLog := fs.Bool("access-log", true, "log one line per request (disable for peak throughput)")
	maxConcurrent := fs.Int("max-concurrent", 4, "worker-pool bound for sensitivity/plan requests")
	cheapConcurrent := fs.Int("cheap-concurrent", 0, "admission bound for cheap evaluation requests (0 = 2*GOMAXPROCS)")
	shedTargetMS := fs.Int("shed-target-ms", 25, "admission queue-delay target in milliseconds before shedding")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline")
	maxBody := fs.Int64("max-body", 1<<20, "largest accepted request body in bytes")
	jobWorkers := fs.Int("job-workers", 2, "concurrent batch jobs")
	maxJobs := fs.Int("max-jobs", 32, "largest pending+running batch-job count")
	jobTTL := fs.Duration("job-ttl", time.Hour, "how long finished job results are retained")
	jobTimeout := fs.Duration("job-timeout", 10*time.Minute, "default per-job deadline")
	jobSnapshots := fs.String("job-snapshots", "", "directory for job snapshots (persists results across restarts; empty disables)")
	maxSamples := fs.Int("max-samples", 8192, "largest accepted sample count (sensitivity N, Monte-Carlo samples)")
	maxCurvePoints := fs.Int("max-curve-points", 64, "largest accepted curve/grid point list")
	maxTimelineSteps := fs.Int("max-timeline-steps", 256, "largest timeline evaluated inline by /v1/scenarios (bigger ones go through /v1/jobs)")
	faultSpec := fs.String("fault-spec", "", "fault-injection spec for routes and cluster links (empty disables), e.g. \"route=/v1/ttm error-rate=0.05; partition=a:8080,b:8080\"")
	faultSeed := fs.Int64("fault-seed", 1, "deterministic seed for the fault-injection draw stream")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty disables)")
	peers := fs.String("peers", "", "comma-separated base URLs of the other cluster members (empty disables clustering)")
	clusterAddr := fs.String("cluster-addr", "", "this node's advertised base URL, e.g. http://10.0.0.1:8080 (required with -peers)")
	nodeID := fs.String("node-id", "", "node identity in /healthz and cluster state (default: -cluster-addr without scheme)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per ring member (0 = default 64)")
	probeInterval := fs.Duration("probe-interval", time.Second, "peer health-probe period")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe deadline, decoupled from -probe-interval (0 = the interval, capped at 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := fault.Parse(*faultSpec, *faultSeed); err != nil {
		return fmt.Errorf("-fault-spec: %w", err)
	}
	var peerList []string
	if *peers != "" {
		if *clusterAddr == "" {
			return fmt.Errorf("-peers requires -cluster-addr (this node's advertised URL)")
		}
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(strings.TrimSuffix(p, "/"))
			if p == "" {
				continue
			}
			if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
				return fmt.Errorf("-peers: %q is not a base URL (want http://host:port)", p)
			}
			peerList = append(peerList, p)
		}
		if len(peerList) == 0 {
			return fmt.Errorf("-peers: no usable peer URLs in %q", *peers)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := log.New(os.Stderr, "ttmcas-serve ", log.LstdFlags|log.Lmicroseconds)

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		ps := &http.Server{Handler: server.PprofHandler(), ReadHeaderTimeout: 10 * time.Second, ErrorLog: logger}
		defer ps.Close()
		go ps.Serve(ln)
		logger.Printf("pprof listening on http://%s/debug/pprof/", ln.Addr())
	}

	srv := server.New(server.Config{
		Addr:             *addr,
		CacheBytes:       *cacheBytes,
		CacheShards:      *cacheShards,
		EvalCacheSize:    *evalCache,
		DisableAccessLog: !*accessLog,
		MaxConcurrent:    *maxConcurrent,
		CheapConcurrent:  *cheapConcurrent,
		ShedTarget:       time.Duration(*shedTargetMS) * time.Millisecond,
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBody,
		JobWorkers:       *jobWorkers,
		MaxJobs:          *maxJobs,
		JobTTL:           *jobTTL,
		JobTimeout:       *jobTimeout,
		JobSnapshotDir:   *jobSnapshots,
		MaxSamples:       *maxSamples,
		MaxCurvePoints:   *maxCurvePoints,
		MaxTimelineSteps: *maxTimelineSteps,
		FaultSpec:        *faultSpec,
		FaultSeed:        *faultSeed,
		Logger:           logger,

		NodeID:               *nodeID,
		ClusterSelfURL:       strings.TrimSuffix(*clusterAddr, "/"),
		ClusterPeers:         peerList,
		ClusterVNodes:        *vnodes,
		ClusterProbeInterval: *probeInterval,
		ClusterProbeTimeout:  *probeTimeout,
	})
	return srv.ListenAndServe(ctx)
}
