package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/resilience"
	"ttmcas/internal/resilience/fault"
)

// Config parameterizes a Server. The zero value of every field selects
// a production-sensible default.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// CacheBytes budgets the sharded response cache by total cached
	// body bytes (default 64 MiB); negative disables caching.
	CacheBytes int64
	// CacheShards is the response-cache shard count, rounded up to a
	// power of two (default 16). More shards means less lock
	// contention between concurrent hits on different keys.
	CacheShards int
	// EvalCacheSize is the compiled-evaluator cache capacity in
	// entries — one per design identity (model variant, design name or
	// inline spec, re-target node); each request binds its own market
	// conditions onto a pooled clone (default 256); negative disables it.
	EvalCacheSize int
	// MaxConcurrent bounds the heavy admission class — sensitivity
	// analysis and planning (default 4).
	MaxConcurrent int
	// CheapConcurrent bounds the cheap admission class — the ttm, cas
	// and cost computations behind response-cache misses
	// (default 2×GOMAXPROCS). Cache hits are never limited.
	CheapConcurrent int
	// ShedTarget is the CoDel-style queue-delay target of both
	// admission classes (default 25ms): when even the minimum slot
	// wait over an observation interval exceeds it, new arrivals are
	// shed with 503 + Retry-After instead of queueing.
	ShedTarget time.Duration
	// FreshTTL is how long a cached response is served directly; past
	// it the entry is revalidated by recomputation (default 0: cached
	// responses never go stale — the models are deterministic).
	FreshTTL time.Duration
	// StaleTTL is how long past freshness an entry is retained for
	// graceful degradation: when revalidation is shed or fails, the
	// stale body is served with X-Cache: STALE instead of an error
	// (default 0: no stale serving). Meaningful only with FreshTTL set.
	StaleTTL time.Duration
	// FaultSpec enables fault injection (see internal/resilience/fault
	// for the grammar); empty disables it. Route rules apply to the
	// evaluation routes' compute path — downstream of the cache,
	// upstream of the degradation machinery — and ahead of the job and
	// listing handlers. Link rules shape this node's outbound cluster
	// traffic (forwards, shard dispatches and gossip probes), e.g.
	// "partition=10.0.0.1:8080,10.0.0.3:8080; to=* error-rate=0.3";
	// client requests to this node are not touched by them.
	FaultSpec string
	// FaultSeed fixes the fault injector's decision stream (default 1).
	FaultSeed int64
	// FaultPaused starts the fault injector paused; harnesses resume it
	// mid-run (the netsplit scenario opens its partition this way).
	FaultPaused bool
	// RequestTimeout is the per-request deadline (default 30s); work
	// queued behind a full worker pool gives up when it expires.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Serve drains in-flight requests
	// after its context is canceled (default 30s).
	ShutdownGrace time.Duration
	// Logger receives structured request logs (default log.Default()).
	Logger *log.Logger
	// DisableAccessLog turns off the per-request log line (panics and
	// lifecycle events still log). High-throughput deployments pay
	// measurable per-request formatting cost for access logs even when
	// the destination discards them.
	DisableAccessLog bool

	// MaxSamples caps the client-supplied sample counts: the Saltelli
	// base N of /v1/sensitivity and the Monte-Carlo samples of batch
	// jobs. Requests above it are rejected with 422 (default 8192).
	MaxSamples int
	// MaxCurvePoints caps the /v1/cas curve length and the point lists
	// of batch jobs; above it is 422 (default 64).
	MaxCurvePoints int
	// MaxTimelineSteps caps the step count of timelines evaluated
	// inline by POST /v1/scenarios; longer timelines must go through
	// the batch-job route. Above it is 422 (default 256).
	MaxTimelineSteps int

	// JobWorkers bounds how many batch jobs run concurrently
	// (default 2).
	JobWorkers int
	// MaxJobs bounds pending+running batch jobs; submissions beyond it
	// get 429 (default 32).
	MaxJobs int
	// JobTTL evicts finished job results this long after completion
	// (default 1h).
	JobTTL time.Duration
	// JobTimeout is the per-job deadline when the spec sets none
	// (default 10m).
	JobTimeout time.Duration
	// JobSnapshotDir, when set, persists jobs as JSON so results
	// survive a restart and interrupted jobs resume.
	JobSnapshotDir string
	// MaxJobEvaluations caps the estimated evaluation units of one job
	// (default 2,000,000).
	MaxJobEvaluations int

	// NodeID identifies this process in /healthz and cluster state
	// (default: ClusterSelfURL without its scheme, or "single").
	NodeID string
	// ClusterSelfURL is this node's advertised base URL
	// ("http://host:port") — its identity on the hash ring. Cluster
	// mode is enabled when both it and ClusterPeers are set.
	ClusterSelfURL string
	// ClusterPeers lists the other members' base URLs.
	ClusterPeers []string
	// ClusterVNodes is the virtual-node count per ring member
	// (default 64). All members must agree on it.
	ClusterVNodes int
	// ClusterRedirect answers ownership misses with 307 redirects to
	// the owning node instead of forwarding server-side.
	ClusterRedirect bool
	// ClusterProbeInterval is the peer health-probe period (default 1s).
	ClusterProbeInterval time.Duration
	// ClusterSuspectAfter and ClusterEvictAfter are the consecutive
	// probe failures after which a peer is marked suspect (default 2)
	// and evicted from the ring (default 3).
	ClusterSuspectAfter int
	ClusterEvictAfter   int
	// ClusterProbeTimeout bounds one health probe, decoupled from the
	// probe interval (default: ProbeInterval, capped at 2s).
	ClusterProbeTimeout time.Duration
	// ClusterBreaker tunes the per-peer circuit breakers on the
	// forward path; the zero value selects the resilience defaults.
	ClusterBreaker resilience.BreakerConfig
	// ClusterRetry tunes the forward retry budget and backoff; the
	// zero value selects the resilience defaults.
	ClusterRetry resilience.RetryPolicy
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.EvalCacheSize == 0 {
		c.EvalCacheSize = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.CheapConcurrent <= 0 {
		c.CheapConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.ShedTarget <= 0 {
		c.ShedTarget = 25 * time.Millisecond
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 8192
	}
	if c.MaxCurvePoints <= 0 {
		c.MaxCurvePoints = 64
	}
	if c.MaxTimelineSteps <= 0 {
		c.MaxTimelineSteps = 256
	}
	if c.NodeID == "" {
		if c.ClusterSelfURL != "" {
			c.NodeID = strings.TrimPrefix(strings.TrimPrefix(c.ClusterSelfURL, "https://"), "http://")
		} else {
			c.NodeID = "single"
		}
	}
	if c.ClusterVNodes <= 0 {
		c.ClusterVNodes = cluster.DefaultVNodes
	}
	return c
}

// Server is the HTTP evaluation service: JSON handlers over the public
// ttmcas API, a keyed LRU response cache with single-flight
// deduplication, per-class adaptive admission control for the compute
// paths, and a metrics registry exposed at /metrics.
type Server struct {
	cfg     Config
	log     *log.Logger
	handler http.Handler
	cache   *shardedCache
	evals   *evalCache
	flight  flightGroup
	metrics *Metrics
	// cheap and heavy are the two admission classes: cheap gates the
	// inexpensive evaluations behind response-cache misses, heavy gates
	// sensitivity analysis and planning. Both shed with 503 +
	// Retry-After once their queue delay stands above ShedTarget.
	cheap *resilience.Limiter
	heavy *resilience.Limiter
	// faults injects deliberate failures into routes and the cluster
	// transport; nil when disabled.
	faults *fault.Injector
	// refreshSem bounds concurrent background stale refreshes so a
	// burst of stale serves cannot spawn unbounded goroutines.
	refreshSem chan struct{}
	jobs       *jobs.Manager
	// cluster is the consistent-hash peer layer (nil when the node runs
	// alone): ownership lookup, peer-to-peer forwarding, gossip health.
	cluster *cluster.Cluster
	started time.Time
	closed  sync.Once

	// slowEval, when set, runs at the start of every model
	// computation; tests use it to hold requests in flight.
	slowEval func()
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		cache:   newShardedCache(cfg.CacheBytes, cfg.CacheShards, cfg.FreshTTL, cfg.StaleTTL),
		evals:   newEvalCache(cfg.EvalCacheSize),
		metrics: NewMetrics(),
		cheap: resilience.NewLimiter(resilience.LimiterConfig{
			Name:          "cheap",
			MaxConcurrent: cfg.CheapConcurrent,
			Target:        cfg.ShedTarget,
		}),
		heavy: resilience.NewLimiter(resilience.LimiterConfig{
			Name:          "heavy",
			MaxConcurrent: cfg.MaxConcurrent,
			Target:        cfg.ShedTarget,
		}),
		refreshSem: make(chan struct{}, 2),
		started:    time.Now(),
	}
	if inj, err := fault.Parse(cfg.FaultSpec, cfg.FaultSeed); err != nil {
		// Config errors here cannot fail New's signature; the CLI
		// pre-validates the spec, so this path only logs and disables.
		cfg.Logger.Printf("ignoring invalid fault spec: %v", err)
	} else if inj != nil {
		s.faults = inj
		if cfg.FaultPaused {
			inj.Pause()
		}
	}
	if cfg.ClusterSelfURL != "" && len(cfg.ClusterPeers) > 0 {
		copts := cluster.Options{
			SelfID:        cfg.NodeID,
			SelfURL:       cfg.ClusterSelfURL,
			Peers:         cfg.ClusterPeers,
			VNodes:        cfg.ClusterVNodes,
			Redirect:      cfg.ClusterRedirect,
			ProbeInterval: cfg.ClusterProbeInterval,
			ProbeTimeout:  cfg.ClusterProbeTimeout,
			SuspectAfter:  cfg.ClusterSuspectAfter,
			EvictAfter:    cfg.ClusterEvictAfter,
			Breaker:       cfg.ClusterBreaker,
			Retry:         cfg.ClusterRetry,
			Logger:        cfg.Logger,
		}
		if s.faults != nil {
			// Wrap the whole cluster transport — forwards AND gossip
			// probes — so a partition is symmetric with production: a
			// peer this node cannot reach is also a peer it cannot
			// probe, and suspicion machinery reacts accordingly.
			copts.Client = &http.Client{
				Transport: s.faults.Bind(cfg.ClusterSelfURL).Transport(&http.Transport{
					MaxIdleConns:        64,
					MaxIdleConnsPerHost: 64,
					IdleConnTimeout:     90 * time.Second,
				}),
			}
		}
		s.cluster = cluster.New(copts)
		s.metrics.clusterStats = s.cluster.Stats
	}
	s.metrics.cacheStats = s.cache.Stats
	s.metrics.evalStats = s.evals.Stats
	s.metrics.limiterStats = func() []resilience.LimiterStats {
		return []resilience.LimiterStats{s.cheap.Stats(), s.heavy.Stats()}
	}
	s.metrics.faultStats = s.faults.Stats
	jcfg := jobs.Config{
		Workers:        cfg.JobWorkers,
		MaxActive:      cfg.MaxJobs,
		ResultTTL:      cfg.JobTTL,
		DefaultTimeout: cfg.JobTimeout,
		SnapshotDir:    cfg.JobSnapshotDir,
		Limits: jobs.Limits{
			MaxSamples:     cfg.MaxSamples,
			MaxPoints:      cfg.MaxCurvePoints,
			MaxEvaluations: cfg.MaxJobEvaluations,
		},
		Logger:   cfg.Logger,
		Observer: s.metrics,
	}
	if s.cluster != nil {
		// Heavy jobs shard across alive peers; a lone node (or an
		// all-dead ring) runs every job single-node as before.
		jcfg.Distributor = clusterDistributor{s}
	}
	s.jobs = jobs.New(jcfg)
	s.metrics.jobCounts = s.jobs.Counts
	s.handler = s.routes()
	return s
}

// Handler returns the server's root handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs returns the batch-job manager, for the CLI and tests.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Faults returns the fault injector (nil when disabled). Harnesses
// pause it while warming caches, resume it to open a partition, and
// read its injected-fault counts.
func (s *Server) Faults() *fault.Injector { return s.faults }

// Cluster returns the consistent-hash peer layer, or nil when the node
// runs alone. The cluster harness reads its stats and status.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Close stops the admission limiters (waking any queued requests with
// 503) and the batch-job manager, cancelling running jobs and waiting
// for the workers to drain. Serve calls it after the HTTP shutdown;
// tests that only use Handler must call it themselves.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.cheap.Close()
		s.heavy.Close()
		s.jobs.Close()
		if s.cluster != nil {
			s.cluster.Close()
		}
	})
}

// routes builds the route table. Every route is wrapped with the
// middleware stack under its own metrics label. The evaluation routes
// inject faults inside respondCached's compute path (so the cache and
// degradation machinery are exercised, not bypassed); the job and
// listing routes inject them before their handlers run. /healthz and
// /metrics are never injected — operators must be able to observe a
// chaos run.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.wrap(pattern, h))
	}
	injected := func(pattern string, h http.HandlerFunc) {
		if s.faults == nil {
			handle(pattern, h)
			return
		}
		handle(pattern, func(w http.ResponseWriter, r *http.Request) {
			if err := s.inject(r.URL.Path); err != nil {
				s.fail(w, err)
				return
			}
			h(w, r)
		})
	}
	handle("POST /v1/ttm", s.handleTTM)
	handle("POST /v1/cas", s.handleCAS)
	handle("POST /v1/cost", s.handleCost)
	handle("POST /v1/sensitivity", s.handleSensitivity)
	handle("POST /v1/plan", s.handlePlan)
	handle("POST /v1/scenarios", s.handleTimeline)
	injected("POST /v1/jobs", s.handleJobSubmit)
	injected("GET /v1/jobs", s.handleJobList)
	injected("GET /v1/jobs/{id}", s.handleJobGet)
	injected("GET /v1/jobs/{id}/result", s.handleJobResult)
	injected("DELETE /v1/jobs/{id}", s.handleJobDelete)
	injected("GET /v1/nodes", s.handleNodes)
	injected("GET /v1/scenarios", s.handleScenarios)
	injected("GET /v1/episodes", s.handleEpisodes)
	injected("GET /v1/designs", s.handleDesigns)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/cluster", s.handleCluster)
	// Internal peer-to-peer route: distributed job shards arrive over
	// the cluster transport, never from clients.
	handle("POST /v1/internal/shards", s.handleShardExec)
	return mux
}

// ListenAndServe listens on the configured address and serves until
// ctx is canceled, then drains gracefully.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.log.Printf("ttmcas-serve listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}

// Serve accepts connections on ln until ctx is canceled. Cancellation
// triggers a graceful shutdown: the listener closes immediately (new
// connections are refused) while in-flight requests get up to
// ShutdownGrace to complete; running batch jobs are cancelled and
// drained afterwards (snapshotted for resume when persistence is on).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Bodies must arrive within the request deadline: with the
		// handler-side timer now armed only around compute work, this
		// is what bounds slow-body clients.
		ReadTimeout: s.cfg.RequestTimeout,
		ErrorLog:    s.log,
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Close the limiters before draining: requests already admitted
		// keep their slots and finish, but queued-but-unadmitted ones
		// are answered 503 immediately instead of holding the drain
		// window open.
		s.cheap.Close()
		s.heavy.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		shutdownErr <- hs.Shutdown(drainCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case err := <-shutdownErr:
		return err
	case <-ctx.Done():
		return <-shutdownErr
	}
}

// apiError is an error carrying the HTTP status it should produce.
// retryAfter, when positive, emits a Retry-After header (seconds) so
// shed and rate-limited clients know when to come back.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessablef(format string, args ...any) error {
	return &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// errorResponse is the uniform error body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// encodeBuffer pairs a reusable buffer with a JSON encoder bound to
// it, so the hot path never reallocates either. Encoder.Encode appends
// the trailing newline every response body carries.
type encodeBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	eb := &encodeBuffer{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// encodeJSON marshals v into a pooled buffer (newline-terminated).
// The returned release func recycles the buffer; the byte slice is
// only valid until then.
func encodeJSON(v any) (body []byte, release func(), err error) {
	eb := encPool.Get().(*encodeBuffer)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		encPool.Put(eb)
		return nil, nil, err
	}
	return eb.buf.Bytes(), func() { encPool.Put(eb) }, nil
}

// encodeResponseError classifies a failure to encode a response body.
// A result holding a non-finite number — JSON has no +Inf or NaN — is
// the model's answer to inputs that push it past its finite range (a
// required node with no effective capacity, a chip count near the
// float64 limit), so it is the request's fault, 422; anything else is a
// server bug, 500.
func encodeResponseError(err error) *apiError {
	var uve *json.UnsupportedValueError
	if errors.As(err, &uve) {
		return &apiError{status: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("result is not finite (%s): the inputs drive the model outside its finite range", uve.Str)}
	}
	return &apiError{status: http.StatusInternalServerError, msg: "encoding response: " + err.Error()}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, release, err := encodeJSON(v)
	if err != nil {
		ae := encodeResponseError(err)
		writeError(w, ae.status, ae.msg)
		return
	}
	// No explicit Content-Length here: net/http computes it for
	// buffered responses, and the cached paths — where the header is
	// guaranteed — precompute it at insert (writeBody / cache hits).
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(status)
	w.Write(body)
	release()
}

// Shared, immutable header values: assigning a pre-built []string
// under the already-canonical key skips textproto's canonicalization
// pass and the per-request slice allocation Header.Set would pay.
var (
	headerJSON  = []string{"application/json"}
	headerHit   = []string{"HIT"}
	headerMiss  = []string{"MISS"}
	headerStale = []string{"STALE"}
	headerFwd   = []string{"FWD"}
)

// writeBody writes a complete, newline-terminated JSON body verbatim
// with a precomputed Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// fail maps an error to its HTTP status and writes the error body.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		if ae.retryAfter > 0 {
			w.Header()["Retry-After"] = []string{strconv.Itoa(ae.retryAfter)}
		}
		writeError(w, ae.status, ae.msg)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	default:
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// computeBody runs one model computation end to end — fault injection,
// the computation itself, pooled JSON encoding, cache insert — and
// contains panics: an injected or genuine panic in the compute path
// becomes a 500 apiError instead of tearing down the single-flight
// call, which both keeps piggybacked waiters alive and makes the
// failure eligible for stale rescue. path is the request path (the
// route label minus its method), which the fault injector matches on.
func (s *Server) computeBody(ctx context.Context, key, path string, compute func(ctx context.Context) (any, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Printf("panic computing %s: %v\n%s", path, p, debug.Stack())
			body, err = nil, &apiError{status: http.StatusInternalServerError, msg: "internal error: computation panicked"}
		}
	}()
	if s.slowEval != nil {
		s.slowEval()
	}
	if err := s.inject(path); err != nil {
		return nil, err
	}
	s.metrics.Evaluation()
	v, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	// The pooled buffer cannot outlive this call (the body is cached
	// and shared across piggybacked requests), so copy it into an owned
	// slice — still one precisely-sized allocation instead of Marshal's
	// grow-and-copy churn.
	pooled, release, err := encodeJSON(v)
	if err != nil {
		return nil, encodeResponseError(err)
	}
	b := make([]byte, len(pooled))
	copy(b, pooled)
	release()
	s.cache.Put(key, b)
	return b, nil
}

// inject applies the route fault rules to one request. An injected
// error answers like a shed — 503 with Retry-After — so clients back
// off and retry.
func (s *Server) inject(path string) error {
	if err := s.faults.Inject(path); err != nil {
		return &apiError{status: http.StatusServiceUnavailable, msg: err.Error(), retryAfter: 1}
	}
	return nil
}

// staleEligible reports whether a compute failure may be papered over
// with a retained stale body: sheds, injected faults, panics and
// timeouts qualify; client errors (4xx) never do — the client sent a
// bad request and must hear so.
func staleEligible(err error) bool {
	var ae *apiError
	if errors.As(err, &ae) && ae.status < 500 {
		return false
	}
	return true
}

// tryRefresh starts a best-effort background recomputation of a stale
// entry so the next request finds it fresh. It runs after every stale
// serve but never queues: it needs a free refresh slot and a free
// limiter slot right now, otherwise it does nothing — under a shed the
// limiter is full, so foreground traffic keeps the capacity and the
// stale body keeps being served; after a transient compute failure the
// freed slot is usually available and the retry proceeds.
func (s *Server) tryRefresh(lim *resilience.Limiter, key, path string, compute func(ctx context.Context) (any, error)) {
	select {
	case s.refreshSem <- struct{}{}:
	default:
		return
	}
	rel, ok := lim.TryAdmit()
	if !ok {
		<-s.refreshSem
		return
	}
	s.metrics.StaleRefresh()
	go func() {
		defer func() { <-s.refreshSem }()
		defer rel()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		if _, _, err := s.flight.Do(key, func() ([]byte, error) {
			return s.computeBody(ctx, key, path, compute)
		}); err != nil {
			s.metrics.StaleRefreshFailed()
		}
	}()
}

// respondCached serves a POST evaluation through the cache →
// single-flight → admission → compute pipeline. req must already be
// decoded: its canonical JSON, prefixed by the route, keys both
// layers. Only successful responses are cached; errors pass through
// single-flight (concurrent identical failures fail once) but are
// never remembered. When the computation is shed by admission control
// or fails with a server-side error, a retained stale body — if one
// exists — is served with X-Cache: STALE instead.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, route string, req any, heavy bool, compute func(ctx context.Context) (any, error)) {
	// The canonical key is built in a pooled buffer: a cache hit never
	// materializes the key as a string (Get looks the bytes up
	// directly), so the hot path performs no key allocations at all.
	eb := encPool.Get().(*encodeBuffer)
	eb.buf.Reset()
	eb.buf.WriteString(route)
	eb.buf.WriteByte('|')
	if err := eb.enc.Encode(req); err != nil {
		encPool.Put(eb)
		s.fail(w, badRequestf("encoding request key: %v", err))
		return
	}

	if body, cl, ok := s.cache.Get(eb.buf.Bytes()); ok {
		encPool.Put(eb)
		s.metrics.CacheHit()
		h := w.Header()
		h["X-Cache"] = headerHit
		h["Content-Type"] = headerJSON
		h["Content-Length"] = cl
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	key := eb.buf.String()
	encPool.Put(eb)
	s.metrics.CacheMiss()

	// The route label is "METHOD /path"; the injector and the cluster
	// forwarder work with paths.
	path := route
	if _, p, ok := strings.Cut(route, " "); ok {
		path = p
	}

	// Cluster routing: on a local cache miss, a key owned by a peer is
	// forwarded to (or redirected at) its owner, so each key is
	// computed and cached on exactly one node. A request already
	// carrying the single-hop guard header is served locally no matter
	// what this node's ring says — two nodes with divergent membership
	// views must degrade to duplicated work, never to a forwarding
	// loop. A forward that fails at the transport level (owner died
	// between probes) falls through to the local compute path: a dead
	// owner costs latency and a duplicated cache entry, not
	// availability.
	if s.cluster != nil && r.Header.Get(cluster.ForwardHeader) == "" {
		if owner, self := s.cluster.Owner(key); !self {
			if served := s.forwardEval(w, r, owner, path, key); served {
				return
			}
		} else {
			s.cluster.NoteLocal()
		}
	}

	lim := s.cheap
	if heavy {
		lim = s.heavy
	}

	body, shared, err := s.flight.Do(key, func() ([]byte, error) {
		// The request deadline is armed here, around the only work
		// that can stall, so cache hits never pay for a timer context.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Admission happens inside the flight so N identical concurrent
		// requests cost one slot; a shed is shared with the
		// piggybackers, each of which falls back to its own stale
		// lookup.
		release, err := lim.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		return s.computeBody(ctx, key, path, compute)
	})
	if shared {
		s.metrics.FlightShared()
	}
	if err != nil {
		if staleEligible(err) {
			if body, cl, ok := s.cache.GetAny(key); ok {
				s.metrics.StaleServed()
				s.tryRefresh(lim, key, path, compute)
				h := w.Header()
				h["X-Cache"] = headerStale
				h["Content-Type"] = headerJSON
				h["Content-Length"] = cl
				w.WriteHeader(http.StatusOK)
				w.Write(body)
				return
			}
		}
		if errors.Is(err, resilience.ErrShed) {
			err = &apiError{
				status:     http.StatusServiceUnavailable,
				msg:        fmt.Sprintf("overloaded: %s admission shed request", lim.Stats().Name),
				retryAfter: int(lim.RetryAfter() / time.Second),
			}
		}
		s.fail(w, err)
		return
	}
	w.Header()["X-Cache"] = headerMiss
	writeBody(w, http.StatusOK, body)
}

// CacheKey returns the canonical cache key of a decoded request on a
// route — route + '|' + the request's canonical JSON encoding
// (newline-terminated), exactly what respondCached builds in its
// pooled buffer. The cluster layer hashes this key onto the ring, and
// the cluster load harness uses CacheKey to route requests
// ownership-aware before sending them.
func CacheKey(route string, req any) (string, error) {
	body, release, err := encodeJSON(req)
	if err != nil {
		return "", err
	}
	key := route + "|" + string(body)
	release()
	return key, nil
}

// forwardEval routes one evaluation request to the owning peer and
// relays the answer. It reports whether a response was written: false
// means the forward failed at the transport level and the caller
// should serve the request locally instead.
//
// Forwards ride the same single-flight group as local computations, so
// N concurrent callers of a hot remote key cost the owner one upstream
// request per flight, not N. With forwarding disabled the caller is
// sent a 307 to the owner instead — the ownership-aware-client
// topology, where a smart client or LB learns the ring from redirects.
func (s *Server) forwardEval(w http.ResponseWriter, r *http.Request, ownerURL, path, key string) bool {
	if !s.cluster.Forwarding() {
		s.cluster.NoteRedirect()
		w.Header()["Location"] = []string{ownerURL + path}
		writeJSON(w, http.StatusTemporaryRedirect,
			errorResponse{Error: "resource owned by peer " + ownerURL})
		return true
	}
	// The canonical JSON after the route prefix is byte-for-byte the
	// body the owner will decode — no re-encoding.
	fwdBody := key[strings.IndexByte(key, '|')+1:]
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, shared, err := s.flight.Do(key, func() ([]byte, error) {
		// Eval forwards are deterministic and side-effect-free, so they
		// opt into the cluster retry budget.
		res, err := s.cluster.ForwardOpts(ctx, ownerURL, http.MethodPost, path, []byte(fwdBody),
			cluster.ForwardOptions{Retry: true, Class: "eval"})
		if err != nil {
			return nil, &forwardError{err: err}
		}
		if res.Status != http.StatusOK {
			ae := &apiError{status: res.Status, msg: decodeErrorBody(res.Body)}
			if res.RetryAfter != "" {
				ae.retryAfter, _ = strconv.Atoi(res.RetryAfter)
			}
			return nil, ae
		}
		return res.Body, nil
	})
	if shared {
		s.metrics.FlightShared()
	}
	if err != nil {
		var fe *forwardError
		if errors.As(err, &fe) {
			s.log.Printf("cluster: forward %s to %s failed, serving locally: %v", path, ownerURL, fe.err)
			return false
		}
		s.fail(w, err)
		return true
	}
	w.Header()["X-Cache"] = headerFwd
	writeBody(w, http.StatusOK, body)
	return true
}

// forwardError marks a transport-level forwarding failure — the class
// of error that falls back to local computation.
type forwardError struct{ err error }

func (e *forwardError) Error() string { return e.err.Error() }
func (e *forwardError) Unwrap() error { return e.err }

// decodeErrorBody extracts the "error" field of a peer's JSON error
// body, falling back to the raw body.
func decodeErrorBody(body []byte) string {
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(body))
}
