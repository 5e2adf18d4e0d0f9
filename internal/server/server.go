package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// CacheBytes budgets the sharded response cache by the bytes it
	// holds: each entry, raw-body aliases included, is charged its
	// 16-byte record header, key and body (default 64 MiB). When a
	// shard is full the oldest entry is evicted unless it was hit since
	// it was written (second-chance FIFO). Negative disables caching,
	// aliases included.
	CacheBytes int64
	// CacheShards is the response-cache shard count, rounded up to a
	// power of two (default 16). More shards means less lock
	// contention between concurrent hits on different keys.
	CacheShards int
	// EvalCacheSize is the compiled-evaluator cache capacity in
	// entries — one per design identity (design name or inline spec,
	// re-target node); each request binds its own market
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
	// FaultSpec enables fault injection (see internal/resilience/fault
	// for the grammar); empty disables it. Route rules apply to the
	// evaluation routes' compute path — downstream of the cache, so
	// hits never see them — and ahead of the job and listing handlers.
	// Link rules shape this node's outbound cluster traffic (forwards,
	// shard dispatches and gossip probes), e.g.
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
	// ClusterProbeInterval is the peer health-probe period (default 1s).
	ClusterProbeInterval time.Duration
	// ClusterProbeTimeout bounds one health probe, decoupled from the
	// probe interval (default: ProbeInterval, capped at 2s).
	ClusterProbeTimeout time.Duration
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
// ttmcas API, a keyed, byte-budgeted response cache with single-flight
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
	jobs   *jobs.Manager
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
		cache:   newShardedCache(cfg.CacheBytes, cfg.CacheShards),
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
		started: time.Now(),
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
			ProbeInterval: cfg.ClusterProbeInterval,
			ProbeTimeout:  cfg.ClusterProbeTimeout,
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
// inject faults inside respondCached's compute path (so cache hits
// are spared and only misses meet them); the job and
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
	handle("POST /v1/ttm", evalRoute(s, "POST /v1/ttm", false, s.compiledRoute(evalTTM)))
	handle("POST /v1/cas", evalRoute(s, "POST /v1/cas", false, s.compiledRoute(s.evalCAS)))
	handle("POST /v1/cost", evalRoute(s, "POST /v1/cost", false, s.compiledRoute(evalCost)))
	handle("POST /v1/sensitivity", evalRoute(s, "POST /v1/sensitivity", true, s.evalSensitivity))
	handle("POST /v1/plan", evalRoute(s, "POST /v1/plan", true, s.evalPlan))
	handle("POST /v1/scenarios", evalRoute(s, "POST /v1/scenarios", true, s.evalTimeline))
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

// encode appends v's encoding/json encoding, newline-terminated, to
// the buffer: the fixed what-if types through their append-built codec
// (codec.go), any other value through the encoder. The bytes, and any
// error, are the same either way.
func (eb *encodeBuffer) encode(v any) error {
	b, ok, err := appendJSON(eb.buf.AvailableBuffer(), v)
	if !ok {
		return eb.enc.Encode(v)
	}
	if err == nil {
		eb.buf.Write(b)
	}
	return err
}

// encodeJSON marshals v into a pooled buffer (newline-terminated).
// The returned release func recycles the buffer; the byte slice is
// only valid until then.
func encodeJSON(v any) (body []byte, release func(), err error) {
	eb, err := encodePooled(v)
	if err != nil {
		return nil, nil, err
	}
	return eb.buf.Bytes(), func() { encPool.Put(eb) }, nil
}

// encodePooled marshals v into a buffer from encPool, which the
// caller returns to it.
func encodePooled(v any) (*encodeBuffer, error) {
	eb := encPool.Get().(*encodeBuffer)
	eb.buf.Reset()
	if err := eb.encode(v); err != nil {
		encPool.Put(eb)
		return nil, err
	}
	return eb, nil
}

// bodyBuffer holds one request body read whole, after an optional
// alias-key prefix (see readBody), and out, the buffer a cache hit
// copies its body into.
type bodyBuffer struct {
	buf    bytes.Buffer
	prefix int
	out    []byte
}

// maxPooledBody is the largest buffer returned to bodyPool, so one
// large body cannot stay pinned in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bodyBuffer) }}

// readBody reads r's body — bounded by the MaxBytesReader that wrap
// installs — whole into a pooled buffer. A non-empty route is written
// first as the prefix route + '#', so the buffer holds the body's
// raw-alias cache key. A body over the limit is a *http.MaxBytesError,
// which fail answers 413; any other read failure is a 400. The caller
// must release the buffer.
func readBody(r *http.Request, route string) (*bodyBuffer, error) {
	bb := bodyPool.Get().(*bodyBuffer)
	bb.buf.Reset()
	if route != "" {
		bb.buf.WriteString(route)
		bb.buf.WriteByte('#')
	}
	bb.prefix = bb.buf.Len()
	if r.Body != nil {
		if _, err := bb.buf.ReadFrom(r.Body); err != nil {
			bb.release()
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, err
			}
			return nil, badRequestf("reading request: %v", err)
		}
	}
	return bb, nil
}

// keyed returns the prefix followed by the body: the alias key.
func (bb *bodyBuffer) keyed() []byte { return bb.buf.Bytes() }

// body returns the body alone.
func (bb *bodyBuffer) body() []byte { return bb.buf.Bytes()[bb.prefix:] }

func (bb *bodyBuffer) release() {
	if bb.buf.Cap() <= maxPooledBody && cap(bb.out) <= maxPooledBody {
		bodyPool.Put(bb)
	}
}

// decodeStrict decodes exactly one JSON value from body into dst:
// unknown fields and anything but whitespace after the value are 400s.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequestf("decoding request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequestf("decoding request: trailing data after JSON body")
	}
	return nil
}

// decodeBody reads r's body and decodes it strictly into dst.
func decodeBody(r *http.Request, dst any) error {
	bb, err := readBody(r, "")
	if err != nil {
		return err
	}
	defer bb.release()
	return decodeStrict(bb.body(), dst)
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
	// guaranteed — take it from the interned table (writeBody /
	// writeHit).
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(status)
	w.Write(body)
	release()
}

// Shared, immutable header values: assigning a pre-built []string
// under the already-canonical key skips textproto's canonicalization
// pass and the per-request slice allocation Header.Set would pay.
var (
	headerJSON = []string{"application/json"}
	headerHit  = []string{"HIT"}
	headerMiss = []string{"MISS"}
	headerFwd  = []string{"FWD"}
)

// writeBody writes a complete, newline-terminated JSON body verbatim
// with its interned Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["Content-Length"] = contentLength(len(body))
	w.WriteHeader(status)
	w.Write(body)
}

// writeHit serves a cached body verbatim with its interned
// Content-Length.
func writeHit(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["X-Cache"] = headerHit
	h["Content-Type"] = headerJSON
	h["Content-Length"] = contentLength(len(body))
	w.WriteHeader(http.StatusOK)
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
// call, which keeps piggybacked waiters alive. path is the request
// path (the route label minus its method), which the fault injector
// matches on. The body is returned in the pooled encode buffer, which
// the caller returns to encPool once it has written it.
func (s *Server) computeBody(ctx context.Context, key, path string, compute func(ctx context.Context) (any, error)) (eb *encodeBuffer, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Printf("panic computing %s: %v\n%s", path, p, debug.Stack())
			eb, err = nil, &apiError{status: http.StatusInternalServerError, msg: "internal error: computation panicked"}
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
	// The cache copies the body into its arena. The response is
	// written from the pooled buffer itself; the single-flight group
	// copies it only for requests that joined the flight.
	eb, err = encodePooled(v)
	if err != nil {
		return nil, encodeResponseError(err)
	}
	s.cache.Put(key, eb.buf.Bytes())
	return eb, nil
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

// respondCached serves a POST evaluation through the cache →
// single-flight → admission → compute pipeline. The body is read whole
// and first looked up as route + '#' + its exact bytes: a raw-body
// alias of a canonical entry, so a byte-identical repeat is served
// without decoding. Otherwise decode turns the body into the request,
// whose canonical JSON prefixed by route + '|' keys both layers, and
// the computation that answers it. When that canonical key hits, the
// body has been seen at least twice and its alias is recorded. Only
// successful responses are cached; errors pass through single-flight
// (concurrent identical failures fail once) but are never remembered.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, route string, heavy bool,
	decode func(body []byte) (req any, compute func(ctx context.Context) (any, error), err error)) {
	bb, err := readBody(r, route)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer bb.release()
	out, ok := s.cache.GetAlias(bb.out[:0], bb.keyed())
	bb.out = out
	if ok {
		s.metrics.CacheHit()
		s.metrics.AliasHit()
		writeHit(w, out)
		return
	}
	req, compute, err := decode(bb.body())
	if err != nil {
		s.fail(w, err)
		return
	}

	// The canonical key is built in a pooled buffer: a cache hit never
	// materializes the key as a string (Get looks the bytes up
	// directly), so the hot path performs no key allocations at all.
	eb := encPool.Get().(*encodeBuffer)
	eb.buf.Reset()
	eb.buf.WriteString(route)
	eb.buf.WriteByte('|')
	if err := eb.encode(req); err != nil {
		encPool.Put(eb)
		s.fail(w, badRequestf("encoding request key: %v", err))
		return
	}

	out, ok = s.cache.Get(bb.out[:0], eb.buf.Bytes())
	bb.out = out
	if ok {
		s.cache.PutAlias(bb.keyed(), eb.buf.Bytes())
		encPool.Put(eb)
		s.metrics.CacheHit()
		writeHit(w, out)
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
	// forwarded to its owner, so each key is computed and cached on
	// exactly one node. A request already
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

	// pooled is the leader's encode buffer, set only when this request
	// computed the body: it is written from, then recycled.
	var pooled *encodeBuffer
	body, shared, err := s.flight.Do(key, func() ([]byte, error) {
		// The request deadline is armed here, around the only work
		// that can stall, so cache hits never pay for a timer context.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Admission happens inside the flight so N identical concurrent
		// requests cost one slot; a shed is shared with the
		// piggybackers.
		release, err := lim.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		if pooled, err = s.computeBody(ctx, key, path, compute); err != nil {
			return nil, err
		}
		return pooled.buf.Bytes(), nil
	})
	if shared {
		s.metrics.FlightShared()
	}
	if err != nil {
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
	if pooled != nil {
		encPool.Put(pooled)
	}
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
// request per flight, not N.
func (s *Server) forwardEval(w http.ResponseWriter, r *http.Request, ownerURL, path, key string) bool {
	// The canonical JSON after the route prefix is byte-for-byte the
	// body the owner will decode — no re-encoding.
	fwdBody := key[strings.IndexByte(key, '|')+1:]
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, shared, err := s.flight.Do(key, func() ([]byte, error) {
		// Eval forwards are deterministic and side-effect-free, so they
		// opt into the cluster retry budget.
		res, err := s.cluster.ForwardOpts(ctx, ownerURL, http.MethodPost, path, []byte(fwdBody),
			cluster.ForwardOptions{Retry: true})
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
