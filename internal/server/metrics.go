package server

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/metrics"
	"ttmcas/internal/resilience"
	"ttmcas/internal/resilience/fault"
)

// Metrics aggregates the server's operational counters and renders
// them in the Prometheus plain-text exposition format — hand-rolled,
// since the repository is dependency-free. Every counter is an atomic
// and every latency a metrics.Histogram, so recording takes no lock
// and does no lookup: the route table is fixed before the server
// serves, each wrapped handler holds its route's stats, and the job
// and shard counters are indexed by kind and status. Counters are
// monotonic for the life of the process; gauges are instantaneous.
type Metrics struct {
	inflight atomic.Int64

	// routes is sorted by pattern. Entries are added only while the
	// server builds its mux; afterwards only their atomics change.
	routes []*routeStats

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	flightShared atomic.Uint64
	evaluations  atomic.Uint64

	staleServed          atomic.Uint64
	staleRefreshes       atomic.Uint64
	staleRefreshFailures atomic.Uint64

	jobsSubmitted  counterVec // by kind
	jobsFinished   counterVec // by kind, then terminal status
	jobEvaluations atomic.Uint64

	shardsDispatched counterVec // by kind
	shardsCompleted  counterVec
	shardsHedged     counterVec
	shardsFallback   counterVec
	shardLatency     metrics.Histogram

	// jobCounts, when set, reads the job manager's instantaneous
	// pending/running counts for the queue-depth and running-jobs
	// gauges (set once, at Server construction).
	jobCounts func() (pending, running int)

	// cacheStats, evalStats, limiterStats, faultStats and clusterStats,
	// when set (once, at Server construction), snapshot the response
	// cache, the compiled-evaluator cache, the admission limiters, the
	// fault injector and the cluster for the exposition; their counters
	// live in those components themselves.
	cacheStats   func() cacheStats
	evalStats    func() evalStats
	limiterStats func() []resilience.LimiterStats
	faultStats   func() fault.Stats
	clusterStats func() cluster.Stats
}

// routeStats is one route's request counters and latency. wrap
// resolves it once per route, so a request records with atomic adds.
type routeStats struct {
	pattern string
	label   string // `route="POST /v1/ttm"`
	// codes counts requests by status code: net/http allows 100–999,
	// and 0 is a handler that wrote nothing.
	codes   [1000]atomic.Uint64
	latency metrics.Histogram
}

// observe records one completed request.
func (r *routeStats) observe(code int, d time.Duration) {
	if uint(code) < uint(len(r.codes)) {
		r.codes[code].Add(1)
	}
	r.latency.Record(d)
}

// counterVec is a counter family over label sets fixed up front: one
// atomic per set, held in exposition order.
type counterVec struct {
	labels []string // pre-rendered: `kind="mc-band"`
	counts []atomic.Uint64
}

func newCounterVec(labels []string) counterVec {
	return counterVec{labels: labels, counts: make([]atomic.Uint64, len(labels))}
}

// inc bumps set i; a negative i (an unknown kind or status) is dropped.
func (v *counterVec) inc(i int) {
	if i >= 0 {
		v.counts[i].Add(1)
	}
}

func (v *counterVec) total() uint64 {
	var n uint64
	for i := range v.counts {
		n += v.counts[i].Load()
	}
	return n
}

// jobKinds and jobStatuses are the job label values in exposition
// order; the job and shard counters are indexed by position in them.
var (
	jobKinds    = sortedKinds()
	jobStatuses = []jobs.Status{jobs.StatusCancelled, jobs.StatusFailed, jobs.StatusSucceeded}
)

func sortedKinds() []string {
	k := jobs.Kinds()
	slices.Sort(k)
	return k
}

func kindIndex(kind string) int { return slices.Index(jobKinds, kind) }

// finishedIndex locates a kind and terminal status in jobsFinished.
func finishedIndex(kind string, status jobs.Status) int {
	k, s := kindIndex(kind), slices.Index(jobStatuses, status)
	if k < 0 || s < 0 {
		return -1
	}
	return k*len(jobStatuses) + s
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	var byKind, byKindStatus []string
	for _, k := range jobKinds {
		byKind = append(byKind, "kind="+strconv.Quote(k))
		for _, s := range jobStatuses {
			byKindStatus = append(byKindStatus, "kind="+strconv.Quote(k)+",status="+strconv.Quote(string(s)))
		}
	}
	return &Metrics{
		jobsSubmitted:    newCounterVec(byKind),
		jobsFinished:     newCounterVec(byKindStatus),
		shardsDispatched: newCounterVec(byKind),
		shardsCompleted:  newCounterVec(byKind),
		shardsHedged:     newCounterVec(byKind),
		shardsFallback:   newCounterVec(byKind),
	}
}

// route returns the stats of a route pattern, registering it on first
// use. Registration is not safe for concurrent use: the server
// registers every route while it builds its mux, before it serves.
func (m *Metrics) route(pattern string) *routeStats {
	i, found := slices.BinarySearchFunc(m.routes, pattern, func(r *routeStats, p string) int {
		return strings.Compare(r.pattern, p)
	})
	if !found {
		m.routes = slices.Insert(m.routes, i, &routeStats{pattern: pattern, label: "route=" + strconv.Quote(pattern)})
	}
	return m.routes[i]
}

// CacheHit records a response served from the LRU cache.
func (m *Metrics) CacheHit() { m.cacheHits.Add(1) }

// CacheMiss records a cache lookup that found nothing.
func (m *Metrics) CacheMiss() { m.cacheMisses.Add(1) }

// FlightShared records a request that piggybacked on an identical
// in-flight computation instead of evaluating the model itself.
func (m *Metrics) FlightShared() { m.flightShared.Add(1) }

// Evaluation records one actual model computation.
func (m *Metrics) Evaluation() { m.evaluations.Add(1) }

// StaleServed records a degraded response: a retained stale body
// served because recomputation was shed or failed.
func (m *Metrics) StaleServed() { m.staleServed.Add(1) }

// StaleRefresh records a background recomputation kicked off after a
// stale serve; StaleRefreshFailed records one that did not produce a
// fresh body.
func (m *Metrics) StaleRefresh()       { m.staleRefreshes.Add(1) }
func (m *Metrics) StaleRefreshFailed() { m.staleRefreshFailures.Add(1) }

// IncInflight/DecInflight track the in-flight request gauge.
func (m *Metrics) IncInflight() { m.inflight.Add(1) }
func (m *Metrics) DecInflight() { m.inflight.Add(-1) }

// Inflight returns the current in-flight request count.
func (m *Metrics) Inflight() int64 { return m.inflight.Load() }

// Requests returns the total request count across routes and codes.
func (m *Metrics) Requests() uint64 {
	var n uint64
	for _, r := range m.routes {
		n += r.latency.Count()
	}
	return n
}

// RequestCount returns the count for one route and status code.
func (m *Metrics) RequestCount(route string, code int) uint64 {
	for _, r := range m.routes {
		if r.pattern == route && uint(code) < uint(len(r.codes)) {
			return r.codes[code].Load()
		}
	}
	return 0
}

// CacheHits, CacheMisses, Shared and Evaluations expose the counters
// for tests and acceptance checks.
func (m *Metrics) CacheHits() uint64   { return m.cacheHits.Load() }
func (m *Metrics) CacheMisses() uint64 { return m.cacheMisses.Load() }
func (m *Metrics) Shared() uint64      { return m.flightShared.Load() }
func (m *Metrics) Evaluations() uint64 { return m.evaluations.Load() }

// StaleServes exposes the degradation counter.
func (m *Metrics) StaleServes() uint64 { return m.staleServed.Load() }

// Metrics implements jobs.Observer, folding the job manager's job and
// shard lifecycles into the same registry.

// JobSubmitted records one job submission by kind.
func (m *Metrics) JobSubmitted(kind string) { m.jobsSubmitted.inc(kindIndex(kind)) }

// JobFinished records a job's terminal status and its completed
// evaluation units.
func (m *Metrics) JobFinished(kind string, status jobs.Status, evals uint64) {
	m.jobsFinished.inc(finishedIndex(kind, status))
	m.jobEvaluations.Add(evals)
}

// ShardDispatched records one remote shard dispatch attempt.
func (m *Metrics) ShardDispatched(kind string) { m.shardsDispatched.inc(kindIndex(kind)) }

// ShardCompleted records a remote shard that returned, with its
// round-trip latency.
func (m *Metrics) ShardCompleted(kind string, d time.Duration) {
	m.shardsCompleted.inc(kindIndex(kind))
	m.shardLatency.Record(d)
}

// ShardHedged records a shard re-dispatched to the next peer after a
// failed or expired attempt.
func (m *Metrics) ShardHedged(kind string) { m.shardsHedged.inc(kindIndex(kind)) }

// ShardFallback records a shard computed locally after every peer
// attempt failed.
func (m *Metrics) ShardFallback(kind string) { m.shardsFallback.inc(kindIndex(kind)) }

// JobsSubmitted returns the total job submissions across kinds.
func (m *Metrics) JobsSubmitted() uint64 { return m.jobsSubmitted.total() }

// JobsFinished returns the finished-job count for one terminal status,
// summed over kinds.
func (m *Metrics) JobsFinished(status jobs.Status) uint64 {
	var n uint64
	for _, k := range jobKinds {
		if i := finishedIndex(k, status); i >= 0 {
			n += m.jobsFinished.counts[i].Load()
		}
	}
	return n
}

// JobEvaluations returns the evaluation units completed by finished
// jobs.
func (m *Metrics) JobEvaluations() uint64 { return m.jobEvaluations.Load() }

// ShardsCompleted, ShardsFallback, ShardsDispatched and ShardsHedged
// return the shard counters summed over kinds, for tests and
// acceptance checks.
func (m *Metrics) ShardsCompleted() uint64  { return m.shardsCompleted.total() }
func (m *Metrics) ShardsFallback() uint64   { return m.shardsFallback.total() }
func (m *Metrics) ShardsDispatched() uint64 { return m.shardsDispatched.total() }
func (m *Metrics) ShardsHedged() uint64     { return m.shardsHedged.total() }

// scalar is one single-valued series of the exposition.
type scalar struct {
	name, help, typ string
	value           any
}

func appendHeader(b []byte, name, help, typ string) []byte {
	return fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func appendScalars(b []byte, ss []scalar) []byte {
	for _, s := range ss {
		b = appendHeader(b, s.name, s.help, s.typ)
		b = fmt.Appendf(b, "%s %d\n", s.name, s.value)
	}
	return b
}

// appendCounters renders a counter family: its header, then every
// non-zero label set.
func (v *counterVec) appendCounters(b []byte, name, help string) []byte {
	b = appendHeader(b, name, help, "counter")
	for i := range v.counts {
		if c := v.counts[i].Load(); c != 0 {
			b = fmt.Appendf(b, "%s{%s} %d\n", name, v.labels[i], c)
		}
	}
	return b
}

// WriteTo renders the registry in the Prometheus text exposition
// format, with series sorted for deterministic output. It reads
// atomics and component snapshots into one buffer, takes no registry
// lock, and writes the buffer once.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	b := make([]byte, 0, 16<<10)
	b = appendHeader(b, "ttmcas_requests_total", "Completed HTTP requests by route and status code.", "counter")
	for _, r := range m.routes {
		for code := range r.codes {
			if c := r.codes[code].Load(); c != 0 {
				b = fmt.Appendf(b, "ttmcas_requests_total{%s,code=\"%d\"} %d\n", r.label, code, c)
			}
		}
	}
	b = appendHeader(b, "ttmcas_request_duration_seconds", "Request latency summary by route.", "summary")
	for _, r := range m.routes {
		if r.latency.Count() != 0 {
			b = r.latency.AppendSummary(b, "ttmcas_request_duration_seconds", r.label)
		}
	}

	b = m.jobsSubmitted.appendCounters(b, "ttmcas_jobs_submitted_total", "Batch jobs submitted by kind.")
	b = m.jobsFinished.appendCounters(b, "ttmcas_jobs_finished_total", "Batch jobs finished by kind and terminal status.")
	b = m.shardsDispatched.appendCounters(b, "ttmcas_jobs_shards_dispatched_total", "Distributed job shards dispatched to peers, by kind.")
	b = m.shardsCompleted.appendCounters(b, "ttmcas_jobs_shards_completed_total", "Distributed job shards completed by peers, by kind.")
	b = m.shardsHedged.appendCounters(b, "ttmcas_jobs_shards_hedged_total", "Distributed job shards re-dispatched after a failed or expired attempt, by kind.")
	b = m.shardsFallback.appendCounters(b, "ttmcas_jobs_shards_fallback_total", "Distributed job shards computed locally after every peer attempt failed, by kind.")
	b = appendHeader(b, "ttmcas_jobs_shard_seconds", "Round-trip latency summary of completed remote shards.", "summary")
	b = m.shardLatency.AppendSummary(b, "ttmcas_jobs_shard_seconds", "")

	// The running-jobs gauge scans the job store rather than counting
	// lifecycle events, so a job cancelled before it starts cannot
	// drift it.
	var pending, running int
	if m.jobCounts != nil {
		pending, running = m.jobCounts()
	}
	scalars := []scalar{
		{"ttmcas_jobs_running", "Batch jobs currently running.", "gauge", running},
		{"ttmcas_job_evaluations_total", "Evaluation units completed by finished batch jobs.", "counter", m.jobEvaluations.Load()},
		{"ttmcas_cache_hits_total", "Responses served from the LRU cache.", "counter", m.cacheHits.Load()},
		{"ttmcas_cache_misses_total", "Cache lookups that found nothing.", "counter", m.cacheMisses.Load()},
		{"ttmcas_singleflight_shared_total", "Requests that shared an identical in-flight computation.", "counter", m.flightShared.Load()},
		{"ttmcas_model_evaluations_total", "Actual model computations performed.", "counter", m.evaluations.Load()},
		{"ttmcas_stale_served_total", "Degraded responses served from a stale cache entry.", "counter", m.staleServed.Load()},
		{"ttmcas_stale_refreshes_total", "Background recomputations started after a stale serve.", "counter", m.staleRefreshes.Load()},
		{"ttmcas_stale_refresh_failures_total", "Background stale refreshes that failed.", "counter", m.staleRefreshFailures.Load()},
		{"ttmcas_inflight_requests", "Requests currently being served.", "gauge", m.inflight.Load()},
	}
	if m.jobCounts != nil {
		scalars = append(scalars, scalar{"ttmcas_jobs_queue_depth", "Batch jobs queued awaiting a worker.", "gauge", pending})
	}
	if m.cacheStats != nil {
		cs := m.cacheStats()
		scalars = append(scalars,
			scalar{"ttmcas_response_cache_entries", "Entries held by the sharded response cache.", "gauge", cs.Entries},
			scalar{"ttmcas_response_cache_bytes", "Body bytes held by the sharded response cache.", "gauge", cs.Bytes},
			scalar{"ttmcas_response_cache_budget_bytes", "Byte budget of the sharded response cache.", "gauge", cs.BudgetBytes},
			scalar{"ttmcas_response_cache_shards", "Shard count of the response cache.", "gauge", cs.Shards},
			scalar{"ttmcas_response_cache_evictions_total", "Entries evicted from the response cache to respect the byte budget.", "counter", cs.Evictions},
			scalar{"ttmcas_response_cache_expired_total", "Entries dropped from the response cache past their hard TTL.", "counter", cs.Expired},
		)
	}
	if m.evalStats != nil {
		es := m.evalStats()
		scalars = append(scalars,
			scalar{"ttmcas_evalcache_entries", "Compiled designs held by the evaluator cache, one per design identity.", "gauge", es.Entries},
			scalar{"ttmcas_evalcache_hits_total", "Evaluator-cache lookups that reused a compiled design, binding the request's conditions onto it.", "counter", es.Hits},
			scalar{"ttmcas_evalcache_misses_total", "Evaluator-cache lookups that had to compile the design.", "counter", es.Misses},
		)
	}
	b = appendScalars(b, scalars)

	if m.limiterStats != nil {
		lims := m.limiterStats()
		for _, f := range []struct {
			name, help, typ string
			value           func(resilience.LimiterStats) any
		}{
			{"ttmcas_admission_admitted_total", "Requests admitted by the adaptive admission limiter, by class.", "counter",
				func(st resilience.LimiterStats) any { return st.Admitted }},
			{"ttmcas_admission_shed_total", "Requests shed by the adaptive admission limiter, by class.", "counter",
				func(st resilience.LimiterStats) any { return st.Shed }},
			{"ttmcas_admission_inuse", "Admission slots currently held, by class.", "gauge",
				func(st resilience.LimiterStats) any { return st.InUse }},
			{"ttmcas_admission_queued", "Requests currently waiting for an admission slot, by class.", "gauge",
				func(st resilience.LimiterStats) any { return st.Queued }},
			{"ttmcas_admission_shedding", "Whether the limiter is currently shedding (1) or not (0), by class.", "gauge",
				func(st resilience.LimiterStats) any { return boolGauge(st.Shedding) }},
		} {
			b = appendHeader(b, f.name, f.help, f.typ)
			for _, st := range lims {
				b = fmt.Appendf(b, "%s{class=%q} %d\n", f.name, st.Name, f.value(st))
			}
		}
	}

	if m.clusterStats != nil {
		cs := m.clusterStats()
		b = appendScalars(b, []scalar{
			{"ttmcas_cluster_ring_nodes", "Members currently owning segments of the consistent-hash ring.", "gauge", cs.RingNodes},
			{"ttmcas_cluster_ring_epoch", "Ring epoch: increments on every membership change.", "gauge", cs.Epoch},
			{"ttmcas_cluster_local_total", "Ownership decisions served locally (this node owned the key).", "counter", cs.Local},
			{"ttmcas_cluster_forwarded_total", "Requests forwarded to the owning peer.", "counter", cs.Forwarded},
			{"ttmcas_cluster_forward_errors_total", "Forwards that failed at the transport level and fell back to local compute.", "counter", cs.ForwardErrors},
			{"ttmcas_cluster_redirected_total", "Ownership misses answered with a 307 redirect to the owner.", "counter", cs.Redirected},
			{"ttmcas_cluster_probe_failures_total", "Peer health probes that failed.", "counter", cs.ProbeFailures},
			{"ttmcas_cluster_retries_total", "Forward retries admitted by the retry budget.", "counter", cs.Retries},
			{"ttmcas_cluster_retries_denied_total", "Forward retries refused: budget dry or attempts exhausted.", "counter", cs.RetriesDenied},
			{"ttmcas_cluster_breaker_transitions_total", "Per-peer circuit breaker state transitions.", "counter", cs.BreakerTransitions},
			{"ttmcas_cluster_breaker_opens_total", "Circuit breaker trips (transitions into the open state).", "counter", cs.BreakerOpens},
			{"ttmcas_cluster_breaker_short_circuits_total", "Forwards refused outright by an open breaker.", "counter", cs.BreakerShortCircuits},
		})
		b = appendHeader(b, "ttmcas_cluster_peers", "Peers by health state.", "gauge")
		// Stats.Alive counts self; this series is peers only.
		b = fmt.Appendf(b, "ttmcas_cluster_peers{state=\"alive\"} %d\nttmcas_cluster_peers{state=\"suspect\"} %d\nttmcas_cluster_peers{state=\"dead\"} %d\n",
			cs.Alive-1, cs.Suspect, cs.Dead)
		b = appendHeader(b, "ttmcas_cluster_breaker_state", "Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.", "gauge")
		for _, pb := range cs.Breakers {
			b = fmt.Appendf(b, "ttmcas_cluster_breaker_state{peer=%q} %d\n", pb.URL, int(pb.State))
		}
		b = appendHeader(b, "ttmcas_cluster_forward_seconds", "Latency summary of peer forwards.", "summary")
		b = cs.ForwardLatency.AppendSummary(b, "ttmcas_cluster_forward_seconds", "")
	}

	if m.faultStats != nil {
		fs := m.faultStats()
		b = appendHeader(b, "ttmcas_faults_injected_total", "Faults delivered by the fault injector, by kind.", "counter")
		b = fmt.Appendf(b, "ttmcas_faults_injected_total{kind=\"error\"} %d\nttmcas_faults_injected_total{kind=\"latency\"} %d\nttmcas_faults_injected_total{kind=\"panic\"} %d\nttmcas_faults_injected_total{kind=\"reset\"} %d\nttmcas_faults_injected_total{kind=\"partition\"} %d\n",
			fs.Errors, fs.Latencies, fs.Panics, fs.Resets, fs.Partitioned)
	}
	n, err := w.Write(b)
	return int64(n), err
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
