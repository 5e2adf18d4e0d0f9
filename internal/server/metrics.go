package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/resilience"
	"ttmcas/internal/resilience/fault"
)

// Metrics aggregates the server's operational counters and renders
// them in the Prometheus plain-text exposition format — hand-rolled,
// since the repository is dependency-free. Counters are monotonic for
// the life of the process; the in-flight gauge is instantaneous.
type Metrics struct {
	inflight atomic.Int64

	mu       sync.Mutex
	requests map[routeCode]uint64
	latency  map[string]*latencySummary

	cacheHits    uint64
	cacheMisses  uint64
	flightShared uint64
	evaluations  uint64

	staleServed          uint64
	staleRefreshes       uint64
	staleRefreshFailures uint64

	jobsSubmitted  map[string]uint64
	jobsFinished   map[jobStatusKey]uint64
	jobsRunning    int64
	jobEvaluations uint64

	shardsDispatched map[string]uint64
	shardsCompleted  map[string]uint64
	shardsHedged     map[string]uint64
	shardsFallback   map[string]uint64
	shardLatency     latencySummary

	// jobCounts, when set, reads the job manager's instantaneous
	// pending/running counts for the queue-depth and running-jobs
	// gauges (set once, at Server construction).
	jobCounts func() (pending, running int)

	// cacheStats, evalStats, limiterStats and faultStats, when set
	// (once, at Server construction), snapshot the response cache, the
	// compiled-evaluator cache, the admission limiters and the fault
	// injector for the exposition; their counters live in those
	// components themselves, not under this mutex.
	cacheStats   func() cacheStats
	evalStats    func() evalStats
	limiterStats func() []resilience.LimiterStats
	faultStats   func() fault.Stats
	clusterStats func() cluster.Stats
}

// jobStatusKey keys the finished-jobs counter by kind and terminal
// status.
type jobStatusKey struct {
	kind   string
	status string
}

// routeCode keys the request counter by route pattern and status code.
type routeCode struct {
	route string
	code  int
}

// latencySummary is a count/sum/max summary per route — enough to
// derive mean latency and spot outliers without histogram buckets.
type latencySummary struct {
	count uint64
	sum   time.Duration
	max   time.Duration
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:         make(map[routeCode]uint64),
		latency:          make(map[string]*latencySummary),
		jobsSubmitted:    make(map[string]uint64),
		jobsFinished:     make(map[jobStatusKey]uint64),
		shardsDispatched: make(map[string]uint64),
		shardsCompleted:  make(map[string]uint64),
		shardsHedged:     make(map[string]uint64),
		shardsFallback:   make(map[string]uint64),
	}
}

// ObserveRequest records one completed request on a route.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{route, code}]++
	ls, ok := m.latency[route]
	if !ok {
		ls = &latencySummary{}
		m.latency[route] = ls
	}
	ls.count++
	ls.sum += d
	if d > ls.max {
		ls.max = d
	}
}

// CacheHit records a response served from the LRU cache.
func (m *Metrics) CacheHit() { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }

// CacheMiss records a cache lookup that found nothing.
func (m *Metrics) CacheMiss() { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }

// FlightShared records a request that piggybacked on an identical
// in-flight computation instead of evaluating the model itself.
func (m *Metrics) FlightShared() { m.mu.Lock(); m.flightShared++; m.mu.Unlock() }

// Evaluation records one actual model computation.
func (m *Metrics) Evaluation() { m.mu.Lock(); m.evaluations++; m.mu.Unlock() }

// StaleServed records a degraded response: a retained stale body
// served because recomputation was shed or failed.
func (m *Metrics) StaleServed() { m.mu.Lock(); m.staleServed++; m.mu.Unlock() }

// StaleRefresh records a background recomputation kicked off after a
// stale serve; StaleRefreshFailed records one that did not produce a
// fresh body.
func (m *Metrics) StaleRefresh()       { m.mu.Lock(); m.staleRefreshes++; m.mu.Unlock() }
func (m *Metrics) StaleRefreshFailed() { m.mu.Lock(); m.staleRefreshFailures++; m.mu.Unlock() }

// IncInflight/DecInflight track the in-flight request gauge.
func (m *Metrics) IncInflight() { m.inflight.Add(1) }
func (m *Metrics) DecInflight() { m.inflight.Add(-1) }

// Inflight returns the current in-flight request count.
func (m *Metrics) Inflight() int64 { return m.inflight.Load() }

// Requests returns the total request count across routes and codes.
func (m *Metrics) Requests() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.requests {
		n += v
	}
	return n
}

// RequestCount returns the count for one route and status code.
func (m *Metrics) RequestCount(route string, code int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[routeCode{route, code}]
}

// CacheHits, CacheMisses, Shared and Evaluations expose the counters
// for tests and acceptance checks.
func (m *Metrics) CacheHits() uint64   { m.mu.Lock(); defer m.mu.Unlock(); return m.cacheHits }
func (m *Metrics) CacheMisses() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.cacheMisses }
func (m *Metrics) Shared() uint64      { m.mu.Lock(); defer m.mu.Unlock(); return m.flightShared }
func (m *Metrics) Evaluations() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.evaluations }

// StaleServes and StaleRefreshes expose the degradation counters.
func (m *Metrics) StaleServes() uint64    { m.mu.Lock(); defer m.mu.Unlock(); return m.staleServed }
func (m *Metrics) StaleRefreshes() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.staleRefreshes }

// LimiterStats snapshots the admission limiters, if the registry is
// attached to a server.
func (m *Metrics) LimiterStats() []resilience.LimiterStats {
	if m.limiterStats == nil {
		return nil
	}
	return m.limiterStats()
}

// Metrics implements jobs.Observer, folding the job manager's
// lifecycle into the same registry.

// JobSubmitted records one job submission by kind.
func (m *Metrics) JobSubmitted(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsSubmitted[kind]++
}

// JobStarted marks a job as running.
func (m *Metrics) JobStarted(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsRunning++
}

// JobFinished records a job's terminal status and its completed
// evaluation units.
func (m *Metrics) JobFinished(kind string, status jobs.Status, evals uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsRunning--
	m.jobsFinished[jobStatusKey{kind, string(status)}]++
	m.jobEvaluations += evals
}

// JobsSubmitted returns the total job submissions across kinds.
func (m *Metrics) JobsSubmitted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.jobsSubmitted {
		n += v
	}
	return n
}

// JobsFinished returns the finished-job count for one terminal status,
// summed over kinds.
func (m *Metrics) JobsFinished(status jobs.Status) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for k, v := range m.jobsFinished {
		if k.status == string(status) {
			n += v
		}
	}
	return n
}

// JobEvaluations returns the evaluation units completed by finished
// jobs.
func (m *Metrics) JobEvaluations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobEvaluations
}

// Metrics also implements jobs.ShardObserver: distributed job shard
// lifecycle, by kind.

// ShardDispatched records one remote shard dispatch attempt.
func (m *Metrics) ShardDispatched(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardsDispatched[kind]++
}

// ShardCompleted records a remote shard that returned, with its
// round-trip latency.
func (m *Metrics) ShardCompleted(kind string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardsCompleted[kind]++
	m.shardLatency.count++
	m.shardLatency.sum += d
	if d > m.shardLatency.max {
		m.shardLatency.max = d
	}
}

// ShardHedged records a shard re-dispatched to the next peer after a
// failed or expired attempt.
func (m *Metrics) ShardHedged(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardsHedged[kind]++
}

// ShardFallback records a shard computed locally after every peer
// attempt failed.
func (m *Metrics) ShardFallback(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardsFallback[kind]++
}

// ShardsCompleted returns completed remote shards summed over kinds,
// for tests and acceptance checks.
func (m *Metrics) ShardsCompleted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.shardsCompleted {
		n += v
	}
	return n
}

// ShardsFallback returns locally-recovered shards summed over kinds.
func (m *Metrics) ShardsFallback() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.shardsFallback {
		n += v
	}
	return n
}

// ShardsDispatched returns remote dispatch attempts summed over kinds.
func (m *Metrics) ShardsDispatched() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.shardsDispatched {
		n += v
	}
	return n
}

// ShardsHedged returns hedged re-dispatches summed over kinds.
func (m *Metrics) ShardsHedged() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, v := range m.shardsHedged {
		n += v
	}
	return n
}

// scalar is one single-valued series of the exposition.
type scalar struct {
	name, help, typ string
	value           any
}

// WriteTo renders the registry in the Prometheus text exposition
// format, with series sorted for deterministic output.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}

	if err := emit("# HELP ttmcas_requests_total Completed HTTP requests by route and status code.\n# TYPE ttmcas_requests_total counter\n"); err != nil {
		return total, err
	}
	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		if err := emit("ttmcas_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k]); err != nil {
			return total, err
		}
	}

	if err := emit("# HELP ttmcas_request_duration_seconds Request latency summary by route.\n# TYPE ttmcas_request_duration_seconds summary\n"); err != nil {
		return total, err
	}
	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		ls := m.latency[r]
		if err := emit("ttmcas_request_duration_seconds_count{route=%q} %d\nttmcas_request_duration_seconds_sum{route=%q} %g\nttmcas_request_duration_seconds_max{route=%q} %g\n",
			r, ls.count, r, ls.sum.Seconds(), r, ls.max.Seconds()); err != nil {
			return total, err
		}
	}

	if err := emit("# HELP ttmcas_jobs_submitted_total Batch jobs submitted by kind.\n# TYPE ttmcas_jobs_submitted_total counter\n"); err != nil {
		return total, err
	}
	kinds := make([]string, 0, len(m.jobsSubmitted))
	for k := range m.jobsSubmitted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if err := emit("ttmcas_jobs_submitted_total{kind=%q} %d\n", k, m.jobsSubmitted[k]); err != nil {
			return total, err
		}
	}

	if err := emit("# HELP ttmcas_jobs_finished_total Batch jobs finished by kind and terminal status.\n# TYPE ttmcas_jobs_finished_total counter\n"); err != nil {
		return total, err
	}
	jkeys := make([]jobStatusKey, 0, len(m.jobsFinished))
	for k := range m.jobsFinished {
		jkeys = append(jkeys, k)
	}
	sort.Slice(jkeys, func(i, j int) bool {
		if jkeys[i].kind != jkeys[j].kind {
			return jkeys[i].kind < jkeys[j].kind
		}
		return jkeys[i].status < jkeys[j].status
	})
	for _, k := range jkeys {
		if err := emit("ttmcas_jobs_finished_total{kind=%q,status=%q} %d\n", k.kind, k.status, m.jobsFinished[k]); err != nil {
			return total, err
		}
	}

	for _, sc := range []struct {
		name, help string
		counts     map[string]uint64
	}{
		{"ttmcas_jobs_shards_dispatched_total", "Distributed job shards dispatched to peers, by kind.", m.shardsDispatched},
		{"ttmcas_jobs_shards_completed_total", "Distributed job shards completed by peers, by kind.", m.shardsCompleted},
		{"ttmcas_jobs_shards_hedged_total", "Distributed job shards re-dispatched after a failed or expired attempt, by kind.", m.shardsHedged},
		{"ttmcas_jobs_shards_fallback_total", "Distributed job shards computed locally after every peer attempt failed, by kind.", m.shardsFallback},
	} {
		if err := emit("# HELP %s %s\n# TYPE %s counter\n", sc.name, sc.help, sc.name); err != nil {
			return total, err
		}
		skinds := make([]string, 0, len(sc.counts))
		for k := range sc.counts {
			skinds = append(skinds, k)
		}
		sort.Strings(skinds)
		for _, k := range skinds {
			if err := emit("%s{kind=%q} %d\n", sc.name, k, sc.counts[k]); err != nil {
				return total, err
			}
		}
	}
	if err := emit("# HELP ttmcas_jobs_shard_seconds Round-trip latency summary of completed remote shards.\n# TYPE ttmcas_jobs_shard_seconds summary\nttmcas_jobs_shard_seconds_count %d\nttmcas_jobs_shard_seconds_sum %g\nttmcas_jobs_shard_seconds_max %g\n",
		m.shardLatency.count, m.shardLatency.sum.Seconds(), m.shardLatency.max.Seconds()); err != nil {
		return total, err
	}

	scalars := []scalar{
		{"ttmcas_jobs_running", "Batch jobs currently running.", "gauge", m.jobsRunning},
		{"ttmcas_job_evaluations_total", "Evaluation units completed by finished batch jobs.", "counter", m.jobEvaluations},
		{"ttmcas_cache_hits_total", "Responses served from the LRU cache.", "counter", m.cacheHits},
		{"ttmcas_cache_misses_total", "Cache lookups that found nothing.", "counter", m.cacheMisses},
		{"ttmcas_singleflight_shared_total", "Requests that shared an identical in-flight computation.", "counter", m.flightShared},
		{"ttmcas_model_evaluations_total", "Actual model computations performed.", "counter", m.evaluations},
		{"ttmcas_stale_served_total", "Degraded responses served from a stale cache entry.", "counter", m.staleServed},
		{"ttmcas_stale_refreshes_total", "Background recomputations started after a stale serve.", "counter", m.staleRefreshes},
		{"ttmcas_stale_refresh_failures_total", "Background stale refreshes that failed.", "counter", m.staleRefreshFailures},
		{"ttmcas_inflight_requests", "Requests currently being served.", "gauge", m.inflight.Load()},
	}
	if m.jobCounts != nil {
		pending, running := m.jobCounts()
		scalars = append(scalars,
			scalar{"ttmcas_jobs_queue_depth", "Batch jobs queued awaiting a worker.", "gauge", pending},
			scalar{"ttmcas_jobs_active", "Batch jobs currently executing, from a direct store scan.", "gauge", running},
		)
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
	for _, s := range scalars {
		if err := emit("# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.value); err != nil {
			return total, err
		}
	}

	if m.limiterStats != nil {
		lims := m.limiterStats()
		type limSeries struct {
			name, help, typ string
			value           func(resilience.LimiterStats) any
		}
		for _, ls := range []limSeries{
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
			if err := emit("# HELP %s %s\n# TYPE %s %s\n", ls.name, ls.help, ls.name, ls.typ); err != nil {
				return total, err
			}
			for _, st := range lims {
				if err := emit("%s{class=%q} %d\n", ls.name, st.Name, ls.value(st)); err != nil {
					return total, err
				}
			}
		}
	}

	if m.clusterStats != nil {
		cs := m.clusterStats()
		for _, s := range []scalar{
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
		} {
			if err := emit("# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.value); err != nil {
				return total, err
			}
		}
		if err := emit("# HELP ttmcas_cluster_peers Peers by health state.\n# TYPE ttmcas_cluster_peers gauge\n"); err != nil {
			return total, err
		}
		for _, kv := range []struct {
			state string
			value int
		}{
			// Stats.Alive counts self; this series is peers only.
			{"alive", cs.Alive - 1}, {"suspect", cs.Suspect}, {"dead", cs.Dead},
		} {
			if err := emit("ttmcas_cluster_peers{state=%q} %d\n", kv.state, kv.value); err != nil {
				return total, err
			}
		}
		if err := emit("# HELP ttmcas_cluster_breaker_state Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.\n# TYPE ttmcas_cluster_breaker_state gauge\n"); err != nil {
			return total, err
		}
		for _, pb := range cs.Breakers {
			if err := emit("ttmcas_cluster_breaker_state{peer=%q} %d\n", pb.URL, int(pb.State)); err != nil {
				return total, err
			}
		}
		if err := emit("# HELP ttmcas_cluster_forward_seconds Latency summary of peer forwards.\n# TYPE ttmcas_cluster_forward_seconds summary\nttmcas_cluster_forward_seconds_count %d\nttmcas_cluster_forward_seconds_sum %g\nttmcas_cluster_forward_seconds_max %g\n",
			cs.ForwardCount, cs.ForwardSum.Seconds(), cs.ForwardMax.Seconds()); err != nil {
			return total, err
		}
	}

	if m.faultStats != nil {
		fs := m.faultStats()
		if err := emit("# HELP ttmcas_faults_injected_total Faults delivered by the fault injector, by kind.\n# TYPE ttmcas_faults_injected_total counter\n"); err != nil {
			return total, err
		}
		for _, kv := range []struct {
			kind  string
			value uint64
		}{{"error", fs.Errors}, {"latency", fs.Latencies}, {"panic", fs.Panics}, {"reset", fs.Resets}, {"partition", fs.Partitioned}} {
			if err := emit("ttmcas_faults_injected_total{kind=%q} %d\n", kv.kind, kv.value); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
