package server

import (
	"os"
	"strings"
	"testing"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/metrics"
	"ttmcas/internal/resilience"
	"ttmcas/internal/resilience/fault"
)

// requestCount returns the count for one route and status code.
func requestCount(m *Metrics, route string, code int) uint64 {
	for _, r := range m.routes {
		if r.pattern == route && uint(code) < uint(len(r.codes)) {
			return r.codes[code].Load()
		}
	}
	return 0
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.route("POST /v1/ttm").observe(200, 10*time.Millisecond)
	m.route("POST /v1/ttm").observe(200, 30*time.Millisecond)
	m.route("POST /v1/ttm").observe(400, time.Millisecond)
	m.route("GET /healthz").observe(200, time.Microsecond)
	m.CacheHit()
	m.CacheMiss()
	m.CacheMiss()
	m.FlightShared()
	m.Evaluation()

	if got := requestCount(m, "POST /v1/ttm", 200); got != 2 {
		t.Errorf("requestCount(ttm, 200) = %d, want 2", got)
	}
	var requests uint64
	for _, r := range m.routes {
		requests += r.latency.Count()
	}
	if requests != 4 {
		t.Errorf("requests = %d, want 4", requests)
	}
	if m.cacheHits.Load() != 1 || m.cacheMisses.Load() != 2 || m.flightShared.Load() != 1 || m.evaluations.Load() != 1 {
		t.Errorf("counters = %d/%d/%d/%d", m.cacheHits.Load(), m.cacheMisses.Load(), m.flightShared.Load(), m.evaluations.Load())
	}
}

func TestMetricsInflightGauge(t *testing.T) {
	m := NewMetrics()
	m.IncInflight()
	m.IncInflight()
	m.DecInflight()
	if got := m.inflight.Load(); got != 1 {
		t.Errorf("Inflight = %d, want 1", got)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.route("POST /v1/ttm").observe(200, 20*time.Millisecond)
	m.CacheHit()
	m.CacheMiss()
	m.Evaluation()
	m.IncInflight()

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ttmcas_requests_total{route="POST /v1/ttm",code="200"} 1`,
		`ttmcas_request_duration_seconds_count{route="POST /v1/ttm"} 1`,
		`ttmcas_request_duration_seconds_sum{route="POST /v1/ttm"} 0.02`,
		"ttmcas_cache_hits_total 1",
		"ttmcas_cache_misses_total 1",
		"ttmcas_singleflight_shared_total 0",
		"ttmcas_model_evaluations_total 1",
		"ttmcas_inflight_requests 1",
		"# TYPE ttmcas_requests_total counter",
		"# TYPE ttmcas_inflight_requests gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// recordGoldenScript drives every series family of the registry with
// fixed observations and durations, and attaches fixed component
// snapshots, so the rendered exposition is byte-stable.
func recordGoldenScript(m *Metrics) {
	for _, o := range []struct {
		route string
		code  int
		d     time.Duration
	}{
		{"POST /v1/ttm", 200, 250 * time.Microsecond},
		{"POST /v1/ttm", 200, 40 * time.Microsecond},
		{"POST /v1/ttm", 200, 31 * time.Millisecond},
		{"POST /v1/ttm", 422, 90 * time.Microsecond},
		{"POST /v1/ttm", 503, 2 * time.Second},
		{"GET /healthz", 200, 3 * time.Microsecond},
		{"POST /v1/jobs", 202, 1500 * time.Microsecond},
		{"GET /v1/jobs/{id}", 200, 120 * time.Microsecond},
		{"GET /v1/jobs/{id}", 404, 80 * time.Microsecond},
		{"GET /metrics", 200, 700 * time.Microsecond},
	} {
		m.route(o.route).observe(o.code, o.d)
	}
	m.route("GET /v1/nodes") // registered, never requested: no series
	m.CacheHit()
	m.CacheHit()
	m.AliasHit()
	m.CacheMiss()
	m.FlightShared()
	m.Evaluation()
	m.Evaluation()
	m.IncInflight()
	m.IncInflight()
	m.DecInflight()

	m.JobSubmitted(jobs.KindMCBand)
	m.JobSubmitted(jobs.KindMCBand)
	m.JobSubmitted(jobs.KindSensitivity)
	m.JobSubmitted(jobs.KindTimeline)
	m.JobFinished(jobs.KindMCBand, jobs.StatusSucceeded, 4096)
	m.JobFinished(jobs.KindMCBand, jobs.StatusCancelled, 0)
	m.JobFinished(jobs.KindSensitivity, jobs.StatusFailed, 12)
	m.ShardDispatched(jobs.KindMCBand)
	m.ShardDispatched(jobs.KindMCBand)
	m.ShardDispatched(jobs.KindSensitivity)
	m.ShardCompleted(jobs.KindMCBand, 12*time.Millisecond)
	m.ShardCompleted(jobs.KindSensitivity, 45*time.Millisecond)
	m.ShardHedged(jobs.KindMCBand)
	m.ShardFallback(jobs.KindMCBand)

	var fwd metrics.Histogram
	fwd.Record(300 * time.Microsecond)
	fwd.Record(900 * time.Microsecond)
	m.jobCounts = func() (int, int) { return 3, 2 }
	m.cacheStats = func() cacheStats {
		return cacheStats{Entries: 7, Bytes: 2048, BudgetBytes: 1 << 20, Shards: 16, Evictions: 5, Reprieves: 3}
	}
	m.evalStats = func() evalStats { return evalStats{Entries: 2, Hits: 9, Misses: 2} }
	m.limiterStats = func() []resilience.LimiterStats {
		return []resilience.LimiterStats{
			{Name: "cheap", MaxConcurrent: 8, InUse: 1, Admitted: 40, Shed: 2},
			{Name: "heavy", MaxConcurrent: 2, Queued: 3, Shedding: true, Admitted: 6, Shed: 4},
		}
	}
	m.faultStats = func() fault.Stats {
		return fault.Stats{Latencies: 3, Errors: 2, Panics: 1, Resets: 4, Partitioned: 5}
	}
	m.clusterStats = func() cluster.Stats {
		return cluster.Stats{
			RingNodes: 3, Epoch: 4, Alive: 3, Suspect: 1, Dead: 0,
			Local: 11, Forwarded: 2, ForwardErrors: 1, ProbeFailures: 6,
			Retries: 1, RetriesDenied: 2, BreakerShortCircuits: 3, BreakerTransitions: 4, BreakerOpens: 1,
			Breakers: []cluster.PeerBreaker{
				{URL: "http://127.0.0.1:9001", State: resilience.BreakerClosed},
				{URL: "http://127.0.0.1:9002", State: resilience.BreakerOpen},
			},
			ForwardLatency: &fwd,
		}
	}
}

// TestMetricsGolden pins the whole exposition — series names, label
// sets, values, order and the summary quantile lines — against
// testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics()
	recordGoldenScript(m)
	var sb strings.Builder
	n, err := m.WriteTo(&sb)
	if err != nil || n != int64(sb.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, sb.Len())
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exposition line %d = %q, golden %q\nfull exposition:\n%s", i+1, g, w, sb.String())
		}
	}
}

// TestMetricsRecordingAllocs: the per-request and per-shard recording
// paths are atomic adds with no allocation.
func TestMetricsRecordingAllocs(t *testing.T) {
	m := NewMetrics()
	rs := m.route("POST /v1/ttm")
	for name, f := range map[string]func(){
		"route observe": func() { rs.observe(200, 42*time.Microsecond) },
		"cache hit":     m.CacheHit,
		"alias hit":     m.AliasHit,
		"cache miss":    m.CacheMiss,
		"shard latency": func() { m.ShardCompleted(jobs.KindMCBand, 3*time.Millisecond) },
		"job finished":  func() { m.JobFinished(jobs.KindSweep, jobs.StatusSucceeded, 1) },
	} {
		if a := testing.AllocsPerRun(1000, f); a != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, a)
		}
	}
}

// TestMetricsCacheReprieves: a response-cache entry hit since it was
// written survives its first turn at the tail, and /metrics counts the
// reprieve beside the evictions.
func TestMetricsCacheReprieves(t *testing.T) {
	const budget = 8 << 10
	s := testServer(t, Config{CacheBytes: budget, CacheShards: 1})
	const body = `{"design":"a11","node":"28nm","n":1e6}`
	doRec(t, s, "POST", "/v1/ttm", body)
	doRec(t, s, "POST", "/v1/ttm", body) // hits the entry and records its alias
	// A filler as large as the budget retires everything: the hit entry
	// is reprieved once, the alias is evicted, then the entry is.
	s.cache.Put("filler", make([]byte, budget-charge("filler", 0)))
	out := doRec(t, s, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"ttmcas_cache_reprieves_total 1\n",
		"ttmcas_response_cache_evictions_total 2\n",
		"ttmcas_response_cache_entries 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
