package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, string(b)
}

// TestConcurrentIdenticalTTM is the acceptance check for the caching
// layer: many concurrent identical requests must all observe the same
// correct answer while the model is evaluated far fewer times than
// requests are served.
func TestConcurrentIdenticalTTM(t *testing.T) {
	s := testServer(t, Config{})
	// Hold evaluations briefly so the burst overlaps one in-flight
	// computation rather than racing past each other.
	s.slowEval = func() { time.Sleep(30 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 60
	body := `{"design":"a11","node":"28nm","n":10e6}`
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/ttm", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			statuses[i] = resp.StatusCode
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d returned a different body:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var out TTMResponse
	if err := json.Unmarshal([]byte(bodies[0]), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.TTMWeeks <= 0 || out.CriticalNode != "28nm" {
		t.Errorf("unexpected answer: %+v", out)
	}
	sum := out.DesignWeeks + out.TapeoutWeeks + out.FabricationWeeks + out.PackagingWeeks
	if diff := out.TTMWeeks - sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("phase breakdown inconsistent: %v vs %v", out.TTMWeeks, sum)
	}

	m := s.Metrics()
	if served := requestCount(m, "POST /v1/ttm", 200); served != n {
		t.Errorf("served = %d, want %d", served, n)
	}
	if evals := m.evaluations.Load(); evals >= n {
		t.Errorf("model evaluated %d times for %d requests; caching had no effect", evals, n)
	}
	if m.cacheHits.Load()+m.flightShared.Load() == 0 {
		t.Error("neither cache hits nor singleflight sharing recorded")
	}
	t.Logf("served=%d evaluations=%d cache_hits=%d shared=%d",
		n, m.evaluations.Load(), m.cacheHits.Load(), m.flightShared.Load())
}

// TestGracefulShutdown is the acceptance check for draining: a slow
// in-flight request completes with 200 after the serve context is
// canceled (SIGTERM), while new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	s := testServer(t, Config{ShutdownGrace: 5 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.slowEval = func() {
		once.Do(func() { close(started) })
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	addr := ln.Addr().String()
	type result struct {
		status int
		body   string
		err    error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/ttm", "application/json",
			strings.NewReader(`{"design":"a11","node":"28nm","n":1e6}`))
		if err != nil {
			slow <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slow <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-started
	cancel() // the SIGTERM path: ListenAndServe cancels this context

	// New connections must be refused once the listener closes.
	refused := false
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("new connections still accepted after shutdown began")
	}

	close(release)
	r := <-slow
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Errorf("in-flight request: status %d, body %s", r.status, r.body)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

// TestWorkerPoolSaturation checks that the bounded pool sheds heavy
// load with 503 instead of queueing without limit.
func TestWorkerPoolSaturation(t *testing.T) {
	s := testServer(t, Config{MaxConcurrent: 1, RequestTimeout: 200 * time.Millisecond})
	acquired := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.slowEval = func() {
		once.Do(func() { close(acquired) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sensitivity", "application/json",
			strings.NewReader(`{"design":"a11","node":"28nm","n":1e6,"samples":8}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-acquired

	status, body := postJSON(t, ts.URL+"/v1/sensitivity",
		`{"design":"a11","node":"28nm","n":1e6,"samples":16}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("saturated pool: status %d, body %s, want 503", status, body)
	}

	close(release)
	if got := <-first; got != http.StatusOK {
		t.Errorf("first heavy request: status %d, want 200", got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string  `json:"status"`
		NodeID    string  `json:"node_id"`
		UptimeS   float64 `json:"uptime_s"`
		RingEpoch uint64  `json:"ring_epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, decode err %v", resp.StatusCode, err)
	}
	if health.Status != "ok" || health.NodeID != "single" || health.RingEpoch != 0 {
		t.Errorf("/healthz = %+v, want status ok, node single, epoch 0", health)
	}

	// Generate traffic so the exposition has content: one miss, one hit.
	body := `{"design":"chipA","n":1e6}`
	postJSON(t, ts.URL+"/v1/ttm", body)
	postJSON(t, ts.URL+"/v1/ttm", body)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	out := string(b)
	for _, want := range []string{
		`ttmcas_requests_total{route="POST /v1/ttm",code="200"} 2`,
		`ttmcas_requests_total{route="GET /healthz",code="200"} 1`,
		`ttmcas_request_duration_seconds_count{route="POST /v1/ttm"} 2`,
		"ttmcas_cache_hits_total 1",
		"ttmcas_cache_misses_total 1",
		"ttmcas_model_evaluations_total 1",
		"ttmcas_inflight_requests",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestIdenticalRequestsHitCache(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"design":"zen2","n":10e6}`
	st1, b1 := postJSON(t, ts.URL+"/v1/cost", body)
	st2, b2 := postJSON(t, ts.URL+"/v1/cost", body)
	if st1 != 200 || st2 != 200 || b1 != b2 {
		t.Fatalf("responses differ: %d %s vs %d %s", st1, b1, st2, b2)
	}
	m := s.Metrics()
	if m.evaluations.Load() != 1 || m.cacheHits.Load() != 1 {
		t.Errorf("evaluations=%d hits=%d, want 1/1", m.evaluations.Load(), m.cacheHits.Load())
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"design":"nope","n":1e6}`
	st1, _ := postJSON(t, ts.URL+"/v1/ttm", body)
	st2, _ := postJSON(t, ts.URL+"/v1/ttm", body)
	if st1 != http.StatusBadRequest || st2 != http.StatusBadRequest {
		t.Fatalf("statuses %d, %d, want 400", st1, st2)
	}
	if s.cache.Stats().Entries != 0 {
		t.Errorf("error response was cached (%d entries)", s.cache.Stats().Entries)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	s := testServer(t, Config{MaxBodyBytes: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"design":"a11","n":1e6,"node":"` + strings.Repeat("x", 256) + `"}`
	status, _ := postJSON(t, ts.URL+"/v1/ttm", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
}

// TestRequestBodyLimitCountsTrailingBytes: the body limit covers the
// whole body, not just its first JSON value — a valid request padded
// past MaxBodyBytes with whitespace is 413 on every JSON route.
func TestRequestBodyLimitCountsTrailingBytes(t *testing.T) {
	s := testServer(t, Config{})
	pad := strings.Repeat(" ", 2<<20)
	for _, tc := range []struct{ path, body string }{
		{"/v1/ttm", `{"design":"a11","node":"28nm","n":10e6}`},
		{"/v1/scenarios", `{"design":"zen2","n":1e6,"episode":"export-control-shock"}`},
		{"/v1/jobs", `{"kind":"mc-band","design":"a11","node":"28nm","samples":64}`},
	} {
		if w := doRec(t, s, "POST", tc.path, tc.body+pad); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d trailing spaces: %d %s, want 413", tc.path, len(pad), w.Code, w.Body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/ttm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ttm = %d, want 405", resp.StatusCode)
	}
}
