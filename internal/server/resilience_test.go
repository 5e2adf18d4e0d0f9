package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ttmcas/internal/resilience"
)

// doRec runs one in-process request and returns the recorder, so tests
// can inspect headers as well as status and body.
func doRec(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestFaultsSpareCachedHits is the graceful-degradation acceptance
// check: faults are injected only into the compute path behind the
// cache, so a warmed key keeps answering its cached bytes — canonically
// and through its raw-body alias — while a cold key meets the fault as
// a JSON 503.
func TestFaultsSpareCachedHits(t *testing.T) {
	s := testServer(t, Config{FaultSpec: "route=/v1/ttm error-rate=1"})
	s.Faults().Pause() // warm the cache faultlessly

	body := `{"design":"a11","node":"28nm","n":1e6}`
	w := doRec(t, s, "POST", "/v1/ttm", body)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("warmup: %d %q", w.Code, w.Header().Get("X-Cache"))
	}
	cached := w.Body.String()
	s.Faults().Resume()

	// The second post hits the canonical entry, the third its alias.
	for i, wantAlias := range []uint64{0, 1} {
		w = doRec(t, s, "POST", "/v1/ttm", body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("post %d under faults: %d %q, want 200 HIT (body %s)",
				i+2, w.Code, w.Header().Get("X-Cache"), w.Body.String())
		}
		if w.Body.String() != cached {
			t.Errorf("post %d: body differs from the cached one", i+2)
		}
		if n := s.Metrics().aliasHits.Load(); n != wantAlias {
			t.Errorf("post %d: alias hits = %d, want %d", i+2, n, wantAlias)
		}
	}

	w = doRec(t, s, "POST", "/v1/ttm", `{"design":"zen2","node":"28nm","n":1e6}`)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" || !json.Valid(w.Body.Bytes()) {
		t.Errorf("cold key under faults: %d Retry-After=%q body %q; want a JSON 503 with Retry-After",
			w.Code, w.Header().Get("Retry-After"), w.Body.String())
	}
}

// TestInjectedErrorWithoutStaleIs503 pins down the miss path: a fault
// on a key with no cached body surfaces as 503 with Retry-After, never
// as a client-error status.
func TestInjectedErrorWithoutStaleIs503(t *testing.T) {
	s := testServer(t, Config{FaultSpec: "route=/v1/ttm error-rate=1"})
	w := doRec(t, s, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":1e6}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestInjectedRouteErrors: an injected error on a job or listing route
// answers exactly like one on the compute path — 503, Retry-After: 1
// and a valid JSON body, even when the path is not valid UTF-8 — while
// uninjected routes and a fault-free server pass untouched.
func TestInjectedRouteErrors(t *testing.T) {
	s := testServer(t, Config{FaultSpec: "error-rate=1"})
	for _, path := range []string{"/v1/jobs/%FF", "/v1/jobs/%7F", "/v1/nodes"} {
		w := doRec(t, s, "GET", path, "")
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" || !json.Valid(w.Body.Bytes()) {
			t.Errorf("GET %s: %d Retry-After=%q body %q; want 503, 1, valid JSON",
				path, w.Code, w.Header().Get("Retry-After"), w.Body.String())
		}
	}
	if w := doRec(t, s, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("/healthz was injected: %d", w.Code)
	}

	clean := testServer(t, Config{})
	if clean.Faults() != nil {
		t.Fatal("empty FaultSpec built an injector")
	}
	if w := doRec(t, clean, "GET", "/v1/nodes", ""); w.Code != http.StatusOK {
		t.Errorf("fault-free /v1/nodes: %d", w.Code)
	}
}

// TestShedSparesCachedHits drives the admission limiter into a shed:
// a warmed key bypasses admission and still answers its cached body,
// while a cold key gets 503 + Retry-After.
func TestShedSparesCachedHits(t *testing.T) {
	s := testServer(t, Config{
		CheapConcurrent: 1,
		ShedTarget:      5 * time.Millisecond, // MaxWait = 20ms
	})

	warm := `{"design":"a11","node":"28nm","n":1e6}`
	if w := doRec(t, s, "POST", "/v1/ttm", warm); w.Code != http.StatusOK {
		t.Fatalf("warmup: %d", w.Code)
	}

	// Occupy the single cheap slot with a request held in compute.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.slowEval = func() {
		once.Do(func() { close(started) })
		<-release
	}
	holder := make(chan int, 1)
	go func() {
		w := doRec(t, s, "POST", "/v1/ttm", `{"design":"zen2","node":"28nm","n":1e6}`)
		holder <- w.Code
	}()
	<-started

	// The warmed key never reaches admission: 200 HIT.
	w := doRec(t, s, "POST", "/v1/ttm", warm)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "HIT" {
		t.Errorf("warmed key with the slot held: %d %q, want 200 HIT",
			w.Code, w.Header().Get("X-Cache"))
	}

	// A cold key must be admitted and cannot be: 503 with Retry-After.
	w = doRec(t, s, "POST", "/v1/ttm", `{"design":"h100","node":"28nm","n":1e6}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("cold-key shed: %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed 503 without Retry-After")
	}

	close(release)
	if code := <-holder; code != http.StatusOK {
		t.Errorf("slot holder finished with %d, want 200", code)
	}
}

// TestComputePanicContained checks an injected panic in the compute
// path is contained to a 500 — the process survives, piggybacked
// requests are not hung, and the next request works.
func TestComputePanicContained(t *testing.T) {
	s := testServer(t, Config{FaultSpec: "route=/v1/ttm panics=1"})
	body := `{"design":"a11","node":"28nm","n":1e6}`
	w := doRec(t, s, "POST", "/v1/ttm", body)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking compute: %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	// The panic budget is spent; the same request now succeeds.
	if w = doRec(t, s, "POST", "/v1/ttm", body); w.Code != http.StatusOK {
		t.Fatalf("request after panic: %d, want 200", w.Code)
	}
}

// TestJobTooManyRetryAfter checks the pre-existing 429 on job overflow
// now carries Retry-After, like the new 503 sheds.
func TestJobTooManyRetryAfter(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1, JobWorkers: 1})
	submitJob(t, s, `{"kind":"mc-band","design":"a11","samples":4096,"seed":1}`)
	w := doRec(t, s, "POST", "/v1/jobs", `{"kind":"mc-band","design":"a11","samples":8}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestFlightPanicWakesPiggybackers pins the single-flight hardening: a
// panicking executor must wake callers that joined its flight, with an
// error, instead of leaving them blocked forever.
func TestFlightPanicWakesPiggybackers(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do("k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	joined := make(chan struct{})
	flightTestHookJoin = func() { close(joined) }
	defer func() { flightTestHookJoin = nil }()
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) { return nil, nil })
		done <- err
	}()
	<-joined
	close(release)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("piggybacker observed nil error from a panicked call")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("piggybacker hung after the executing call panicked")
	}
}

// TestMetricsExposeResilienceSeries checks the admission and fault
// series appear in /metrics.
func TestMetricsExposeResilienceSeries(t *testing.T) {
	s := testServer(t, Config{FaultSpec: "route=/v1/ttm error-rate=1"})
	doRec(t, s, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":1e6}`)
	w := doRec(t, s, "GET", "/metrics", "")
	out := w.Body.String()
	for _, want := range []string{
		`ttmcas_admission_admitted_total{class="cheap"} 1`,
		`ttmcas_admission_shed_total{class="heavy"} 0`,
		`ttmcas_admission_shedding{class="cheap"} 0`,
		`ttmcas_faults_injected_total{kind="error"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestShutdownUnderLoad is the robustness acceptance check for
// draining: with the cheap class saturated, cancellation completes the
// admitted in-flight request, answers the queued-but-unadmitted one
// with 503, closes the listener, and leaks no goroutines.
func TestShutdownUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := testServer(t, Config{
		CheapConcurrent: 1,
		ShedTarget:      time.Minute, // MaxWait 4min: queued waits until Close
		ShutdownGrace:   10 * time.Second,
	})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.slowEval = func() {
		once.Do(func() { close(started) })
		<-release
	}

	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	// In-flight: admitted and held inside the compute closure.
	inflight := make(chan int, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/v1/ttm", "application/json",
			strings.NewReader(`{"design":"a11","node":"28nm","n":1e6}`))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-started

	// Queued: waiting for the occupied admission slot.
	queued := make(chan int, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/v1/ttm", "application/json",
			strings.NewReader(`{"design":"zen2","node":"28nm","n":1e6}`))
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitFor := time.Now().Add(5 * time.Second)
	for s.cheap.Stats().Queued == 0 {
		if time.Now().After(waitFor) {
			t.Fatal("second request never queued on the limiter")
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown: Close plays the role Serve's cancellation goroutine
	// does in production — limiters first, then drain.
	go func() {
		s.Close()
		close(release)
	}()

	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Errorf("queued request: %d, want 503", code)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request: %d, want 200", code)
	}

	ts.Close()
	client.CloseIdleConnections()

	// The goroutine count must return to its pre-server baseline (with
	// slack for the runtime's own background workers).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLimiterCloseIsShedToClients double-checks the error mapping the
// shutdown path relies on: a closed limiter's rejection is a shed.
func TestLimiterCloseIsShedToClients(t *testing.T) {
	l := resilience.NewLimiter(resilience.LimiterConfig{MaxConcurrent: 1})
	l.Close()
	if _, err := l.Admit(t.Context()); err == nil {
		t.Fatal("admit on closed limiter succeeded")
	}
}
