package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ttmcas"
)

// TestCacheKeyCanonicalization pins down that the response cache keys
// on the decoded request, not the raw bytes: two bodies with the same
// fields in different key order, whitespace and numeric spelling must
// hit the same cache entry.
func TestCacheKeyCanonicalization(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := `{"design":"a11","node":"28nm","n":10e6}`
	second := "{\n\t\"n\":   1.0e7,\n\t\"node\": \"28nm\",\n\t\"design\": \"a11\"\n}"

	st1, b1 := postJSON(t, ts.URL+"/v1/ttm", first)
	st2, b2 := postJSON(t, ts.URL+"/v1/ttm", second)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d, %d; bodies %s %s", st1, st2, b1, b2)
	}
	if b1 != b2 {
		t.Errorf("equivalent requests returned different bodies:\n%s\nvs\n%s", b1, b2)
	}
	m := s.Metrics()
	if m.Evaluations() != 1 {
		t.Errorf("evaluations = %d, want 1 (second request must be a cache hit)", m.Evaluations())
	}
	if m.CacheHits() != 1 || m.CacheMisses() != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.CacheHits(), m.CacheMisses())
	}
}

// TestXCacheHeaderAndContentLength checks the hot-path response
// headers: a computed response is marked MISS, a repeat is served
// verbatim from cache as HIT, and both carry an exact Content-Length.
func TestXCacheHeaderAndContentLength(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/ttm", "application/json",
			strings.NewReader(`{"design":"a11","node":"28nm","n":10e6}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	resp1, body1 := post()
	resp2, body2 := post()
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first X-Cache = %q, want MISS", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second X-Cache = %q, want HIT", got)
	}
	if body1 != body2 {
		t.Errorf("cached body differs from computed body")
	}
	if !strings.HasSuffix(body1, "\n") {
		t.Errorf("body should be newline-terminated")
	}
	for i, resp := range []*http.Response{resp1, resp2} {
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body1)) {
			t.Errorf("response %d: Content-Length = %q, want %d", i+1, cl, len(body1))
		}
	}
}

// TestSingleflightCollapsesConcurrentMisses disables the response
// cache so deduplication can only come from single-flight, gates the
// one in-flight computation until every request has joined it, and
// then requires exactly one model evaluation for N requests.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	s := testServer(t, Config{CacheBytes: -1})
	gate := make(chan struct{})
	s.slowEval = func() { <-gate }
	// Count joins rather than in-flight requests: a request counts as in
	// flight before it reaches the single-flight group, and one that got
	// there only after the gate opened would start a second computation.
	// The requests are dispatched in-process, from goroutines started
	// after the hook is set.
	var joined atomic.Int64
	flightTestHookJoin = func() { joined.Add(1) }
	defer func() { flightTestHookJoin = nil }()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := doRec(t, s, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":10e6}`)
			if w.Code != http.StatusOK {
				t.Errorf("status %d: %s", w.Code, w.Body)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for joined.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", joined.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	m := s.Metrics()
	if m.Evaluations() != 1 {
		t.Errorf("evaluations = %d, want 1", m.Evaluations())
	}
	if m.Shared() != n-1 {
		t.Errorf("shared = %d, want %d", m.Shared(), n-1)
	}
	if m.CacheHits() != 0 {
		t.Errorf("cache hits = %d, want 0 (cache disabled)", m.CacheHits())
	}
}

// TestEvaluatorCacheReusesCompile checks that requests differing only
// in chip count (distinct response-cache keys) share one compiled
// evaluator, and that /v1/cas reuses the evaluator /v1/ttm compiled.
func TestEvaluatorCacheReusesCompile(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"design":"a11","node":"28nm","n":10e6}`,
		`{"design":"a11","node":"28nm","n":20e6}`,
	} {
		if st, b := postJSON(t, ts.URL+"/v1/ttm", body); st != http.StatusOK {
			t.Fatalf("status %d: %s", st, b)
		}
	}
	if st := s.evals.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("evalcache after two ttm = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	if st, b := postJSON(t, ts.URL+"/v1/cas", `{"design":"a11","node":"28nm","n":10e6}`); st != http.StatusOK {
		t.Fatalf("cas status %d: %s", st, b)
	}
	if st := s.evals.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("evalcache after cas = %+v, want the same compiled evaluator reused", st)
	}
}

// whatIfRequests returns n evaluation requests on one design, each
// under its own market conditions — a global capacity, and in turn a
// lead time quoted at every node and per-node capacity and queue
// overrides — the shape of a what-if stream.
func whatIfRequests(n int) []EvalRequest {
	rng := rand.New(rand.NewSource(14))
	reqs := make([]EvalRequest, n)
	for i := range reqs {
		req := EvalRequest{Design: "zen2", N: float64(1+rng.Intn(50)) * 1e5, Capacity: 0.05 + 0.95*rng.Float64()}
		if i%2 == 1 {
			req.QueueWeeks = 8 * rng.Float64()
		}
		if i%3 == 1 {
			req.NodeCapacity = map[string]float64{"12nm": 0.1 + 0.9*rng.Float64()}
		}
		if i%4 == 1 {
			req.NodeQueueWeeks = map[string]float64{"7nm": 6 * rng.Float64()}
		}
		reqs[i] = req
	}
	return reqs
}

// whatIfAnswer posts req to route (/v1/ttm or /v1/cas) and compares the
// answer with the facade's map-based model under the same design and
// conditions, floats by their bits.
func whatIfAnswer(s *Server, route string, req EvalRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", route, body, w.Code, w.Body)
	}
	d, c, err := req.resolve()
	if err != nil {
		return err
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if route == "/v1/ttm" {
		var got TTMResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			return err
		}
		want, err := ttmcas.Evaluate(d, req.N, c)
		if err != nil {
			return err
		}
		if got.Conditions != c.String() || !same(got.TTMWeeks, float64(want.TTM)) || len(got.Nodes) != len(want.Nodes) {
			return fmt.Errorf("%s %s: got %+v, facade %+v under %s", route, body, got, want, c)
		}
		for j, nf := range want.Nodes {
			if g := got.Nodes[j]; !same(g.QueueWeeks, float64(nf.Queue)) || !same(g.TotalWeeks, float64(nf.FabTotal)) {
				return fmt.Errorf("%s %s: node %s %+v, facade %+v", route, body, nf.Node, g, nf)
			}
		}
		return nil
	}
	var got CASResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		return err
	}
	want, err := ttmcas.CAS(d, req.N, c)
	if err != nil {
		return err
	}
	if got.Conditions != c.String() || !same(got.CAS, want.CAS) || len(got.Derivatives) != len(want.Derivatives) {
		return fmt.Errorf("%s %s: got %+v, facade %+v under %s", route, body, got, want, c)
	}
	for node, der := range want.Derivatives {
		if g, ok := got.Derivatives[node.String()]; !ok || !same(g, der) {
			return fmt.Errorf("%s %s: derivative %s = %v, facade %v", route, body, node, g, der)
		}
	}
	return nil
}

// TestWhatIfBindsOnOneCompiledDesign sends what-if requests — one
// design, new market conditions every time — and requires exactly one
// compile: every later request binds its conditions onto a pooled clone
// of the cached design. With the evaluator cache disabled every request
// compiles. The answers must match the facade either way.
func TestWhatIfBindsOnOneCompiledDesign(t *testing.T) {
	const n = 24
	reqs := whatIfRequests(n)
	for _, tc := range []struct {
		evalCache int
		misses    uint64
	}{{0, 1}, {-1, 2 * n}} {
		s := testServer(t, Config{EvalCacheSize: tc.evalCache})
		for _, req := range reqs {
			for _, route := range []string{"/v1/ttm", "/v1/cas"} {
				if err := whatIfAnswer(s, route, req); err != nil {
					t.Fatalf("EvalCacheSize %d: %v", tc.evalCache, err)
				}
			}
		}
		if st := s.evals.Stats(); st.Misses != tc.misses || st.Hits+st.Misses != 2*n {
			t.Errorf("EvalCacheSize %d: evalcache %+v, want %d misses of %d lookups", tc.evalCache, st, tc.misses, 2*n)
		}
	}
}

// TestWhatIfConcurrentBind drives one design from several goroutines at
// once, each request under its own conditions, so pooled clones are
// re-bound while other clones of the same compiled design evaluate. Run
// it under -race.
func TestWhatIfConcurrentBind(t *testing.T) {
	const workers = 8
	s := testServer(t, Config{CacheBytes: -1, CheapConcurrent: workers})
	reqs := whatIfRequests(64)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += workers {
				route := "/v1/ttm"
				if i%2 == 1 {
					route = "/v1/cas"
				}
				if err := whatIfAnswer(s, route, reqs[i]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.evals.Stats(); st.Entries != 1 {
		t.Errorf("evalcache %+v, want one entry for one design", st)
	}
}

func TestEvalCacheLRUEviction(t *testing.T) {
	c := newEvalCache(2)
	keys := []string{"a", "b", "a", "c", "b"}
	for _, k := range keys {
		if _, err := c.getOrCompile(evalKey{design: k}, func() (*ttmcas.Evaluator, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// After a,b,a,c: inserting c evicted b (a was refreshed), so the
	// final b is a miss again.
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 1/4", st.Hits, st.Misses)
	}
}

// ---- writeJSON allocation benchmarks -------------------------------

// benchPayload mirrors a realistic /v1/ttm response: one die, one
// node, the shape the hot path serializes most often.
func benchPayload() TTMResponse {
	return TTMResponse{
		Design: "a11", Chips: 10e6, Conditions: "full capacity",
		DesignWeeks: 52.1, TapeoutWeeks: 18.4, FabricationWeeks: 11.9,
		PackagingWeeks: 2, TTMWeeks: 84.4, CriticalNode: "28nm",
		Dies: []DieResponse{{
			Name: "a11", Node: "28nm", AreaMM2: 98.3, Yield: 0.82,
			GrossPerWafer: 612, Wafers: 23871,
		}},
		Nodes: []NodeResponse{{
			Node: "28nm", Wafers: 23871, QueueWeeks: 0,
			ProductionWeeks: 11.9, TotalWeeks: 11.9,
		}},
	}
}

// nopResponseWriter isolates serving cost from httptest bookkeeping:
// it keeps the status code and headers, and discards the body.
type nopResponseWriter struct {
	h    http.Header
	code int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// reusableBody is a request body read from a reused buffer; unlike
// io.NopCloser it needs no allocation per request.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// BenchmarkWriteJSON measures the pooled hot-path encoder.
func BenchmarkWriteJSON(b *testing.B) {
	out := benchPayload()
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, out)
	}
}

// BenchmarkWriteJSONNaive is the pre-PR implementation — Marshal into
// a fresh slice, append the newline — kept as the in-tree baseline the
// pooled path is judged against.
func BenchmarkWriteJSONNaive(b *testing.B) {
	out := benchPayload()
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(out)
		if err != nil {
			b.Fatal(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(append(body, '\n'))
	}
}

// BenchmarkServerTTMCachedHit measures the full serving stack on a
// repeated, byte-identical request — routing, middleware, body read,
// response-cache lookup, verbatim write — via direct handler dispatch.
// One request and one response writer are reused and the access log
// is off, as in bench/, so the figures are the server's own, not
// httptest's or the log formatter's.
func BenchmarkServerTTMCachedHit(b *testing.B) {
	s := New(Config{Logger: log.New(io.Discard, "", 0), DisableAccessLog: true})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"design":"a11","node":"28nm","n":10e6}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/ttm", nil)
	req.Header.Set("Content-Type", "application/json")
	var rb reusableBody
	w := &nopResponseWriter{h: make(http.Header)}
	do := func() (int, string) {
		rb.Reset(body)
		req.Body, req.ContentLength = &rb, int64(len(body))
		w.code = 0
		clear(w.h)
		h.ServeHTTP(w, req)
		return w.code, w.h.Get("X-Cache")
	}
	// The first request computes the entry; the second hits it and
	// leaves the state every later repeat of the same bytes finds.
	for _, want := range []string{"MISS", "HIT"} {
		if code, xc := do(); code != http.StatusOK || xc != want {
			b.Fatalf("prime: status %d, X-Cache %q, want 200 %s", code, xc, want)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, _ := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServerWhatIfMiss measures the what-if path through the full
// serving stack: every iteration posts new market conditions, so each
// request misses the response cache and pays decode, key, compute and
// encode, while the evaluator cache hits. The mix follows bench/'s
// what-if workload: 70% ttm and 30% cas with the 8-point curve, each of
// the design's nodes at its own capacity. Dispatch is direct, as in
// BenchmarkServerTTMCachedHit.
func BenchmarkServerWhatIfMiss(b *testing.B) {
	s := New(Config{Logger: log.New(io.Discard, "", 0), DisableAccessLog: true})
	defer s.Close()
	h := s.Handler()
	d, err := ttmcas.DesignByName("zen2")
	if err != nil {
		b.Fatal(err)
	}
	var nodes []string
	for _, n := range d.Nodes() {
		nodes = append(nodes, n.String())
	}
	ttm := httptest.NewRequest(http.MethodPost, "/v1/ttm", nil)
	cas := httptest.NewRequest(http.MethodPost, "/v1/cas", nil)
	rng := rand.New(rand.NewSource(1))
	var rb reusableBody
	var body []byte
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(body[:0], `{"design":"zen2","capacity":`...)
		body = strconv.AppendFloat(body, 0.5+0.5*rng.Float64(), 'g', -1, 64)
		body = append(body, `,"queue_weeks":`...)
		body = strconv.AppendFloat(body, 8*rng.Float64(), 'g', -1, 64)
		body = append(body, `,"node_capacity":{`...)
		for j, n := range nodes {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendQuote(body, n)
			body = append(body, ':')
			body = strconv.AppendFloat(body, 0.4+0.6*rng.Float64(), 'g', -1, 64)
		}
		req := ttm
		if i%10 >= 7 {
			req = cas
			body = append(body, `},"curve":[0.3,0.4,0.5,0.6,0.7,0.8,0.9,1],"n":`...)
		} else {
			body = append(body, `},"n":`...)
		}
		body = strconv.AppendFloat(body, 1e5*math.Pow(1e3, rng.Float64()), 'g', -1, 64)
		body = append(body, '}')
		rb.Reset(body)
		req.Body, req.ContentLength = &rb, int64(len(body))
		w.code = 0
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.h.Get("X-Cache") != "MISS" {
			b.Fatalf("%s: status %d, X-Cache %q", body, w.code, w.h.Get("X-Cache"))
		}
	}
}
