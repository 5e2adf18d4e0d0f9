package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"ttmcas"
	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
)

// clients is the benchmark's load: two closed-loop clients, one per
// core of the 2-core machine the baseline was recorded on. The loop is
// closed because the API's callers are scripts that wait for each reply.
const clients = 2

// pollInterval is how long a job workflow waits between status polls.
const pollInterval = 250 * time.Microsecond

// jobDeadline bounds one job workflow; a job still running after it
// counts as failed.
const jobDeadline = time.Minute

// reqBody is a request body read from a reused buffer; unlike
// io.NopCloser it needs no allocation per request.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// sink is the ResponseWriter of in-process dispatch: status, headers and
// body land in buffers reused across requests.
type sink struct {
	header http.Header
	code   int
	body   []byte
}

func (w *sink) Header() http.Header { return w.header }

func (w *sink) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sink) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *sink) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// caller dispatches requests straight into a node's handler on the
// calling goroutine, as a client of the process would see them minus
// the socket. It is owned by one goroutine.
type caller struct {
	w     sink
	body  reqBody
	tmpls map[string]*http.Request
}

func newCaller() *caller {
	return &caller{w: sink{header: make(http.Header)}, tmpls: make(map[string]*http.Request)}
}

// prepare returns a request for method and path carrying body, ready to
// serve, and resets the response sink. Requests to fixed paths are
// reused; the body and response buffers stay valid until the next call.
func (c *caller) prepare(method, path string, body []byte) *http.Request {
	key := method + " " + path
	r := c.tmpls[key]
	if r == nil {
		r = &http.Request{
			Method: method, URL: &url.URL{Path: path}, RequestURI: path,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"Content-Type": {"application/json"}},
			Host:   "bench.invalid",
		}
		if !strings.HasPrefix(path, "/v1/jobs/") {
			c.tmpls[key] = r
		}
	}
	if body != nil {
		c.body.Reset(body)
		r.Body, r.ContentLength = &c.body, int64(len(body))
	} else {
		r.Body, r.ContentLength = http.NoBody, 0
	}
	c.w.code = 0
	clear(c.w.header)
	c.w.body = c.w.body[:0]
	return r
}

// call serves one request and returns its status and body.
func (c *caller) call(h http.Handler, method, path string, body []byte) (int, []byte) {
	h.ServeHTTP(&c.w, c.prepare(method, path, body))
	return c.w.status(), c.w.body
}

// jobStatus is the part of a job's status document the workflow reads.
type jobStatus struct {
	ID       string      `json:"id"`
	Kind     string      `json:"kind"`
	Status   jobs.Status `json:"status"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started"`
	Finished *time.Time  `json:"finished"`
}

// jobOutcome is what one job workflow observed.
type jobOutcome struct {
	ok          bool
	status      jobStatus // the final status document
	result      []byte    // the result document
	resultBytes int       // size of the whole result response
	polls       int
}

// spanFunc records one HTTP call of a job workflow.
type spanFunc func(name string, start, end time.Time)

// jobWorkflow submits spec to node n, polls its status every
// pollInterval and fetches the result: the closed loop of
// examples/jobsclient. An error means the context ended; a job that
// failed is reported by ok=false.
func (c *caller) jobWorkflow(ctx context.Context, n *node, spec []byte, rec spanFunc) (jobOutcome, error) {
	var out jobOutcome
	timed := func(name, method, path string, body []byte) (int, []byte) {
		t0 := time.Now()
		code, b := c.call(n.h, method, path, body)
		if rec != nil {
			rec(name, t0, time.Now())
		}
		return code, b
	}
	code, b := timed("jobs.submit", http.MethodPost, "/v1/jobs", spec)
	if code != http.StatusAccepted || json.Unmarshal(b, &out.status) != nil {
		return out, nil
	}
	path := "/v1/jobs/" + out.status.ID
	deadline := time.Now().Add(jobDeadline)
	for !out.status.Status.Finished() {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if time.Now().After(deadline) {
			return out, nil
		}
		time.Sleep(pollInterval)
		code, b = timed("jobs.poll", http.MethodGet, path, nil)
		out.polls++
		out.status = jobStatus{}
		if code != http.StatusOK || json.Unmarshal(b, &out.status) != nil {
			return out, nil
		}
	}
	code, b = timed("jobs.result", http.MethodGet, path+"/result", nil)
	out.resultBytes = len(b)
	var res server.JobResultResponse
	if code != http.StatusOK || json.Unmarshal(b, &res) != nil {
		return out, nil
	}
	out.ok = res.Status == jobs.StatusSucceeded
	out.result = res.Result
	return out, nil
}

// ---- phases ---------------------------------------------------------

// phaseWindow is the span over which throughput and request-latency
// quantiles are taken. It holds several garbage-collection cycles of
// every request workload, so no window escapes the collector's cost.
const phaseWindow = time.Second

// fastShare picks a run's result from its windows: throughput is the
// rate the fastest tenth of the windows reach (their 90th percentile),
// and a request-latency quantile the value the fastest tenth of the
// client windows reach (their 10th percentile). Other tenants of a
// shared host slow the program down in spells of tens of seconds that
// cover whole runs; the median window follows those spells, the fast
// windows follow the program.
const fastShare = 0.1

// phase accounts one timed stretch of a run. Each client writes only its
// own clientPhase; the totals are read after every client has returned.
type phase struct {
	ctx     context.Context
	start   time.Time
	end     time.Time
	warm    bool // warmup: nothing is recorded or sampled
	pooled  bool // job workloads: keep every latency for run-wide quantiles
	tr      *tracer
	clients [clients]clientPhase
}

// clientPhase is one client's share of a phase.
type clientPhase struct {
	cur        int
	buf        []float64 // latencies of the current window, µs
	win        []windowStats
	pooled     []float64
	attempted  int64
	failed     int64
	mismatches int64
	checked    int64
	jobs       []jobRecord // traced phases of job workloads
}

// windowStats is one client's view of one window.
type windowStats struct {
	ops      int64
	aside    time.Duration // oracle and replay time, not part of the load
	p50, p99 float64       // µs; valid when tail is set
	tail     bool
}

func newPhase(ctx context.Context, d time.Duration, pooled, warm bool, tr *tracer) *phase {
	now := time.Now()
	ph := &phase{ctx: ctx, start: now, end: now.Add(d), pooled: pooled, warm: warm, tr: tr}
	windows := int((d + phaseWindow - 1) / phaseWindow)
	for i := range ph.clients {
		ph.clients[i].win = make([]windowStats, max(windows, 1))
	}
	return ph
}

func (ph *phase) running() bool { return ph.ctx.Err() == nil && time.Now().Before(ph.end) }

// windowLen is the length of window k; only the last can be short.
func (ph *phase) windowLen(k int) time.Duration {
	return min(phaseWindow, ph.end.Sub(ph.start)-time.Duration(k)*phaseWindow)
}

// record accounts one finished operation of client i. Operations that
// finish after the phase ended are dropped.
func (ph *phase) record(i int, done time.Time, lat, aside time.Duration, ok bool) {
	if ph.warm || !done.Before(ph.end) {
		return
	}
	cp := &ph.clients[i]
	k := min(int(done.Sub(ph.start)/phaseWindow), len(cp.win)-1)
	if k != cp.cur {
		a := time.Now()
		cp.closeWindow()
		cp.cur = k
		aside += time.Since(a)
	}
	cp.attempted++
	cp.win[k].aside += aside
	if !ok {
		cp.failed++
		return
	}
	cp.win[k].ops++
	us := float64(lat.Nanoseconds()) / 1e3
	if ph.pooled {
		cp.pooled = append(cp.pooled, us)
	} else {
		cp.buf = append(cp.buf, us)
	}
}

// closeWindow takes the current window's latency quantiles when the
// window has enough samples for a p99.
func (cp *clientPhase) closeWindow() {
	w := &cp.win[cp.cur]
	if tailPercentile(len(cp.buf)) >= 99 {
		slices.Sort(cp.buf)
		w.p50, w.p99, w.tail = quantile(cp.buf, 0.50), quantile(cp.buf, 0.99), true
	}
	cp.buf = cp.buf[:0]
}

// phaseTotals are a phase's end-to-end numbers.
type phaseTotals struct {
	elapsed          time.Duration // wall time minus the clients' mean aside time
	opsPerS          float64
	p50, p99         float64
	samples          int64
	tailWindows      int // client windows that carried the quantiles (0: pooled)
	attempted        int64
	failed           int64
	mismatches       int64
	checked          int64
	windows          int
	supportedPercent float64
}

func (ph *phase) totals() phaseTotals {
	var t phaseTotals
	var aside time.Duration
	for i := range ph.clients {
		cp := &ph.clients[i]
		cp.closeWindow()
		t.attempted += cp.attempted
		t.failed += cp.failed
		t.mismatches += cp.mismatches
		t.checked += cp.checked
	}
	windows := len(ph.clients[0].win)
	t.windows = windows
	var rates, p50s, p99s, pooled []float64
	for k := 0; k < windows; k++ {
		rate := 0.0
		for i := range ph.clients {
			w := ph.clients[i].win[k]
			aside += w.aside
			t.samples += w.ops
			if active := ph.windowLen(k) - w.aside; active > 0 {
				rate += float64(w.ops) / active.Seconds()
			}
			if w.tail {
				p50s, p99s = append(p50s, w.p50), append(p99s, w.p99)
			}
		}
		rates = append(rates, rate)
	}
	t.elapsed = ph.end.Sub(ph.start) - aside/clients
	t.opsPerS = pct(rates, 1-fastShare)
	if ph.pooled {
		for i := range ph.clients {
			pooled = append(pooled, ph.clients[i].pooled...)
		}
		slices.Sort(pooled)
		t.p50, t.p99 = quantile(pooled, 0.50), quantile(pooled, 0.99)
		t.supportedPercent = tailPercentile(len(pooled))
	} else {
		t.p50, t.p99, t.tailWindows = pct(p50s, fastShare), pct(p99s, fastShare), len(p99s)
		if len(p99s) > 0 {
			t.supportedPercent = 99
		}
	}
	return t
}

// stepper is one closed-loop client.
type stepper interface {
	step(ph *phase)
}

// runPhase drives every client back to back until the phase ends.
func runPhase(ph *phase, cls []stepper) {
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ph.running() {
				cl.step(ph)
			}
		}()
	}
	wg.Wait()
}

// ---- request clients ------------------------------------------------

// reqClient drives evaluation requests.
type reqClient struct {
	id   int
	rng  *rand.Rand
	next func(q *query) (entry int) // fills q, picks the entry node
	st   *stack
	c    *caller
	q    query
	body []byte
	// compiles is set when every request compiles a fresh evaluator
	// (what-if); otherwise the replays reuse the client's own.
	compiles bool
	evals    map[string]*ttmcas.Evaluator
	verified map[uint64]bool
	rp       replayer
}

func (cl *reqClient) step(ph *phase) {
	q := &cl.q
	t0 := time.Now()
	entry := cl.next(q)
	// Both draws happen on every request, so a seed yields the same
	// inputs whether or not the run is traced.
	check := cl.rng.Intn(oracleEvery) == 0 && !ph.warm
	traced := cl.rng.Intn(traceEvery) == 0 && ph.tr != nil
	n := cl.st.nodes[entry]
	cl.body = q.appendBody(cl.body[:0])
	r := cl.c.prepare(http.MethodPost, q.path(), cl.body)
	gen := time.Since(t0)

	var aside time.Duration
	var link *traceLink
	if traced {
		a := time.Now()
		link = cl.rp.begin(ph.tr, cl.st, q)
		aside += time.Since(a)
	}
	t1 := time.Now()
	n.h.ServeHTTP(&cl.c.w, r)
	t2 := time.Now()
	ok := cl.c.w.status() == http.StatusOK

	cp := &ph.clients[cl.id]
	if !ok && !ph.warm && cp.failed < 3 {
		fmt.Fprintf(os.Stderr, "bench: %s %s: status %d: %s\n", q.route, cl.body, cl.c.w.status(), bytes.TrimSpace(cl.c.w.body))
	}
	if check && ok {
		a := time.Now()
		cl.check(cp, q)
		aside += time.Since(a)
	}
	if traced {
		a := time.Now()
		// The op span is the generation, then the call: t1-gen leaves
		// the trace bookkeeping between the two out.
		cl.rp.finish(ph.tr, link, cl, n, t1.Add(-gen), t1, t2, ok)
		aside += time.Since(a)
	}
	ph.record(cl.id, t2, t2.Sub(t1), aside, ok)
}

// check runs the oracle on the response in the sink. A request/response
// pair already verified by this client is not re-derived.
func (cl *reqClient) check(cp *clientPhase, q *query) {
	h := fnv.New64a()
	h.Write([]byte(q.route))
	h.Write(cl.body)
	h.Write(cl.c.w.body)
	sum := h.Sum64()
	cp.checked++
	if cl.verified[sum] {
		return
	}
	if err := checkResponse(q, cl.c.w.body); err != nil {
		cp.mismatches++
		if cp.mismatches <= 3 {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		return
	}
	cl.verified[sum] = true
}

// evaluator returns the client's compiled evaluator for q's design and
// conditions, for the replays of requests that did not compile.
func (cl *reqClient) evaluator(q *query) (*ttmcas.Evaluator, error) {
	key := q.design + "|" + q.node + "|" + q.scenario
	if ev := cl.evals[key]; ev != nil {
		return ev, nil
	}
	d, c, err := q.resolve()
	if err != nil {
		return nil, err
	}
	ev, err := ttmcas.Compile(d, 1, c)
	if err != nil {
		return nil, err
	}
	cl.evals[key] = ev
	return ev, nil
}

// ---- job clients ----------------------------------------------------

// jobRecord is one job workflow of a traced phase.
type jobRecord struct {
	kind      string
	latency   time.Duration
	queueWait time.Duration // started − created
	run       time.Duration // finished − started
	compute   time.Duration // replayed RunShard over the full range; 0 when not replayed
	polls     int
	result    int // result response bytes
}

// jobClient drives job workflows.
type jobClient struct {
	id      int
	rng     *rand.Rand
	gen     *jobGen
	st      *stack
	c       *caller
	samples []jobSample
}

func (jc *jobClient) step(ph *phase) {
	spec := jc.gen.next()
	check := jc.rng.Intn(jobOracleEvery) == 0 && !ph.warm
	replay := jc.rng.Intn(jobReplayEvery) == 0 && ph.tr != nil
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a jobs.Spec always marshals
	}
	n := jc.st.jobNode(spec)

	var calls []span
	var rec spanFunc
	if ph.tr != nil {
		rec = func(name string, start, end time.Time) {
			calls = append(calls, span{Name: name, Start: ph.tr.ns(start), End: ph.tr.ns(end)})
		}
	}
	t0 := time.Now()
	out, err := jc.c.jobWorkflow(ph.ctx, n, body, rec)
	t1 := time.Now()
	if err != nil {
		return // the run is ending
	}
	cp := &ph.clients[jc.id]
	if !out.ok && !ph.warm && cp.failed < 3 {
		fmt.Fprintf(os.Stderr, "bench: job %s failed: status %q\n", body, out.status.Status)
	}
	var aside time.Duration
	if check && out.ok && t1.Before(ph.end) {
		jc.samples = append(jc.samples, jobSample{spec: body, result: out.result})
	}
	if ph.tr != nil && out.ok && !ph.warm && t1.Before(ph.end) {
		a := time.Now()
		cp.jobs = append(cp.jobs, traceJob(ph.tr, n, spec, out, calls, t0, t1, replay))
		aside = time.Since(a)
	}
	ph.record(jc.id, t1, t1.Sub(t0), aside, out.ok)
}

// jobNode is the node a job's calls go to: the owner of its canonical
// spec key, so status polls are answered locally instead of by a scatter
// over the peers.
func (st *stack) jobNode(spec jobs.Spec) *node {
	if st.ring == nil {
		return st.nodes[0]
	}
	key, err := server.CacheKey("POST /v1/jobs", spec)
	if err != nil {
		return st.nodes[0]
	}
	return st.byURL[st.ring.Owner(key)]
}
