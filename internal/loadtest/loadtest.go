// Package loadtest is a closed-loop HTTP load generator for the
// ttmcas service: a fixed pool of workers issues requests back-to-back
// against a weighted target mix and reports throughput (RPS) and
// latency quantiles (p50/p95/p99/max) from the shared log-linear
// histogram of internal/metrics, one per worker and target, merged
// after the run. Requests dispatch straight into an http.Handler
// in-process, with no network in the path, so the numbers measure the
// serving stack itself rather than the loopback interface. The package
// also holds what every scenario of cmd/ttmcas-loadgen shares: one-shot
// dispatch (Do), the batch-job workflow (SubmitJob, AwaitJob) and the
// in-process cluster harness (StartCluster).
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas/internal/metrics"
)

// Target is one entry of the request mix.
type Target struct {
	// Name labels the target in the per-target report.
	Name string
	// Method defaults to POST when a body is configured, GET otherwise.
	Method string
	// Path is the request URI.
	Path string
	// Body is a static request body, sent verbatim on every request.
	Body []byte
	// BodyFunc, when set, builds the body per request from a globally
	// unique sequence number — the cache-busting hook. It overrides
	// Body and must be safe for concurrent use.
	BodyFunc func(seq uint64) []byte
	// Weight is the target's share of the mix (default 1).
	Weight int
}

func (t *Target) method() string {
	if t.Method != "" {
		return t.Method
	}
	if t.Body != nil || t.BodyFunc != nil {
		return http.MethodPost
	}
	return http.MethodGet
}

// Config describes one load-generation run.
type Config struct {
	// Targets is the weighted request mix; at least one is required.
	Targets []Target
	// Concurrency is the closed-loop worker count (default 8): each
	// worker has at most one request in flight at all times.
	Concurrency int
	// Duration is how long the measured phase runs (default 5s).
	Duration time.Duration
	// Handler receives every request.
	Handler http.Handler
	// Router, when set, picks the handler per request — the multi-node
	// hook: a cluster harness routes each body to the node a real
	// client would hit. It receives the target index and the request
	// body and must be safe for concurrent use. Exactly one of Handler
	// and Router must be set.
	Router func(ti int, body []byte) http.Handler
	// Seed fixes the workers' target-selection streams (default 1).
	Seed int64
	// Warmup, when set, issues every static-body target once before
	// the clock starts, so a cached-hit scenario measures only hits.
	Warmup bool
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats is the aggregate of one target (or the whole run): request
// counts by outcome plus the latency distribution of the completed
// requests.
type Stats struct {
	Requests  uint64
	Status2xx uint64
	Status4xx uint64
	Status5xx uint64
	// Shed counts deliberate load sheds: 503 responses carrying a
	// Retry-After header, as the server's admission control and fault
	// injection emit. A 5xx without Retry-After is NOT counted here —
	// the chaos gate uses that distinction to separate controlled
	// degradation from genuine failures.
	Shed uint64
	// Stale counts degraded serves: 200 responses with X-Cache: STALE.
	Stale uint64
	RPS   float64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// TargetStats pairs a target's name with its aggregate.
type TargetStats struct {
	Name string
	Stats
}

// Report is the outcome of a Run.
type Report struct {
	Concurrency int
	// Elapsed is the measured wall-clock span the RPS figures divide
	// by — the configured duration plus scheduling slack.
	Elapsed time.Duration
	Stats
	Targets []TargetStats
}

// workerStats accumulates one worker's view of one target; merged
// single-threaded after the run.
type workerStats struct {
	requests                uint64
	s2xx, s4xx, s5xx, other uint64
	shed, stale             uint64
	hist                    metrics.Histogram
}

// Run drives the configured mix for the configured duration and
// reports throughput and latency. It is closed-loop: each worker
// issues its next request only after the previous one completes, so
// measured latency feeds back into offered load. ctx cancellation
// stops the run early; the report covers what completed.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return Report{}, errors.New("loadtest: no targets configured")
	}
	if (cfg.Handler == nil) == (cfg.Router == nil) {
		return Report{}, errors.New("loadtest: exactly one of Handler and Router must be set")
	}
	totalWeight := 0
	for i := range cfg.Targets {
		w := cfg.Targets[i].Weight
		if w < 0 {
			return Report{}, fmt.Errorf("loadtest: target %q has negative weight", cfg.Targets[i].Name)
		}
		if w == 0 {
			w = 1
		}
		totalWeight += w
	}

	newSender, err := cfg.senderFactory()
	if err != nil {
		return Report{}, err
	}

	if cfg.Warmup {
		send := newSender()
		for i := range cfg.Targets {
			if t := &cfg.Targets[i]; t.BodyFunc == nil {
				send(ctx, i, t.Body)
			}
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var seq atomic.Uint64
	perWorker := make([][]workerStats, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		perWorker[w] = make([]workerStats, len(cfg.Targets))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(w+1)*0x9e3779b97f4a7c15)))
			stats := perWorker[w]
			send := newSender()
			for runCtx.Err() == nil {
				ti := pickTarget(cfg.Targets, totalWeight, rng)
				t := &cfg.Targets[ti]
				body := t.Body
				if t.BodyFunc != nil {
					body = t.BodyFunc(seq.Add(1))
				}
				began := time.Now()
				res := send(runCtx, ti, body)
				if res.status >= 500 && runCtx.Err() != nil {
					// The deadline tearing down an in-flight request is
					// the run ending, not a server failure: the expired
					// run context surfaces as the handler's own timeout
					// response.
					break
				}
				st := &stats[ti]
				st.requests++
				st.hist.Record(time.Since(began))
				switch res.status / 100 {
				case 2:
					st.s2xx++
				case 4:
					st.s4xx++
				case 5:
					st.s5xx++
				default:
					st.other++
				}
				if res.shed {
					st.shed++
				}
				if res.stale {
					st.stale++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return buildReport(cfg, perWorker, elapsed), nil
}

// pickTarget draws a target index proportional to the weights.
func pickTarget(targets []Target, totalWeight int, rng *rand.Rand) int {
	if len(targets) == 1 {
		return 0
	}
	r := rng.Intn(totalWeight)
	for i := range targets {
		w := targets[i].Weight
		if w == 0 {
			w = 1
		}
		if r -= w; r < 0 {
			return i
		}
	}
	return len(targets) - 1
}

func buildReport(cfg Config, perWorker [][]workerStats, elapsed time.Duration) Report {
	rep := Report{Concurrency: cfg.Concurrency, Elapsed: elapsed}
	secs := elapsed.Seconds()
	var total workerStats
	for ti := range cfg.Targets {
		var agg workerStats
		for w := range perWorker {
			s := &perWorker[w][ti]
			agg.requests += s.requests
			agg.s2xx += s.s2xx
			agg.s4xx += s.s4xx
			agg.s5xx += s.s5xx
			agg.shed += s.shed
			agg.stale += s.stale
			agg.hist.Merge(&s.hist)
		}
		rep.Targets = append(rep.Targets, TargetStats{
			Name:  cfg.Targets[ti].Name,
			Stats: agg.stats(secs),
		})
		total.requests += agg.requests
		total.s2xx += agg.s2xx
		total.s4xx += agg.s4xx
		total.s5xx += agg.s5xx
		total.shed += agg.shed
		total.stale += agg.stale
		total.hist.Merge(&agg.hist)
	}
	rep.Stats = total.stats(secs)
	return rep
}

func (s *workerStats) stats(secs float64) Stats {
	out := Stats{
		Requests:  s.requests,
		Status2xx: s.s2xx,
		Status4xx: s.s4xx,
		Status5xx: s.s5xx,
		Shed:      s.shed,
		Stale:     s.stale,
		P50:       s.hist.Quantile(0.50),
		P95:       s.hist.Quantile(0.95),
		P99:       s.hist.Quantile(0.99),
		Max:       s.hist.Max(),
	}
	if secs > 0 {
		out.RPS = float64(s.requests) / secs
	}
	return out
}

// sendResult is the per-request outcome a sender observes: the HTTP
// status plus the degradation markers the serving stack advertises in
// headers.
type sendResult struct {
	status int
	shed   bool // 503 with Retry-After: deliberate admission shed
	stale  bool // X-Cache: STALE: degraded serve from a retained body
}

// classify fills the degradation markers from a response's headers.
func classify(status int, h http.Header) sendResult {
	return sendResult{
		status: status,
		shed:   status == http.StatusServiceUnavailable && h.Get("Retry-After") != "",
		stale:  h.Get("X-Cache") == "STALE",
	}
}

// sendFunc issues one request for target index ti and reports the
// outcome. A sendFunc is owned by one worker and must not be shared.
type sendFunc func(ctx context.Context, ti int, body []byte) sendResult

// senderFactory validates the targets once and returns a constructor
// for per-worker senders. A sender dispatches straight into the handler
// on the worker's goroutine — no sockets, no response serialization
// beyond what the handler itself does. Each worker reuses pre-parsed
// request templates and a response sink, so the generator's own
// overhead stays a small, constant fraction of the measured request.
func (c Config) senderFactory() (func() sendFunc, error) {
	route := c.Router
	if route == nil {
		h := c.Handler
		route = func(int, []byte) http.Handler { return h }
	}
	urls := make([]*url.URL, len(c.Targets))
	for i := range c.Targets {
		u, err := url.Parse("http://loadtest.invalid" + c.Targets[i].Path)
		if err != nil {
			return nil, fmt.Errorf("loadtest: target %q: %w", c.Targets[i].Name, err)
		}
		urls[i] = u
	}
	return func() sendFunc {
		w := &discardResponseWriter{header: make(http.Header, 8)}
		reqs := make([]*http.Request, len(c.Targets))
		readers := make([]*bytes.Reader, len(c.Targets))
		for i := range c.Targets {
			reqs[i] = &http.Request{
				Method:     c.Targets[i].method(),
				URL:        urls[i],
				Proto:      "HTTP/1.1",
				ProtoMajor: 1,
				ProtoMinor: 1,
				Header:     http.Header{"Content-Type": {"application/json"}},
				Host:       urls[i].Host,
			}
			readers[i] = &bytes.Reader{}
		}
		return func(ctx context.Context, ti int, body []byte) sendResult {
			req := reqs[ti]
			if body != nil {
				readers[ti].Reset(body)
				req.Body = io.NopCloser(readers[ti])
				req.ContentLength = int64(len(body))
			} else {
				req.Body = nil
				req.ContentLength = 0
			}
			w.reset()
			route(ti, body).ServeHTTP(w, req.WithContext(ctx))
			return classify(w.status(), w.header)
		}
	}, nil
}

// discardResponseWriter counts the response away: headers are kept (a
// handler may legitimately read them back) but body bytes are dropped.
type discardResponseWriter struct {
	header http.Header
	code   int
}

func (w *discardResponseWriter) Header() http.Header { return w.header }

func (w *discardResponseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardResponseWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardResponseWriter) reset() {
	w.code = 0
	for k := range w.header {
		delete(w.header, k)
	}
}

func (w *discardResponseWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Do issues one request straight into h, with no network in the path,
// and returns the response status and body. A non-nil body is sent as
// JSON.
func Do(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// ErrJobsFull is SubmitJob's error for a 429: the server's job store
// is full. It is backpressure, not loss — the job was never accepted.
var ErrJobsFull = errors.New("loadtest: job store full (429)")

// jobTimeout bounds how long AwaitJob waits for a job to finish.
const jobTimeout = 30 * time.Second

// SubmitJob posts a batch-job spec to h's /v1/jobs and returns the
// accepted job's ID.
func SubmitJob(h http.Handler, spec []byte) (string, error) {
	code, body := Do(h, http.MethodPost, "/v1/jobs", spec)
	if code == http.StatusTooManyRequests {
		return "", ErrJobsFull
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("job submit: status %d: %s", code, bytes.TrimSpace(body))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("job submit: %w", err)
	}
	return v.ID, nil
}

// AwaitJob polls job id through h until it finishes, then fetches its
// result. It returns nil only for a job that succeeded and whose
// result h serves; any other outcome — a poll that does not answer
// 200, a failed or cancelled job, a job still unfinished after 30 s —
// is a lost job, and the error says which.
func AwaitJob(h http.Handler, id string) error {
	deadline := time.Now().Add(jobTimeout)
	for {
		code, body := Do(h, http.MethodGet, "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			return fmt.Errorf("job %s poll: status %d: %s", id, code, bytes.TrimSpace(body))
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("job %s poll: %w", id, err)
		}
		switch v.Status {
		case "succeeded":
			if code, body = Do(h, http.MethodGet, "/v1/jobs/"+id+"/result", nil); code != http.StatusOK {
				return fmt.Errorf("job %s result: status %d: %s", id, code, bytes.TrimSpace(body))
			}
			return nil
		case "pending", "running":
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after %s", id, v.Status, jobTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		default:
			return fmt.Errorf("job %s finished %s: %s", id, v.Status, bytes.TrimSpace(body))
		}
	}
}
