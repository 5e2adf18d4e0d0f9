package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas"
	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
)

// The traced run. Spans are recorded from the benchmark's own code,
// around calls into each layer's public functions; the program under
// test carries no tracing hooks. A span's children are either real
// calls (job workflow HTTP calls, the peer side of a forward or a shard
// dispatch) or replays: right after a traced request the client calls
// the layer functions the request went through again, on the same
// input, and times each one. A replayed child measures how long the
// call takes, not when it ran, so replays are laid out back to back
// from the start of the span they belong to.

// traceEvery and jobReplayEvery set the traced run's sampling: 1 in 64
// requests is traced, every job workflow records its spans, and 1 in 4
// jobs has its compute replayed.
const (
	traceEvery     = 64
	jobReplayEvery = 4
)

// span is one timed interval of a traced run. Times are nanoseconds
// since the traced phase began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Node   string `json:"node,omitempty"`  // cluster.peer: the node that served it
	Kind   string `json:"kind,omitempty"`  // job spans: the job kind
	Shard  int    `json:"shard,omitempty"` // cluster.peer of a shard: its index
	Bytes  int    `json:"bytes,omitempty"` // cluster.peer: response bytes
	link   string // cluster.peer of a shard: "<coordinator>|<job>", resolved at the end
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced phase's spans in memory.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	fwd    sync.Map // canonical key → *traceLink of a traced request in flight

	mu     sync.Mutex
	spans  []span
	jobOps map[string]uint64 // "<coordinator>|<job>" → op span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), jobOps: make(map[string]uint64)}
}

func (t *tracer) id() uint64                    { return t.ids.Add(1) }
func (t *tracer) ns(at time.Time) int64         { return at.Sub(t.origin).Nanoseconds() }
func (t *tracer) add(spans ...span)             { t.mu.Lock(); t.spans = append(t.spans, spans...); t.mu.Unlock() }
func (t *tracer) linkJob(key string, op uint64) { t.mu.Lock(); t.jobOps[key] = op; t.mu.Unlock() }

// finish resolves shard spans to their jobs' op spans and returns every
// span in start order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.link != "" {
			s.Parent = t.jobOps[s.link]
		}
	}
	slices.SortFunc(t.spans, func(a, b span) int { return int(a.Start - b.Start) })
	return t.spans
}

// traceLink ties a traced request to the peer that serves it when its
// entry node forwards it.
type traceLink struct {
	key         string // canonical cache key; "" on a single node
	op, handler uint64
	peer        atomic.Pointer[span]
}

// peerTap wraps a cluster node's handler behind its listener, so the
// node-to-node calls of a traced phase become cluster.peer spans. A
// forwarded request is linked to its traced entry request by its
// canonical cache key (server.CacheKey), a shard by the coordinator, job
// and index of its ShardRequest.
type peerTap struct {
	id string
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (p *peerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := p.tr.Load()
	sender := r.Header.Get(cluster.ForwardHeader)
	if tr == nil || sender == "" || r.Method != http.MethodPost {
		p.h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		p.h.ServeHTTP(w, r)
		return
	}
	s := span{Name: "cluster.peer", Node: p.id}
	var l *traceLink
	switch r.URL.Path {
	case "/v1/internal/shards":
		var sr jobs.ShardRequest
		if json.Unmarshal(body, &sr) == nil {
			s.link, s.Shard = sender+"|"+sr.Job, sr.Index
		}
	case "/v1/ttm", "/v1/cas", "/v1/cost":
		// A forward carries the canonical JSON of its cache key verbatim,
		// so the key is rebuilt without decoding every forwarded body.
		if v, ok := tr.fwd.Load("POST " + r.URL.Path + "|" + string(body)); ok {
			l = v.(*traceLink)
		}
	}
	if l == nil && s.link == "" {
		p.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	p.h.ServeHTTP(cw, r)
	s.ID, s.Start, s.End, s.Bytes = tr.id(), tr.ns(start), tr.ns(time.Now()), cw.n
	if l != nil {
		s.Parent = l.handler
		l.peer.Store(&s)
	}
	tr.add(s)
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// decodeStrict decodes a request body the way the server does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// timed is one replayed call.
type timed struct {
	name string
	d    time.Duration
}

func timeCall(name string, f func()) timed {
	t := time.Now()
	f()
	return timed{name, time.Since(t)}
}

// layout places replayed calls under parent, back to back from its
// start.
func layout(tr *tracer, parent span, calls []timed) []span {
	out := make([]span, 0, len(calls))
	at := parent.Start
	for _, c := range calls {
		out = append(out, span{ID: tr.id(), Parent: parent.ID, Name: c.name, Start: at, End: at + c.d.Nanoseconds()})
		at += c.d.Nanoseconds()
	}
	return out
}

// replayer is a request client's replay state.
type replayer struct {
	enc     bytes.Buffer
	encoder *json.Encoder
}

// begin prepares a traced request: on a cluster it registers the
// request's canonical key so the owner's peer tap can link its span.
func (rp *replayer) begin(tr *tracer, st *stack, q *query) *traceLink {
	l := &traceLink{op: tr.id(), handler: tr.id()}
	if len(st.nodes) > 1 {
		var req server.EvalRequest
		if decodeStrict(q.appendBody(nil), &req) == nil {
			if key, err := server.CacheKey(q.route, req); err == nil {
				l.key = key
				tr.fwd.Store(key, l)
			}
		}
	}
	return l
}

// finish records a traced request: the op span (input generation
// through reply, from t0 to t2), the entry node's handler span (t1 to
// t2), and the replays. Every request replays decode and cache-key
// construction (plus ring ownership on a cluster); a request that was
// computed (X-Cache MISS, or FWD on the owner) also replays compile
// (only when the request compiled), the kernel and the response
// encoding, under the span of the node that computed it.
func (rp *replayer) finish(tr *tracer, l *traceLink, cl *reqClient, n *node, t0, t1, t2 time.Time, ok bool) {
	if l.key != "" {
		tr.fwd.Delete(l.key)
	}
	op := span{ID: l.op, Name: "op", Start: tr.ns(t0), End: tr.ns(t2)}
	h := span{ID: l.handler, Parent: l.op, Name: "server.handler", Start: tr.ns(t1), End: tr.ns(t2)}
	spans := []span{op, h}
	if !ok {
		tr.add(spans...)
		return
	}
	q := &cl.q
	var req server.EvalRequest
	var key string
	calls := []timed{
		timeCall("server.decode", func() { decodeStrict(cl.body, &req) }),
		timeCall("server.cache_key", func() { key, _ = server.CacheKey(q.route, req) }),
	}
	if c := n.srv.Cluster(); c != nil {
		calls = append(calls, timeCall("cluster.ring_owner", func() { c.Owner(key) }))
	}
	switch xc := cl.c.w.header.Get("X-Cache"); {
	case xc == "MISS":
		calls = append(calls, rp.compute(cl, q, cl.c.w.body)...)
	case xc == "FWD":
		if peer := l.peer.Load(); peer != nil {
			spans = append(spans, layout(tr, *peer, rp.compute(cl, q, cl.c.w.body))...)
		}
	}
	tr.add(append(spans, layout(tr, h, calls)...)...)
}

// compute replays the computation behind a response-cache miss.
func (rp *replayer) compute(cl *reqClient, q *query, resp []byte) []timed {
	var out []timed
	if q.route != routeCost {
		var ev *ttmcas.Evaluator
		var err error
		if cl.compiles {
			d, c, rerr := q.resolve()
			if rerr != nil {
				return nil
			}
			out = append(out, timeCall("core.compile", func() { ev, err = ttmcas.Compile(d, 1, c) }))
		} else {
			ev, err = cl.evaluator(q)
		}
		if err != nil {
			return nil
		}
		if q.route == routeTTM {
			out = append(out, timeCall("core.eval", func() { ev.EvalResultChips(ttmcas.Perturbation{}, q.n) }))
		} else {
			out = append(out, timeCall("core.cas", func() {
				ev.CASResultChips(ttmcas.Perturbation{}, q.n)
				if q.curve {
					for _, f := range casCurve {
						ev.EvalChipsAtCapacity(ttmcas.Perturbation{}, q.n, f)
						ev.CASChipsAtCapacity(ttmcas.Perturbation{}, q.n, f)
					}
				}
			}))
		}
	}
	var v any
	switch q.route {
	case routeTTM:
		v = new(server.TTMResponse)
	case routeCAS:
		v = new(server.CASResponse)
	default:
		v = new(server.CostResponse)
	}
	if json.Unmarshal(resp, v) == nil {
		if rp.encoder == nil {
			rp.encoder = json.NewEncoder(&rp.enc)
		}
		rp.enc.Reset()
		out = append(out, timeCall("server.encode", func() { rp.encoder.Encode(v) }))
	}
	return out
}

// traceJob records a job workflow of a traced phase: the op span, its
// HTTP calls, and for replayed jobs jobs.RunShard over the spec's full
// shard range, the compute a single node does for the job.
func traceJob(tr *tracer, n *node, spec jobs.Spec, out jobOutcome, calls []span, t0, t1 time.Time, replay bool) jobRecord {
	op := span{ID: tr.id(), Name: "op", Kind: spec.Kind, Start: tr.ns(t0), End: tr.ns(t1)}
	for i := range calls {
		calls[i].ID, calls[i].Parent = tr.id(), op.ID
	}
	rec := jobRecord{kind: spec.Kind, latency: t1.Sub(t0), polls: out.polls, result: out.resultBytes}
	if st := out.status; st.Started != nil && st.Finished != nil {
		rec.queueWait, rec.run = st.Started.Sub(st.Created), st.Finished.Sub(*st.Started)
	}
	spans := append(calls, op)
	if replay {
		req := jobs.ShardRequest{Job: out.status.ID, Hi: shardSpace(spec), Spec: spec}
		start := time.Now()
		_, err := jobs.RunShard(context.Background(), jobs.Limits{}, req, nil)
		if d := time.Since(start); err == nil {
			rec.compute = d
			spans = append(spans, span{ID: tr.id(), Parent: op.ID, Name: "jobs.compute", Kind: spec.Kind,
				Start: op.Start, End: op.Start + d.Nanoseconds()})
		}
	}
	tr.linkJob(n.id+"|"+out.status.ID, op.ID)
	tr.add(spans...)
	return rec
}

// shardSpace is the size of a spec's shard index space as the jobs
// package splits it: the curve's x-positions for mc-band (16 by
// default), the N·(k+2) Saltelli evaluations for sensitivity, the
// producing-node × quantity grid for sweep, the episode's steps for
// timeline.
func shardSpace(s jobs.Spec) int {
	switch s.Kind {
	case jobs.KindMCBand:
		return 16
	case jobs.KindSensitivity:
		return s.Samples * (len(ttmcas.SensitivityInputs()) + 2)
	case jobs.KindSweep:
		return len(ttmcas.ProducingNodes()) * len(s.Quantities)
	case jobs.KindTimeline:
		ep, _ := ttmcas.FindTimelineEpisode(s.Episode)
		return ep.Spec.StepCount()
	}
	return 0
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		var covered, at int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], at), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// traceFile is the JSON written for a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Spans: spans}); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
