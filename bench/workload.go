package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ttmcas"
	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
)

// workload is one traffic mix. BENCHMARK.json records why each exists.
type workload struct {
	name  string
	nodes int  // 1, or 3 on loopback HTTP
	jobs  bool // operations are job workflows, not single requests
}

var workloads = []workload{
	{"explore", 1, false},
	{"what-if", 1, false},
	{"studies", 1, true},
	{"cluster-fwd", 3, false},
	{"cluster-dist", 3, true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ---- the system under test -------------------------------------------

// node is one server of a stack. h is its in-process entry point;
// clustered nodes also listen on loopback, where peers reach them
// through the peer tap.
type node struct {
	id   string
	url  string
	srv  *server.Server
	h    http.Handler
	tap  *peerTap
	hs   *http.Server
	done chan struct{}
}

// stack is the system under test of one run.
type stack struct {
	nodes []*node
	ring  *cluster.Ring // client-side ring of a cluster; nil on one node
	byURL map[string]*node
}

var quiet = log.New(io.Discard, "", 0)

// startSingle builds one server with the production defaults.
func startSingle() *stack {
	srv := server.New(server.Config{Logger: quiet, DisableAccessLog: true})
	return &stack{nodes: []*node{{id: "single", srv: srv, h: srv.Handler()}}}
}

// clusterCacheBytes is the response-cache budget of each node of a
// cluster. The nodes share one process, so they split the 64 MiB that
// server.Config gives a single server by default; with 64 MiB each,
// cluster-fwd's process peaks near 1 GB of RSS and its caches take
// about 18 s to fill.
const clusterCacheBytes = 64 << 20 / 3

// startCluster builds n servers with the production defaults, but for
// the cache budget, each with its own http.Server on a loopback port,
// peered into one ring.
func startCluster(n int) (*stack, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("cluster listen: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	st := &stack{ring: cluster.NewRing(cluster.DefaultVNodes, urls), byURL: make(map[string]*node, n)}
	for i, ln := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		id := fmt.Sprintf("node%d", i)
		srv := server.New(server.Config{
			NodeID: id, ClusterSelfURL: urls[i], ClusterPeers: peers, CacheBytes: clusterCacheBytes,
			Logger: quiet, DisableAccessLog: true,
		})
		nd := &node{id: id, url: urls[i], srv: srv, h: srv.Handler(), done: make(chan struct{})}
		nd.tap = &peerTap{id: id, h: nd.h}
		nd.hs = &http.Server{Handler: nd.tap, ErrorLog: quiet}
		go func() {
			defer close(nd.done)
			// Serve returns http.ErrServerClosed once close() stops it; a
			// listener that fails earlier shows as failed requests.
			_ = nd.hs.Serve(ln)
		}()
		st.nodes = append(st.nodes, nd)
		st.byURL[nd.url] = nd
	}
	return st, nil
}

func (st *stack) setTracer(tr *tracer) {
	for _, n := range st.nodes {
		if n.tap != nil {
			n.tap.tr.Store(tr)
		}
	}
}

// close stops listeners first, then the servers, and waits for both.
func (st *stack) close() {
	for _, n := range st.nodes {
		if n.hs != nil {
			n.hs.Close()
			<-n.done
		}
	}
	for _, n := range st.nodes {
		n.srv.Close()
	}
}

// ---- inputs, set-up and clients ----------------------------------------

// inputs are a workload's seeded inputs, generated before set-up.
type inputs struct {
	queries []query       // explore: the warmed corpus; cluster-fwd: base combinations
	designs []designNodes // what-if
	cycle   []jobSlot     // job workloads
	samples map[string]int
}

func prepare(w workload, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	switch w.name {
	case "explore":
		var combos []query
		if combos, err = evaluatorCombos(); err == nil {
			in.queries, err = exploreCorpus(seed, combos)
		}
	case "what-if":
		in.designs = producingDesigns()
	case "cluster-fwd":
		in.queries, err = evaluatorCombos()
	case "studies":
		in.cycle = studiesCycle()
		in.samples = map[string]int{jobs.KindMCBand: 1024, jobs.KindSensitivity: 2048}
	case "cluster-dist":
		// 4096 samples put both kinds above the jobs manager's default
		// distribution threshold of 4096 evaluation units.
		in.cycle = distCycle()
		in.samples = map[string]int{jobs.KindMCBand: 4096, jobs.KindSensitivity: 4096}
	}
	return in, err
}

// whatIfWarm fills what-if's evaluator cache to the server's default
// capacity of 256 compiled evaluators, its steady state.
const whatIfWarm = 256

// setup builds the workload's stack and warms it to its steady state.
// The benchmark times it as setup_s.
func setup(w workload, in *inputs, seed int64) (*stack, error) {
	var st *stack
	if w.nodes == 1 {
		st = startSingle()
	} else {
		var err error
		if st, err = startCluster(w.nodes); err != nil {
			return nil, err
		}
	}
	if err := warm(w, st, in, seed); err != nil {
		st.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return st, nil
}

func warm(w workload, st *stack, in *inputs, seed int64) error {
	c := newCaller()
	send := func(n *node, q *query) error {
		if code, body := c.call(n.h, http.MethodPost, q.path(), q.appendBody(nil)); code != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", q.route, code, body)
		}
		return nil
	}
	switch w.name {
	case "explore":
		for i := range in.queries {
			if err := send(st.nodes[0], &in.queries[i]); err != nil {
				return err
			}
		}
	case "what-if":
		rng := rand.New(rand.NewSource(^seed))
		var q query
		for i := 0; i < whatIfWarm; i++ {
			nextWhatIf(rng, in.designs, &q)
			if err := send(st.nodes[0], &q); err != nil {
				return err
			}
		}
	case "cluster-fwd":
		// One request per combination compiles its evaluator on the
		// owner; the measured requests then hit it.
		for i := range in.queries {
			q := in.queries[i]
			q.route = routeTTM
			if err := send(st.nodes[i%len(st.nodes)], &q); err != nil {
				return err
			}
		}
	default:
		seen := make(map[string]bool)
		for _, slot := range in.cycle {
			if seen[slot.kind] {
				continue
			}
			seen[slot.kind] = true
			spec := slotSpec(slot, in.samples, 1, "")
			body, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			out, err := c.jobWorkflow(context.Background(), st.jobNode(spec), body, nil)
			if err != nil || !out.ok {
				return fmt.Errorf("warming %s job failed: %v", slot.kind, err)
			}
		}
	}
	return nil
}

// newClients builds the workload's closed-loop clients. Each draws from
// its own seeded stream.
func newClients(w workload, st *stack, in *inputs, seed int64) ([]stepper, []*jobClient) {
	var steppers []stepper
	var jcs []*jobClient
	for i := 0; i < clients; i++ {
		rng := clientRand(seed, i)
		if w.jobs {
			jc := &jobClient{id: i, rng: rng, gen: newJobGen(rng, seed, i, in.cycle, in.samples), st: st, c: newCaller()}
			steppers, jcs = append(steppers, jc), append(jcs, jc)
			continue
		}
		cl := &reqClient{id: i, rng: rng, st: st, c: newCaller(), evals: make(map[string]*ttmcas.Evaluator), verified: make(map[uint64]bool)}
		var seq int64
		switch w.name {
		case "explore":
			// 90% of requests revisit a warmed query, Zipf(1.1) over the
			// corpus; 10% carry a fresh chip count.
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(in.queries)-1))
			cl.next = func(q *query) int {
				*q = in.queries[zipf.Uint64()]
				if rng.Intn(10) == 0 {
					q.n = freshChips(q.n, i, seq)
					seq++
				}
				return 0
			}
		case "what-if":
			cl.compiles = true
			cl.next = func(q *query) int {
				nextWhatIf(rng, in.designs, q)
				return 0
			}
		case "cluster-fwd":
			// Placement-blind clients: the entry node is a seeded draw,
			// so about 2/3 of requests take one forward hop.
			cl.next = func(q *query) int {
				*q = in.queries[rng.Intn(len(in.queries))]
				q.route = evaluatorRoute(rng)
				q.n = freshChips(1e6, i, seq)
				seq++
				return rng.Intn(len(st.nodes))
			}
		}
		steppers = append(steppers, cl)
	}
	return steppers, jcs
}

// ---- runs ---------------------------------------------------------------

// runConfig is one run of one workload. The warmup runs for at least
// warmup and, on request workloads, on until every response cache is
// full or warmupMax has passed.
type runConfig struct {
	workload  string
	seed      int64
	measure   time.Duration
	warmup    time.Duration
	warmupMax time.Duration
	setups    int
	trace     bool
	traceDir  string
}

// measurement is one measured phase and the system counters around it.
type measurement struct {
	t             phaseTotals
	before, after metricsDoc
	allocBytes    uint64
	gcCPU, cpu    float64
	queuedMax     float64
	jobs          []jobRecord
}

func measure(ctx context.Context, w workload, st *stack, cls []stepper, d time.Duration, tr *tracer) measurement {
	var m measurement
	c := newCaller()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	m.before = st.scrape(c)
	gc0, cpu0 := cpuSeconds()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	if tr != nil {
		// The admission queue is a gauge: sample it through the phase.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newCaller()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					m.queuedMax = max(m.queuedMax, st.scrape(sc).sum("ttmcas_admission_queued"))
				}
			}
		}()
	}
	ph := newPhase(ctx, d, w.jobs, false, tr)
	runPhase(ph, cls)
	close(stop)
	wg.Wait()

	gc1, cpu1 := cpuSeconds()
	m.gcCPU, m.cpu = gc1-gc0, cpu1-cpu0
	m.after = st.scrape(c)
	runtime.ReadMemStats(&ms)
	m.allocBytes = ms.TotalAlloc - alloc0
	m.t = ph.totals()
	for i := range ph.clients {
		m.jobs = append(m.jobs, ph.clients[i].jobs...)
	}
	return m
}

// warmUp drives the clients unmeasured for cfg.warmup and, on request
// workloads, on in one-second steps until every node's response cache
// has filled to its byte budget or cfg.warmupMax has passed, so that the
// measured phase starts in the steady state: every new response is
// inserted into a full cache and evicts. Explore's and cluster-fwd's
// caches take longer than the minimum to fill, and peak RSS read before
// they are full follows the host's speed. It returns how long the
// warmup ran.
func warmUp(ctx context.Context, w workload, st *stack, cls []stepper, cfg runConfig) time.Duration {
	start := time.Now()
	runPhase(newPhase(ctx, cfg.warmup, w.jobs, true, nil), cls)
	c := newCaller()
	for !w.jobs && time.Since(start) < cfg.warmupMax && ctx.Err() == nil && !st.cachesFull(c) {
		runPhase(newPhase(ctx, time.Second, false, true, nil), cls)
	}
	return time.Since(start)
}

// runWorkload runs one workload end to end: inputs, timed set-ups,
// warmup, the measured phase (or an untraced and a traced phase), and
// the job oracle. It writes a readable report to out.
func runWorkload(ctx context.Context, cfg runConfig, out io.Writer) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	in, err := prepare(w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	var st *stack
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		if st, err = setup(w, in, cfg.seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer st.close()

	cls, jcs := newClients(w, st, in, cfg.seed)
	warmed := warmUp(ctx, w, st, cls, cfg)
	runtime.GC()
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	var res result
	var ms []measurement
	if cfg.trace {
		base := measure(ctx, w, st, cls, cfg.measure/2, nil)
		tr := newTracer()
		st.setTracer(tr)
		traced := measure(ctx, w, st, cls, cfg.measure/2, tr)
		st.setTracer(nil)
		spans := tr.finish()
		res = perLayerResult(base, traced, spans)
		path, err := writeTrace(cfg.traceDir, w.name, cfg.seed, spans)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "%s: %d spans written to %s\n", w.name, len(spans), path)
		ms = []measurement{base, traced}
	} else {
		m := measure(ctx, w, st, cls, cfg.measure, nil)
		res = endToEndResult(m, setups)
		ms = []measurement{m}
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	var samples []jobSample
	for _, jc := range jcs {
		samples = append(samples, jc.samples...)
	}
	jobMismatches, err := rerunJobs(ctx, samples)
	if err != nil {
		return result{}, err
	}
	var checked, mismatches int64
	for _, m := range ms {
		res.Attempted += m.t.attempted
		res.Failed += m.t.failed + m.t.mismatches
		checked += m.t.checked
		mismatches += m.t.mismatches
	}
	res.Failed += int64(jobMismatches)
	res.Correct = res.Failed == 0
	writeReport(out, cfg, w, res, ms, setups, warmed)
	fmt.Fprintf(out, "  attempted %d, failed %d; oracle: %d responses checked, %d mismatches; %d jobs re-run, %d mismatches\n",
		res.Attempted, res.Failed, checked, mismatches, len(samples), jobMismatches)
	if !res.Correct {
		return res, errors.New(w.name + ": failed operations or oracle mismatches")
	}
	return res, nil
}
