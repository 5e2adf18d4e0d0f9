package loadtest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/resilience"
	"ttmcas/internal/server"
)

// The in-process cluster harness: N full server stacks, each listening
// on a real loopback socket so peer forwards travel over actual HTTP,
// while the load generator dispatches client requests straight into the
// handlers via Config.Router. This splits the measurement the way a
// deployment splits it — client→node hops are free (we are measuring
// the serving stack, not the client's NIC), node→node hops are real.

// ClusterConfig shapes the nodes of a test cluster.
type ClusterConfig struct {
	// VNodes is the per-member virtual-node count (default
	// cluster.DefaultVNodes).
	VNodes int
	// ProbeInterval is the peer health-probe period (default 50ms —
	// test-speed convergence).
	ProbeInterval time.Duration
	// Configure, when set, adjusts each node's server config after the
	// cluster fields and the generous admission defaults are filled in
	// (fault specs, job-store sizes, ...).
	Configure func(i int, cfg *server.Config)
}

// ClusterNode is one member: the server stack plus the live listener
// peers reach it through.
type ClusterNode struct {
	Srv *server.Server
	URL string

	addr string // host:port, stable across Kill/Restart
	mu   sync.Mutex
	hs   *http.Server
	done chan struct{} // closed when the current Serve call returns
	down bool
}

// TestCluster is a set of in-process nodes sharing one hash ring.
type TestCluster struct {
	Nodes []*ClusterNode

	ring *cluster.Ring  // client-side view: all members, by URL
	idx  map[string]int // URL → node index
}

// StartCluster boots n nodes on loopback ports and returns once every
// listener accepts. Peer probing starts immediately; membership is
// optimistic (everyone starts alive), so the ring is complete from the
// first request. Admission is generous (256 cheap, 64 heavy slots per
// node): the fleet harnesses measure placement, forwarding and job
// sharding, not overload control, and a forwarded request occupies a
// slot on both nodes of its hop.
func StartCluster(n int, cfg ClusterConfig) (*TestCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("loadtest: cluster size %d", n)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}

	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("loadtest: cluster listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}

	tc := &TestCluster{
		ring: cluster.NewRing(cfg.VNodes, urls),
		idx:  make(map[string]int, n),
	}
	for i, u := range urls {
		tc.idx[u] = i
	}

	for i := range lns {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		scfg := server.Config{
			NodeID:               fmt.Sprintf("node%d", i),
			ClusterSelfURL:       urls[i],
			ClusterPeers:         peers,
			ClusterVNodes:        cfg.VNodes,
			ClusterProbeInterval: cfg.ProbeInterval,
			CheapConcurrent:      256,
			MaxConcurrent:        64,
			Logger:               log.New(io.Discard, "", 0),
			DisableAccessLog:     true,
		}
		if cfg.Configure != nil {
			cfg.Configure(i, &scfg)
		}
		node := &ClusterNode{
			Srv:  server.New(scfg),
			URL:  urls[i],
			addr: lns[i].Addr().String(),
		}
		node.serve(lns[i])
		tc.Nodes = append(tc.Nodes, node)
	}
	return tc, nil
}

// serve starts an http.Server on ln; hard-closed by Kill.
func (cn *ClusterNode) serve(ln net.Listener) {
	hs := &http.Server{Handler: cn.Srv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	cn.hs, cn.done, cn.down = hs, done, false
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
}

// Handler returns node i's in-process entry point.
func (tc *TestCluster) Handler(i int) http.Handler { return tc.Nodes[i].Srv.Handler() }

// Owner maps a request to the index of the node owning its canonical
// cache key (server.CacheKey of route and req) on the full client-side
// ring — where a placement-aware client would send it. A request with
// no key maps to node 0.
func (tc *TestCluster) Owner(route string, req any) int {
	key, err := server.CacheKey(route, req)
	if err != nil {
		return 0
	}
	return tc.idx[tc.ring.Owner(key)]
}

// Route is a Config.Router over /v1/ttm bodies: target 0 goes to the
// owner of the body's key, any other target — the misroute share — to
// the owner's successor in node order, which must forward it one hop.
// A dead node's traffic fails over to the next live one, as a real
// load balancer's would.
func (tc *TestCluster) Route(ti int, body []byte) http.Handler {
	var req server.EvalRequest
	idx := 0
	if json.Unmarshal(body, &req) == nil {
		idx = tc.Owner("POST /v1/ttm", req)
	}
	if ti > 0 {
		idx = (idx + 1) % len(tc.Nodes)
	}
	return tc.Handler(tc.NextAlive(idx))
}

// NextAlive returns i if node i is up, otherwise the next live node in
// ring order — the client-side failover a real load balancer performs.
func (tc *TestCluster) NextAlive(i int) int {
	for k := 0; k < len(tc.Nodes); k++ {
		j := (i + k) % len(tc.Nodes)
		cn := tc.Nodes[j]
		cn.mu.Lock()
		down := cn.down
		cn.mu.Unlock()
		if !down {
			return j
		}
	}
	return i
}

// Kill hard-closes node i's listener and every open connection —
// partition semantics: the server object survives (its in-flight work
// finishes into the void) but nothing can reach it, so peers watch
// their probes fail and evict it from their rings.
func (tc *TestCluster) Kill(i int) {
	cn := tc.Nodes[i]
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.down {
		return
	}
	cn.down = true
	cn.hs.Close()
	<-cn.done
}

// Restart re-listens on node i's original address; peers' next probe
// succeeds and re-admits it to their rings.
func (tc *TestCluster) Restart(i int) error {
	cn := tc.Nodes[i]
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if !cn.down {
		return nil
	}
	ln, err := net.Listen("tcp", cn.addr)
	if err != nil {
		return fmt.Errorf("loadtest: cluster restart: %w", err)
	}
	cn.serve(ln)
	return nil
}

// KillRestart kills node victim a quarter of the way into a run of
// length d and restarts it at three quarters, in the background. The
// channel yields Restart's error once the node is back. If ctx ends
// first, a pending kill is skipped and a pending restart happens at
// once, so the schedule never leaves a node down.
func (tc *TestCluster) KillRestart(ctx context.Context, victim int, d time.Duration) <-chan error {
	errc := make(chan error, 1)
	go func() {
		start := time.Now()
		wait := func(until time.Duration) bool {
			t := time.NewTimer(until - time.Since(start))
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-ctx.Done():
				return false
			}
		}
		if !wait(d / 4) {
			errc <- nil
			return
		}
		tc.Kill(victim)
		wait(3 * d / 4)
		errc <- tc.Restart(victim)
	}()
	return errc
}

// WaitConverged blocks until every live node's ring again contains
// every member (epoch-stable rejoin), or the timeout lapses. Returns
// whether convergence was observed.
func (tc *TestCluster) WaitConverged(timeout time.Duration) bool {
	return pollUntil(timeout, func() bool {
		for _, cn := range tc.Nodes {
			cn.mu.Lock()
			down := cn.down
			cn.mu.Unlock()
			if !down && cn.Srv.Cluster() != nil && cn.Srv.Cluster().Ring().Len() != len(tc.Nodes) {
				return false
			}
		}
		return true
	})
}

// WaitBreakersClosed blocks until every node's per-peer circuit
// breakers are closed, or the timeout lapses, and reports whether that
// was observed. Probe successes close a breaker whose peer answers
// within a few probe intervals.
func (tc *TestCluster) WaitBreakersClosed(timeout time.Duration) bool {
	return pollUntil(timeout, func() bool { return tc.Stats().OpenBreakers == 0 })
}

// pollUntil checks cond every 10 ms until it holds or the timeout
// lapses, and reports whether it held.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// ClusterStats sums the per-node cluster counters.
type ClusterStats struct {
	Local         uint64
	Forwarded     uint64
	ForwardErrors uint64

	// Resilience counters (summed) and the number of per-peer circuit
	// breakers currently not closed (sampled at the Stats call).
	Retries              uint64
	RetriesDenied        uint64
	BreakerShortCircuits uint64
	BreakerOpens         uint64
	BreakerTransitions   uint64
	OpenBreakers         int
}

// Stats aggregates the cluster counters across all nodes.
func (tc *TestCluster) Stats() ClusterStats {
	var agg ClusterStats
	for _, cn := range tc.Nodes {
		if cn.Srv.Cluster() == nil {
			continue
		}
		st := cn.Srv.Cluster().Stats()
		agg.Local += st.Local
		agg.Forwarded += st.Forwarded
		agg.ForwardErrors += st.ForwardErrors
		agg.Retries += st.Retries
		agg.RetriesDenied += st.RetriesDenied
		agg.BreakerShortCircuits += st.BreakerShortCircuits
		agg.BreakerOpens += st.BreakerOpens
		agg.BreakerTransitions += st.BreakerTransitions
		for _, pb := range st.Breakers {
			if pb.State != resilience.BreakerClosed {
				agg.OpenBreakers++
			}
		}
	}
	return agg
}

// Close tears the cluster down: listeners first (no new work), then the
// server stacks (probe loops, jobs, caches).
func (tc *TestCluster) Close() {
	for i := range tc.Nodes {
		tc.Kill(i)
	}
	for _, cn := range tc.Nodes {
		cn.Srv.Close()
	}
}
