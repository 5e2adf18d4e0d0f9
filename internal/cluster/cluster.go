package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas/internal/metrics"
	"ttmcas/internal/resilience"
)

// ForwardHeader is the single-hop guard: a request carrying it is
// already a peer-to-peer forward and must be served locally no matter
// what the receiver's ring says, so transient ring disagreements can
// never bounce a request between nodes.
const ForwardHeader = "X-Ttmcas-Forward"

// maxForwardBody caps how much of a peer's response a forward reads.
const maxForwardBody = 16 << 20

// State is a peer's position in the health state machine.
type State int

const (
	// StateAlive peers own ring segments and receive forwards.
	StateAlive State = iota
	// StateSuspect peers have missed probes but keep their ring
	// segments — a blip should not reshuffle ownership.
	StateSuspect
	// StateDead peers are evicted from the ring; their keys rebalance
	// to the survivors until a probe succeeds again.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Health is the JSON body of /healthz — the gossip payload. A bare 200
// is not enough for membership: the node ID catches misrouted probes
// (two configs pointing at the same process), and the ring epoch lets
// operators spot nodes whose view of membership has diverged.
type Health struct {
	Status    string  `json:"status"`
	NodeID    string  `json:"node_id"`
	UptimeS   float64 `json:"uptime_s"`
	RingEpoch uint64  `json:"ring_epoch"`
}

// Options parameterize a Cluster.
type Options struct {
	// SelfID names this node in health responses and status documents.
	SelfID string
	// SelfURL is this node's advertised base URL ("http://host:port");
	// it is the node's ring identity.
	SelfURL string
	// Peers are the other members' base URLs. Peers start alive and in
	// the ring — optimistic membership converges instantly on a healthy
	// cluster and the probe loop demotes the rest.
	Peers []string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// Redirect disables server-side forwarding: ownership misses should
	// be answered with 307 redirects to the owner instead.
	Redirect bool
	// ProbeInterval is the per-peer health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default: ProbeInterval, capped at
	// 2s).
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive probe-failure count that marks a
	// peer suspect (default 2); EvictAfter the count that marks it dead
	// and evicts it from the ring (default 3).
	SuspectAfter int
	EvictAfter   int
	// Client issues forwards (default: a pooled transport).
	Client *http.Client
	// ProbeClient issues health probes. It defaults to a client sharing
	// Client's transport with an explicit Timeout of ProbeTimeout, so a
	// peer that accepts the connection and then hangs forever cannot
	// wedge a prober regardless of how the forward client is tuned.
	ProbeClient *http.Client
	// Breaker parameterizes the per-peer circuit breakers (Name and
	// OnTransition are managed by the cluster). The zero value selects
	// the resilience defaults.
	Breaker resilience.BreakerConfig
	// Retry parameterizes the forward retry budget and backoff. The
	// zero value selects the resilience defaults.
	Retry resilience.RetryPolicy
	// RetrySeed fixes the backoff jitter stream (default 1).
	RetrySeed int64
	// Logger receives membership transitions (default log.Default()).
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
		if o.ProbeTimeout > 2*time.Second {
			o.ProbeTimeout = 2 * time.Second
		}
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2
	}
	if o.EvictAfter <= o.SuspectAfter {
		o.EvictAfter = o.SuspectAfter + 1
	}
	if o.Client == nil {
		o.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
			// Forwards carry their own request contexts; this bounds
			// probes and stray calls without one.
			Timeout: 0,
		}
	}
	if o.ProbeClient == nil {
		o.ProbeClient = &http.Client{Transport: o.Client.Transport, Timeout: o.ProbeTimeout}
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// peer is the tracked state of one remote member.
type peer struct {
	url         string
	id          string // learned from its /healthz
	state       State
	failures    int
	lastProbe   time.Time
	lastOK      time.Time
	lastLatency time.Duration
	lastEpoch   uint64
	// br is the peer's circuit breaker, fed by both forwards and
	// gossip probes; an open breaker marks the peer suspect and
	// short-circuits forwards before they burn a deadline.
	br *resilience.Breaker
}

// Cluster tracks membership and routes keys. Lookups read an immutable
// ring snapshot through an atomic pointer, so the request hot path
// takes no locks.
type Cluster struct {
	opts Options
	ring atomic.Pointer[Ring]
	// epoch counts ring rebuilds; it starts at 1 so a zero epoch
	// unambiguously means "not clustered".
	epoch atomic.Uint64

	mu    sync.Mutex
	peers map[string]*peer // by URL

	// retrier is the shared forward retry budget (per request class).
	retrier *resilience.Retrier

	local         atomic.Uint64
	forwarded     atomic.Uint64
	forwardErrors atomic.Uint64
	redirected    atomic.Uint64
	probeFailures atomic.Uint64

	breakerShort       atomic.Uint64 // forwards short-circuited by an open breaker
	breakerTransitions atomic.Uint64
	breakerOpens       atomic.Uint64

	forwardLatency metrics.Histogram

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds the cluster and starts one probe goroutine per peer.
// Callers must Close it.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		opts:  opts,
		peers: make(map[string]*peer, len(opts.Peers)),
		done:  make(chan struct{}),
	}
	c.retrier = resilience.NewRetrier(opts.Retry, opts.RetrySeed)
	for _, u := range opts.Peers {
		if u == opts.SelfURL || u == "" {
			continue
		}
		if _, dup := c.peers[u]; dup {
			continue
		}
		bcfg := opts.Breaker
		bcfg.Name = u
		bcfg.OnTransition = c.onBreakerTransition
		c.peers[u] = &peer{url: u, state: StateAlive, br: resilience.NewBreaker(bcfg)}
	}
	c.rebuildLocked() // peers map is not yet shared; no lock needed, but rebuild wants it
	for u := range c.peers {
		c.wg.Add(1)
		go c.probeLoop(u)
	}
	return c
}

// Close stops the probe loops and waits for them.
func (c *Cluster) Close() {
	select {
	case <-c.done:
		return
	default:
	}
	close(c.done)
	c.wg.Wait()
}

// SelfID returns the node's configured identity.
func (c *Cluster) SelfID() string { return c.opts.SelfID }

// SelfURL returns the node's advertised base URL.
func (c *Cluster) SelfURL() string { return c.opts.SelfURL }

// Epoch returns the ring epoch: 1 at startup, +1 per membership change.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Forwarding reports whether ownership misses are forwarded
// server-side (true) or should be redirected to the owner (false).
func (c *Cluster) Forwarding() bool { return !c.opts.Redirect }

// Ring returns the current ring snapshot.
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Owner maps key to its owning member. self is true when this node
// owns the key (or the ring is somehow empty — then serving locally is
// the only correct fallback).
func (c *Cluster) Owner(key string) (url string, self bool) {
	owner := c.ring.Load().Owner(key)
	if owner == "" || owner == c.opts.SelfURL {
		return c.opts.SelfURL, true
	}
	return owner, false
}

// PeerURLs lists peer base URLs; with aliveOnly, peers currently
// believed dead are skipped. Alive and suspect peers sort first by
// state so scatter lookups try the healthiest candidates first.
func (c *Cluster) PeerURLs(aliveOnly bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for _, st := range []State{StateAlive, StateSuspect, StateDead} {
		if aliveOnly && st == StateDead {
			continue
		}
		for u, p := range c.peers {
			if p.state == st {
				out = append(out, u)
			}
		}
	}
	return out
}

// NoteLocal counts an ownership decision that stayed local.
func (c *Cluster) NoteLocal() { c.local.Add(1) }

// NoteRedirect counts an ownership miss answered with a redirect.
func (c *Cluster) NoteRedirect() { c.redirected.Add(1) }

// ForwardResult is a peer's answer to a forwarded request.
type ForwardResult struct {
	Status     int
	Body       []byte
	XCache     string
	RetryAfter string
}

// ForwardOptions select the retry behavior of one forwarded request.
type ForwardOptions struct {
	// Retry opts the request into the retry budget. Only set it for
	// idempotent requests: a connection reset (fault's reset-rate) delivers
	// the request and destroys the response, so a retried
	// non-idempotent request (a job submit) could execute twice.
	Retry bool
	// Class names the retry-budget bucket the request draws from
	// ("eval", "job", ...; default "forward"), so one misbehaving
	// request class cannot drain another's budget.
	Class string
}

// Forward sends one request to a peer with the single-hop guard header
// set and returns its response, with no retries: exactly one attempt,
// gated by the peer's circuit breaker. Idempotent callers that want
// the retry budget use ForwardOpts.
func (c *Cluster) Forward(ctx context.Context, peerURL, method, path string, body []byte) (ForwardResult, error) {
	return c.ForwardOpts(ctx, peerURL, method, path, body, ForwardOptions{})
}

// ForwardOpts forwards one request through the peer's circuit breaker
// and, when opts.Retry is set, the retry budget: transport failures
// (and 503s carrying Retry-After) are retried with full-jitter
// exponential backoff while the budget and the caller's deadline
// allow. An open breaker fails immediately with ErrBreakerOpen so the
// caller can fail over — next alive peer or local compute — without
// burning its deadline on a peer known to be unreachable. Every
// attempt's outcome feeds the breaker; a transport-level failure no
// longer bumps the gossip failure counter directly (suspicion feeds
// on breaker state instead, so one slow call cannot flap membership).
func (c *Cluster) ForwardOpts(ctx context.Context, peerURL, method, path string, body []byte, opts ForwardOptions) (ForwardResult, error) {
	br := c.breakerFor(peerURL)
	class := opts.Class
	if class == "" {
		class = "forward"
	}
	c.retrier.Attempt(class)
	for attempt := 1; ; attempt++ {
		if !br.Allow() {
			c.breakerShort.Add(1)
			return ForwardResult{}, fmt.Errorf("cluster: peer %s: %w", peerURL, resilience.ErrBreakerOpen)
		}
		res, err := c.forwardOnce(ctx, peerURL, method, path, body)
		br.Record(err == nil)
		var retryAfter time.Duration
		switch {
		case err == nil && (!opts.Retry || res.Status != http.StatusServiceUnavailable || res.RetryAfter == ""):
			return res, nil
		case err == nil:
			// A shed with explicit Retry-After advice: retryable for
			// idempotent requests, honoring the server's delay.
			retryAfter = parseRetryAfter(res.RetryAfter)
		case !opts.Retry:
			return ForwardResult{}, err
		}
		if ctx.Err() != nil || !c.retrier.AllowRetry(class, attempt) {
			if err != nil {
				return ForwardResult{}, err
			}
			return res, nil // relay the 503 when the budget is dry
		}
		timer := time.NewTimer(c.retrier.Backoff(attempt, retryAfter))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			if err != nil {
				return ForwardResult{}, err
			}
			return res, nil
		}
	}
}

// forwardOnce performs a single forward attempt.
func (c *Cluster) forwardOnce(ctx context.Context, peerURL, method, path string, body []byte) (ForwardResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peerURL+path, rd)
	if err != nil {
		return ForwardResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardHeader, c.opts.SelfID)
	began := time.Now()
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		c.forwardErrors.Add(1)
		return ForwardResult{}, fmt.Errorf("cluster: forwarding to %s: %w", peerURL, err)
	}
	b, err := readBody(resp)
	resp.Body.Close()
	if err != nil {
		c.forwardErrors.Add(1)
		return ForwardResult{}, fmt.Errorf("cluster: reading forwarded response from %s: %w", peerURL, err)
	}
	d := time.Since(began)
	c.forwarded.Add(1)
	c.forwardLatency.Record(d)
	return ForwardResult{
		Status:     resp.StatusCode,
		Body:       b,
		XCache:     resp.Header.Get("X-Cache"),
		RetryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// readBody reads a forwarded response body, capped at maxForwardBody.
// A body with a declared Content-Length is read into one buffer of that
// size; only bodies of unknown length go through io.ReadAll's growth.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxForwardBody {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
}

// parseRetryAfter reads a Retry-After header value as delay seconds
// (the only form this stack emits); unparseable values mean no floor.
func parseRetryAfter(s string) time.Duration {
	if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// breakerFor returns the peer's circuit breaker; nil (which is fully
// permissive) for URLs the cluster does not track.
func (c *Cluster) breakerFor(url string) *resilience.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.peers[url]; ok {
		return p.br
	}
	return nil
}

// BreakerState reports the named peer's breaker state (closed for
// unknown peers).
func (c *Cluster) BreakerState(url string) resilience.BreakerState {
	return c.breakerFor(url).State()
}

// onBreakerTransition is every peer breaker's transition hook: it
// keeps the aggregate counters, feeds gossip suspicion (a breaker
// opening marks its peer suspect without waiting for probe failures
// to accumulate), and chains to any caller-supplied hook.
func (c *Cluster) onBreakerTransition(url string, from, to resilience.BreakerState) {
	c.breakerTransitions.Add(1)
	if to == resilience.BreakerOpen {
		c.breakerOpens.Add(1)
		c.markSuspect(url)
	}
	c.opts.Logger.Printf("cluster: peer %s breaker %s -> %s", url, from, to)
	if c.opts.Breaker.OnTransition != nil {
		c.opts.Breaker.OnTransition(url, from, to)
	}
}

// markSuspect demotes an alive peer to suspect (keeping its ring
// segments — suspicion must not reshuffle ownership).
func (c *Cluster) markSuspect(url string) {
	c.mu.Lock()
	if p, ok := c.peers[url]; ok && p.state == StateAlive {
		p.state = StateSuspect
	}
	c.mu.Unlock()
}

// ---- membership ----------------------------------------------------

// probeLoop probes one peer's /healthz forever at the configured
// interval. One goroutine per peer keeps probes from overlapping and
// from serializing behind a slow sibling.
func (c *Cluster) probeLoop(url string) {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.probe(url)
		}
	}
}

func (c *Cluster) probe(url string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	began := time.Now()
	h, err := c.fetchHealth(ctx, url)
	// Probes bypass the breaker's admission gate (they ARE the
	// recovery detector) but always feed it: a probe success observed
	// while the breaker is open is what walks it back toward closed.
	c.breakerFor(url).Record(err == nil)
	if err != nil {
		c.probeFailures.Add(1)
		c.noteFailure(url)
		return
	}
	c.noteSuccess(url, h, time.Since(began))
}

func (c *Cluster) fetchHealth(ctx context.Context, url string) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.opts.ProbeClient.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return Health{}, fmt.Errorf("cluster: %s/healthz: status %d", url, resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("cluster: %s/healthz: %w", url, err)
	}
	return h, nil
}

// noteFailure advances one peer through the suspicion state machine.
// Only the probe loop calls it: forward failures feed the peer's
// circuit breaker instead, whose open transition marks the peer
// suspect (fast detection on the hot path) while eviction — the
// expensive, ring-reshuffling verdict — still requires EvictAfter
// consecutive probe failures.
func (c *Cluster) noteFailure(url string) {
	c.mu.Lock()
	p, ok := c.peers[url]
	if !ok {
		c.mu.Unlock()
		return
	}
	p.failures++
	p.lastProbe = time.Now()
	failures := p.failures
	var transition string
	switch {
	case p.state != StateDead && p.failures >= c.opts.EvictAfter:
		p.state = StateDead
		transition = "dead"
		c.rebuildLocked()
	case p.state == StateAlive && p.failures >= c.opts.SuspectAfter:
		p.state = StateSuspect
		transition = "suspect"
	}
	c.mu.Unlock()
	if transition != "" {
		c.opts.Logger.Printf("cluster: peer %s -> %s after %d failures (ring epoch %d)",
			url, transition, failures, c.epoch.Load())
	}
}

// noteSuccess resets a peer's probe-failure count and records what its
// health body gossiped back. Promotion to alive (and ring rejoin for
// an evicted peer) is gated on the peer's circuit breaker being
// closed: a peer whose probes answer but whose forwards still fail —
// or one healing from a partition — stays suspect until CloseAfter
// consecutive successes close the breaker, so traffic returns to it
// deliberately rather than on the first good packet.
func (c *Cluster) noteSuccess(url string, h Health, latency time.Duration) {
	c.mu.Lock()
	p, ok := c.peers[url]
	if !ok {
		c.mu.Unlock()
		return
	}
	if p.id != "" && h.NodeID != "" && p.id != h.NodeID {
		c.opts.Logger.Printf("cluster: peer %s changed identity %q -> %q (restart or misconfiguration)",
			url, p.id, h.NodeID)
	}
	p.id = h.NodeID
	p.failures = 0
	p.lastProbe = time.Now()
	p.lastOK = p.lastProbe
	p.lastLatency = latency
	p.lastEpoch = h.RingEpoch
	rejoined := false
	if p.br.State() == resilience.BreakerClosed {
		rejoined = p.state == StateDead
		p.state = StateAlive
		if rejoined {
			c.rebuildLocked()
		}
	}
	c.mu.Unlock()
	if rejoined {
		c.opts.Logger.Printf("cluster: peer %s rejoined (ring epoch %d)", url, c.epoch.Load())
	}
}

// rebuildLocked recomputes the ring from the live member set (self plus
// every non-dead peer) and bumps the epoch. Callers hold c.mu (or, in
// New, exclusive ownership of the struct).
func (c *Cluster) rebuildLocked() {
	members := make([]string, 0, len(c.peers)+1)
	members = append(members, c.opts.SelfURL)
	for u, p := range c.peers {
		if p.state != StateDead {
			members = append(members, u)
		}
	}
	c.ring.Store(NewRing(c.opts.VNodes, members))
	c.epoch.Add(1)
}

// ---- observability -------------------------------------------------

// PeerBreaker is one peer's breaker state in a Stats snapshot, for
// the per-peer ttmcas_cluster_breaker_state gauge.
type PeerBreaker struct {
	URL   string
	State resilience.BreakerState
}

// Stats is the point-in-time aggregate surfaced in /metrics.
type Stats struct {
	RingNodes     int
	Epoch         uint64
	Alive         int
	Suspect       int
	Dead          int
	Local         uint64
	Forwarded     uint64
	ForwardErrors uint64
	Redirected    uint64
	ProbeFailures uint64
	// ForwardLatency is the cluster's live histogram of successful
	// forward round trips, shared rather than copied.
	ForwardLatency *metrics.Histogram

	Retries              uint64 // forward retries admitted by the budget
	RetriesDenied        uint64 // retries refused (budget dry or attempts exhausted)
	BreakerShortCircuits uint64 // forwards refused outright by an open breaker
	BreakerTransitions   uint64
	BreakerOpens         uint64
	Breakers             []PeerBreaker // sorted by URL
}

// Stats snapshots the counters and membership tallies.
func (c *Cluster) Stats() Stats {
	rs := c.retrier.Stats()
	st := Stats{
		RingNodes:            c.ring.Load().Len(),
		Epoch:                c.epoch.Load(),
		Alive:                1, // self
		Local:                c.local.Load(),
		Forwarded:            c.forwarded.Load(),
		ForwardErrors:        c.forwardErrors.Load(),
		Redirected:           c.redirected.Load(),
		ProbeFailures:        c.probeFailures.Load(),
		Retries:              rs.Retries,
		RetriesDenied:        rs.BudgetDenied,
		BreakerShortCircuits: c.breakerShort.Load(),
		BreakerTransitions:   c.breakerTransitions.Load(),
		BreakerOpens:         c.breakerOpens.Load(),
		ForwardLatency:       &c.forwardLatency,
	}
	c.mu.Lock()
	for u, p := range c.peers {
		switch p.state {
		case StateAlive:
			st.Alive++
		case StateSuspect:
			st.Suspect++
		default:
			st.Dead++
		}
		st.Breakers = append(st.Breakers, PeerBreaker{URL: u, State: p.br.State()})
	}
	c.mu.Unlock()
	sort.Slice(st.Breakers, func(i, j int) bool { return st.Breakers[i].URL < st.Breakers[j].URL })
	return st
}

// PeerStatus is one peer's row in the /v1/cluster document.
type PeerStatus struct {
	ID          string  `json:"id,omitempty"`
	URL         string  `json:"url"`
	State       string  `json:"state"`
	Breaker     string  `json:"breaker,omitempty"`
	Failures    int     `json:"failures,omitempty"`
	LatencyMS   float64 `json:"latency_ms,omitempty"`
	LastOKAgoS  float64 `json:"last_ok_ago_s,omitempty"`
	ReportEpoch uint64  `json:"report_epoch,omitempty"`
}

// Status is the /v1/cluster response body.
type Status struct {
	Enabled    bool         `json:"enabled"`
	Self       PeerStatus   `json:"self"`
	Epoch      uint64       `json:"epoch"`
	VNodes     int          `json:"vnodes"`
	Forwarding bool         `json:"forwarding"`
	RingNodes  []string     `json:"ring_nodes"`
	Peers      []PeerStatus `json:"peers"`
	Local      uint64       `json:"local"`
	Forwarded  uint64       `json:"forwarded"`
	Redirected uint64       `json:"redirected"`
}

// Status builds the full cluster-state document.
func (c *Cluster) Status() Status {
	now := time.Now()
	st := Status{
		Enabled:    true,
		Self:       PeerStatus{ID: c.opts.SelfID, URL: c.opts.SelfURL, State: StateAlive.String()},
		Epoch:      c.epoch.Load(),
		VNodes:     c.opts.VNodes,
		Forwarding: c.Forwarding(),
		RingNodes:  c.ring.Load().Members(),
		Local:      c.local.Load(),
		Forwarded:  c.forwarded.Load(),
		Redirected: c.redirected.Load(),
	}
	c.mu.Lock()
	for _, p := range c.peers {
		ps := PeerStatus{
			ID:          p.id,
			URL:         p.url,
			State:       p.state.String(),
			Breaker:     p.br.State().String(),
			Failures:    p.failures,
			ReportEpoch: p.lastEpoch,
		}
		if !p.lastOK.IsZero() {
			ps.LatencyMS = float64(p.lastLatency.Nanoseconds()) / 1e6
			ps.LastOKAgoS = now.Sub(p.lastOK).Seconds()
		}
		st.Peers = append(st.Peers, ps)
	}
	c.mu.Unlock()
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].URL < st.Peers[j].URL })
	return st
}
