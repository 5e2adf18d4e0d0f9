package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ttmcas/internal/resilience"
)

// TestHangingHealthzIsSuspected is the regression test for the probe
// client's explicit timeout: a peer that accepts /healthz connections
// and then never answers must be suspected (and evicted) within the
// configured window, not wedge the prober forever.
func TestHangingHealthzIsSuspected(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the request open until the test ends
	}))
	defer hang.Close()
	defer close(release)

	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{hang.URL},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  20 * time.Millisecond,
		SuspectAfter:  2,
		EvictAfter:    3,
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	if to := c.prober.Timeout; to != 20*time.Millisecond {
		t.Fatalf("probe client timeout = %v, want the configured ProbeTimeout", to)
	}
	waitFor(t, "hanging peer dead", func() bool {
		st := c.Stats()
		return st.Dead == 1 && st.RingNodes == 1
	})
}

// TestBreakerShortCircuitsForward: enough forward failures trip the
// peer's breaker, after which Forward fails instantly with
// ErrBreakerOpen instead of re-dialing a dead peer — and the breaker
// opening marks the peer suspect without any probe failures.
func TestBreakerShortCircuitsForward(t *testing.T) {
	p := newFakePeer(t, "n1")
	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{p.ts.URL},
		ProbeInterval: time.Hour, // no probes: forwards alone drive the breaker
		SuspectAfter:  2,
		EvictAfter:    3,
		Breaker:       resilience.BreakerConfig{ConsecutiveFailures: 3, OpenFor: time.Hour},
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	url := p.ts.URL
	p.ts.Close() // kill the listener: transport errors, not 503s
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.ForwardOpts(ctx, url, http.MethodGet, "/v1/nodes", nil, ForwardOptions{}); err == nil {
			t.Fatalf("forward %d to a closed listener succeeded", i)
		} else if errors.Is(err, resilience.ErrBreakerOpen) {
			t.Fatalf("forward %d short-circuited before the breaker tripped: %v", i, err)
		}
	}
	if got := c.breakerFor(url).State(); got != resilience.BreakerOpen {
		t.Fatalf("breaker state after 3 failures = %v, want open", got)
	}
	if _, err := c.ForwardOpts(ctx, url, http.MethodGet, "/v1/nodes", nil, ForwardOptions{}); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("tripped breaker forward err = %v, want ErrBreakerOpen", err)
	}
	st := c.Stats()
	if st.BreakerShortCircuits != 1 {
		t.Fatalf("BreakerShortCircuits = %d, want 1", st.BreakerShortCircuits)
	}
	if st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}
	if st.Suspect != 1 {
		t.Fatalf("Suspect = %d, want 1 (breaker open must mark the peer suspect)", st.Suspect)
	}
	if st.RingNodes != 2 {
		t.Fatalf("RingNodes = %d, want 2 (suspicion must not evict)", st.RingNodes)
	}
	if len(st.Breakers) != 1 || st.Breakers[0].State != resilience.BreakerOpen {
		t.Fatalf("Stats.Breakers = %+v, want one open entry", st.Breakers)
	}
	doc := c.Status()
	if len(doc.Peers) != 1 || doc.Peers[0].Breaker != "open" {
		t.Fatalf("/v1/cluster peers = %+v, want breaker \"open\"", doc.Peers)
	}
}

// TestForwardRetriesTransportError: with ForwardOptions.Retry a
// transient transport failure is retried within the budget and the
// caller sees success; the retry is counted.
func TestForwardRetriesTransportError(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Destroy the first response mid-flight: transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "true"})
	}))
	defer flaky.Close()

	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{flaky.URL},
		ProbeInterval: time.Hour,
		Retry:         resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	res, err := c.ForwardOpts(context.Background(), flaky.URL, http.MethodGet, "/x", nil,
		ForwardOptions{Retry: true})
	if err != nil {
		t.Fatalf("retried forward failed: %v", err)
	}
	if res.Status != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.Status)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one failure, one retry)", got)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

// TestForwardNoRetryWithoutOptIn: the plain Forward path — used for
// non-idempotent requests like job submits — must stay single-attempt.
func TestForwardNoRetryWithoutOptIn(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		hj := w.(http.Hijacker)
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	defer srv.Close()

	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{srv.URL},
		ProbeInterval: time.Hour,
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	if _, err := c.ForwardOpts(context.Background(), srv.URL, http.MethodPost, "/v1/jobs", []byte("{}"), ForwardOptions{}); err == nil {
		t.Fatal("forward to a resetting peer succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (no retry without opt-in)", got)
	}
}

// TestForwardRetriesShedWithRetryAfter: a 503 carrying Retry-After is
// retried (idempotent requests only), honoring the advice as a floor.
func TestForwardRetriesShedWithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"ok": "true"})
	}))
	defer srv.Close()

	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{srv.URL},
		ProbeInterval: time.Hour,
		Retry:         resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	res, err := c.ForwardOpts(context.Background(), srv.URL, http.MethodGet, "/x", nil,
		ForwardOptions{Retry: true})
	if err != nil {
		t.Fatalf("forward failed: %v", err)
	}
	if res.Status != http.StatusOK || calls.Load() != 2 {
		t.Fatalf("status %d after %d calls, want 200 after 2", res.Status, calls.Load())
	}
}

// TestPartitionHealReclosesBreaker drives the full netsplit lifecycle
// at the unit level: forwards fail until the breaker opens, then the
// peer heals and gossip probes walk the breaker closed and the peer
// back to alive — without an OpenFor cooldown wait, because probe
// successes feed the breaker directly.
func TestPartitionHealReclosesBreaker(t *testing.T) {
	p := newFakePeer(t, "n1")
	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{p.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		SuspectAfter:  2,
		EvictAfter:    3,
		Breaker:       resilience.BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Hour, CloseAfter: 2},
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	p.down.Store(true) // /healthz answers 503: probes fail, peer dies
	waitFor(t, "breaker open", func() bool {
		return c.breakerFor(p.ts.URL).State() == resilience.BreakerOpen
	})
	waitFor(t, "peer dead", func() bool { return c.Stats().Dead == 1 })

	p.down.Store(false) // heal
	waitFor(t, "breaker closed again", func() bool {
		return c.breakerFor(p.ts.URL).State() == resilience.BreakerClosed
	})
	waitFor(t, "peer alive and ring rebuilt", func() bool {
		st := c.Stats()
		return st.Alive == 2 && st.Dead == 0 && st.RingNodes == 2
	})
}

// TestRingChurnRaces hammers evict/rejoin/epoch-advance from the probe
// loops while Forward traffic, stats scrapes, and status renders are
// in flight. It exists for `go test -race` (the CI race-dist job): any
// unsynchronized access between the membership path and the forward
// path is a build failure.
func TestRingChurnRaces(t *testing.T) {
	p1, p2 := newFakePeer(t, "n1"), newFakePeer(t, "n2")
	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         []string{p1.ts.URL, p2.ts.URL},
		ProbeInterval: time.Millisecond, // churn as fast as possible
		ProbeTimeout:  50 * time.Millisecond,
		SuspectAfter:  1,
		EvictAfter:    2,
		Breaker:       resilience.BreakerConfig{ConsecutiveFailures: 2, CloseAfter: 1, OpenFor: time.Millisecond},
		Retry:         resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Flap p2 up and down: evictions, rejoins, epoch advances.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				p2.down.Store(i%2 == 0)
			}
		}
	}()

	// Forward traffic against both peers the whole time.
	for _, u := range []string{p1.ts.URL, p2.ts.URL} {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
					c.ForwardOpts(ctx, u, http.MethodGet, "/healthz", nil,
						ForwardOptions{Retry: true})
				}
			}
		}()
	}

	// Concurrent readers of every observability surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Stats()
				_ = c.Status()
				_, _ = c.Owner("some-key")
				_ = c.PeerURLs(true)
			}
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	p2.down.Store(false)
	waitFor(t, "ring reconverged after churn", func() bool {
		st := c.Stats()
		return st.Alive == 3 && st.RingNodes == 3
	})
}
