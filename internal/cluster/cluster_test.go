package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is a /healthz endpoint whose availability the test controls.
type fakePeer struct {
	id   string
	down atomic.Bool
	ts   *httptest.Server
}

func newFakePeer(t *testing.T, id string) *fakePeer {
	t.Helper()
	p := &fakePeer{id: id}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(Health{Status: "ok", NodeID: p.id, RingEpoch: 1})
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func testCluster(t *testing.T, peers ...*fakePeer) *Cluster {
	t.Helper()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.ts.URL
	}
	c := New(Options{
		SelfID:        "self",
		SelfURL:       "http://self.test:0",
		Peers:         urls,
		ProbeInterval: 10 * time.Millisecond,
		SuspectAfter:  2,
		EvictAfter:    3,
		Logger:        log.New(io.Discard, "", 0),
	})
	t.Cleanup(c.Close)
	return c
}

// waitFor polls until cond holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The membership lifecycle: optimistic start, suspicion on failures,
// eviction with ring rebalance, rejoin on recovery.
func TestGossipLifecycle(t *testing.T) {
	p1, p2 := newFakePeer(t, "n1"), newFakePeer(t, "n2")
	c := testCluster(t, p1, p2)

	// Optimistic membership: the full ring exists before any probe.
	if got := c.Ring().Len(); got != 3 {
		t.Fatalf("initial ring has %d members, want 3", got)
	}
	if c.Epoch() == 0 {
		t.Fatal("clustered epoch must start above zero")
	}
	epoch0 := c.Epoch()

	// Kill p2: consecutive probe failures must walk it suspect → dead
	// and shrink the ring; suspicion alone must NOT reshuffle keys.
	p2.down.Store(true)
	waitFor(t, "p2 suspect", func() bool {
		return c.Stats().Suspect == 1 && c.Stats().RingNodes == 3
	})
	waitFor(t, "p2 dead", func() bool { return c.Stats().Dead == 1 })
	if got := c.Ring().Len(); got != 2 {
		t.Fatalf("ring has %d members after eviction, want 2", got)
	}
	if c.Epoch() <= epoch0 {
		t.Fatal("eviction must advance the ring epoch")
	}

	// Every key must now be owned by a survivor.
	for _, k := range keys(200) {
		if owner, _ := c.Owner(k); owner == p2.ts.URL {
			t.Fatalf("evicted peer still owns key %q", k)
		}
	}

	// Revive p2: one successful probe re-admits it.
	p2.down.Store(false)
	waitFor(t, "p2 rejoin", func() bool {
		st := c.Stats()
		// Alive counts self, so a fully healed 3-member ring reads 3.
		return st.Alive == 3 && st.Dead == 0 && st.RingNodes == 3
	})
	if c.Stats().ProbeFailures == 0 {
		t.Error("probe failures were not counted")
	}
}

// Forward carries the single-hop guard header, relays status and body,
// and maintains the latency summary; transport failures count and
// surface as errors so callers can fall back to local compute.
func TestForward(t *testing.T) {
	var gotGuard atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(Health{Status: "ok", NodeID: "n1"})
			return
		}
		gotGuard.Store(r.Header.Get(ForwardHeader))
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Cache", "HIT")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	defer peer.Close()

	c := New(Options{
		SelfID: "self", SelfURL: "http://self.test:0",
		Peers:         []string{peer.URL},
		ProbeInterval: time.Hour, // probes stay out of the way
		Logger:        log.New(io.Discard, "", 0),
	})
	defer c.Close()

	res, err := c.Forward(context.Background(), peer.URL, http.MethodPost, "/v1/ttm", []byte(`{"n":1}`))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if res.Status != http.StatusOK || string(res.Body) != `{"n":1}` || res.XCache != "HIT" {
		t.Fatalf("Forward relay = %d %q xcache=%q", res.Status, res.Body, res.XCache)
	}
	if guard, _ := gotGuard.Load().(string); guard == "" {
		t.Fatal("forwarded request did not carry the guard header")
	}
	st := c.Stats()
	if st.Forwarded != 1 || st.ForwardLatency.Count() != 1 || st.ForwardLatency.Sum() <= 0 {
		t.Fatalf("forward counters = %+v", st)
	}

	// Transport failure: a closed peer yields an error and a counter,
	// not a relayed response.
	peer.Close()
	if _, err := c.Forward(context.Background(), peer.URL, http.MethodPost, "/v1/ttm", nil); err == nil {
		t.Fatal("Forward to a closed peer must fail")
	}
	if st := c.Stats(); st.ForwardErrors != 1 {
		t.Fatalf("forward errors = %d, want 1", st.ForwardErrors)
	}
}

// A peer whose /healthz answers with an unexpected node ID is still
// tracked (identity is informational), and the status document reflects
// learned IDs and states.
func TestStatusDocument(t *testing.T) {
	p1 := newFakePeer(t, "n1")
	c := testCluster(t, p1)
	waitFor(t, "id learned", func() bool {
		for _, p := range c.Status().Peers {
			if p.ID == "n1" && p.State == "alive" {
				return true
			}
		}
		return false
	})
	st := c.Status()
	if !st.Enabled || st.Self.ID != "self" || len(st.Peers) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Epoch == 0 || len(st.RingNodes) != 2 {
		t.Fatalf("status ring = epoch %d members %v", st.Epoch, st.RingNodes)
	}
}
