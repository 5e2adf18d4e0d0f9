package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/jobs"
)

// startClusterNodes boots n full server stacks on loopback listeners
// wired into one hash ring, returning the servers and their base URLs.
func startClusterNodes(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range lns {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			NodeID:               fmt.Sprintf("node%d", i),
			ClusterSelfURL:       urls[i],
			ClusterPeers:         peers,
			ClusterProbeInterval: 20 * time.Millisecond,
			Logger:               log.New(io.Discard, "", 0),
			DisableAccessLog:     true,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = New(cfg)
		hs := &http.Server{Handler: srvs[i].Handler(), ErrorLog: log.New(io.Discard, "", 0)}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
	}
	for _, s := range srvs {
		t.Cleanup(s.Close)
	}
	return srvs, urls
}

// bodyOwnedBy walks chip counts from start until the canonical key of a
// /v1/ttm request lands on the wanted ring member.
func bodyOwnedBy(t *testing.T, ring *cluster.Ring, owner string, start int) []byte {
	t.Helper()
	for i := start; i < start+10000; i++ {
		body := []byte(fmt.Sprintf(`{"design":"a11","node":"28nm","n":%d}`, 1000000+i))
		var req EvalRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		key, err := CacheKey("POST /v1/ttm", req)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key) == owner {
			return body
		}
	}
	t.Fatal("no key owned by " + owner)
	return nil
}

func postBody(t *testing.T, url string, body []byte, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// A request for a peer-owned key is forwarded and answered through the
// owner, marked X-Cache: FWD, and counted on both sides.
func TestClusterForwardPath(t *testing.T) {
	srvs, urls := startClusterNodes(t, 2, nil)
	body := bodyOwnedBy(t, srvs[0].Cluster().Ring(), urls[1], 0)

	resp, b := postBody(t, urls[0]+"/v1/ttm", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request = %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "FWD" {
		t.Fatalf("X-Cache = %q, want FWD", got)
	}
	if st := srvs[0].Cluster().Stats(); st.Forwarded != 1 || st.ForwardLatency.Count() != 1 {
		t.Fatalf("origin forward counters = %+v", st)
	}

	// A fresh key sent straight to its owner is served locally, not
	// forwarded. (The forwarded key above is already in the owner's
	// cache, and hits are answered before the ownership check.)
	fresh := bodyOwnedBy(t, srvs[0].Cluster().Ring(), urls[1], 50000)
	resp, b = postBody(t, urls[1]+"/v1/ttm", fresh, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") == "FWD" {
		t.Fatalf("owner-local request = %d X-Cache=%q %s", resp.StatusCode, resp.Header.Get("X-Cache"), b)
	}
	if st := srvs[1].Cluster().Stats(); st.Local == 0 {
		t.Fatal("owner did not count a local serve")
	}
}

// The guard header pins a request to the receiving node: even a
// mis-owned key is served locally, so ring disagreements cannot loop.
func TestClusterForwardGuardNoLoop(t *testing.T) {
	srvs, urls := startClusterNodes(t, 2, nil)
	body := bodyOwnedBy(t, srvs[0].Cluster().Ring(), urls[1], 0)

	hdr := http.Header{cluster.ForwardHeader: []string{"node9"}}
	resp, b := postBody(t, urls[0]+"/v1/ttm", body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("guarded request = %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got == "FWD" {
		t.Fatal("guarded request was forwarded again")
	}
	if st := srvs[0].Cluster().Stats(); st.Forwarded != 0 {
		t.Fatalf("guarded request incremented forwards: %+v", st)
	}
}

// A forward that fails in transport falls back to local compute: the
// client still gets its 200 — availability beats placement.
func TestClusterForwardFallback(t *testing.T) {
	// A listener that is immediately closed: a peer URL nothing answers.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	s := testServer(t, Config{
		NodeID:               "node0",
		ClusterSelfURL:       "http://127.0.0.1:1", // never dialed: requests come in-process
		ClusterPeers:         []string{deadURL},
		ClusterProbeInterval: time.Hour,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := bodyOwnedBy(t, s.Cluster().Ring(), deadURL, 0)
	resp, b := postBody(t, ts.URL+"/v1/ttm", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback request = %d %s", resp.StatusCode, b)
	}
	st := s.Cluster().Stats()
	if st.ForwardErrors == 0 {
		t.Fatalf("no forward error counted: %+v", st)
	}
}

// Concurrent identical requests for a hot remote key collapse into ONE
// upstream forward — the singleflight contract on the forward path.
func TestClusterSingleflightForward(t *testing.T) {
	var upstream atomic.Int64
	release := make(chan struct{})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(cluster.Health{Status: "ok", NodeID: "fake"})
			return
		}
		upstream.Add(1)
		<-release
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer fake.Close()

	s := testServer(t, Config{
		NodeID:               "node0",
		ClusterSelfURL:       "http://127.0.0.1:1",
		ClusterPeers:         []string{fake.URL},
		ClusterProbeInterval: time.Hour,
	})
	body := bodyOwnedBy(t, s.Cluster().Ring(), fake.URL, 0)

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/ttm", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	// Let every request reach the flight group before the upstream
	// answers.
	deadline := time.Now().Add(5 * time.Second)
	for upstream.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := upstream.Load(); got != 1 {
		t.Fatalf("upstream saw %d requests, want 1 (singleflight)", got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], []byte(`{"ok":true}`)) {
			t.Fatalf("request %d = %d %s", i, codes[i], bodies[i])
		}
	}
}

// /healthz gossips identity: node ID, uptime and the ring epoch.
func TestClusterHealthz(t *testing.T) {
	_, urls := startClusterNodes(t, 2, nil)
	resp, err := http.Get(urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h cluster.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.NodeID != "node0" || h.RingEpoch == 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// /v1/cluster exposes the ring and peer table; /metrics exposes the
// cluster series.
func TestClusterStatusAndMetrics(t *testing.T) {
	srvs, urls := startClusterNodes(t, 2, nil)
	body := bodyOwnedBy(t, srvs[0].Cluster().Ring(), urls[1], 0)
	postBody(t, urls[0]+"/v1/ttm", body, nil) // one forward for the counters

	var st cluster.Status
	resp, err := http.Get(urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || len(st.RingNodes) != 2 || st.Forwarded == 0 {
		t.Fatalf("cluster status = %+v", st)
	}

	mresp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ttmcas_cluster_ring_nodes 2",
		"ttmcas_cluster_forwarded_total 1",
		`ttmcas_cluster_peers{state="alive"} 1`,
		"ttmcas_cluster_forward_seconds_count 1",
		"ttmcas_cluster_retries_total 0",
		"ttmcas_cluster_retries_denied_total 0",
		"ttmcas_cluster_breaker_transitions_total 0",
		"ttmcas_cluster_breaker_opens_total 0",
		"ttmcas_cluster_breaker_short_circuits_total 0",
		fmt.Sprintf("ttmcas_cluster_breaker_state{peer=%q} 0", urls[1]),
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// Jobs route to the owner of their canonical spec key; polls through
// any node find the job via the scatter path.
func TestClusterJobRouting(t *testing.T) {
	srvs, urls := startClusterNodes(t, 2, nil)

	// Find a spec owned by node 1 by varying the seed.
	var spec []byte
	for seed := 0; seed < 10000; seed++ {
		cand := []byte(fmt.Sprintf(`{"kind":"mc-band","design":"a11","samples":8,"seed":%d}`, seed))
		var js jobs.Spec
		if err := json.Unmarshal(cand, &js); err != nil {
			t.Fatal(err)
		}
		key, err := CacheKey("POST /v1/jobs", js)
		if err != nil {
			t.Fatal(err)
		}
		if srvs[0].Cluster().Ring().Owner(key) == urls[1] {
			spec = cand
			break
		}
	}
	if spec == nil {
		t.Fatal("no spec owned by node 1")
	}

	resp, b := postBody(t, urls[0]+"/v1/jobs", spec, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via non-owner = %d %s", resp.StatusCode, b)
	}
	var view jobs.View
	if err := json.Unmarshal(b, &view); err != nil {
		t.Fatal(err)
	}
	if st := srvs[0].Cluster().Stats(); st.Forwarded == 0 {
		t.Fatal("job submission was not forwarded to the owner")
	}

	// The job lives on node 1; node 0 must find it by scattering.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gresp, err := http.Get(urls[0] + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := io.ReadAll(gresp.Body)
		gresp.Body.Close()
		if gresp.StatusCode == http.StatusOK {
			var got jobs.View
			if err := json.Unmarshal(gb, &got); err != nil || got.ID != view.ID {
				t.Fatalf("scattered job view = %s (err %v)", gb, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never visible through non-owner: %d %s", gresp.StatusCode, gb)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The scatter path receives a job ID decoded from the request path and
// must send it on escaped: otherwise "<id>%3Fx" reaches the holder as
// "<id>?x" (and "<id>%23x" as "<id>#x") and reads or deletes <id>
// itself.
func TestClusterScatterEscapesJobID(t *testing.T) {
	srvs, urls := startClusterNodes(t, 2, nil)

	// Pin the job to node 1 with the guard header, whatever the ring says.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"kind":"mc-band","design":"a11","samples":8}`))
	req.Header.Set(cluster.ForwardHeader, "test")
	w := httptest.NewRecorder()
	srvs[1].Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit on node 1 = %d %s", w.Code, w.Body)
	}
	var view jobs.View
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	waitJob(t, srvs[1], view.ID) // finished, so a DELETE would remove it

	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		for _, suffix := range []string{"%3Fx", "%23x"} {
			req, err := http.NewRequest(method, urls[0]+"/v1/jobs/"+view.ID+suffix, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s%s via the non-holder = %d %s, want 404", method, view.ID, suffix, resp.StatusCode, b)
			}
		}
	}
	code, body := doOn(t, srvs[1], http.MethodGet, "/v1/jobs", "")
	var listed []jobs.View
	if err := json.Unmarshal([]byte(body), &listed); code != http.StatusOK || err != nil {
		t.Fatalf("list on node 1 = %d %s (err %v)", code, body, err)
	}
	if len(listed) != 1 || listed[0].ID != view.ID {
		t.Fatalf("node 1 lists %s, want only job %s", body, view.ID)
	}
}
