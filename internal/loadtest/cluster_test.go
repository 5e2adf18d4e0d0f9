package loadtest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ttmcas/internal/server"
)

// postTTM sends one /v1/ttm body into h and returns the recorded reply.
func postTTM(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/ttm", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// ringSizes lists each live node's ring size.
func ringSizes(tc *TestCluster, skip int) []int {
	var out []int
	for i, cn := range tc.Nodes {
		if i != skip {
			out = append(out, cn.Srv.Cluster().Ring().Len())
		}
	}
	return out
}

func TestClusterRouteKillRestart(t *testing.T) {
	tc, err := StartCluster(3, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Target 0 lands on the key's owner, which serves it locally; the
	// misroute share lands on the owner's successor, which forwards it.
	for i := 0; i < 8; i++ {
		body := []byte(fmt.Sprintf(`{"design":"a11","node":"28nm","n":%d}`, 1000000+i))
		if rec := postTTM(tc.Route(0, body), body); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("owner-routed body %s: status %d X-Cache %q", body, rec.Code, rec.Header().Get("X-Cache"))
		}
		fwd := []byte(fmt.Sprintf(`{"design":"a11","node":"28nm","n":%d}`, 2000000+i))
		if rec := postTTM(tc.Route(1, fwd), fwd); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "FWD" {
			t.Fatalf("misrouted body %s: status %d X-Cache %q", fwd, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	if st := tc.Stats(); st.Local < 8 || st.Forwarded != 8 {
		t.Fatalf("cluster stats %+v, want >= 8 local and 8 forwarded", st)
	}

	// Kill: the peers' probes fail and they evict the node.
	victim := 2
	tc.Kill(victim)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sizes := ringSizes(tc, victim)
		if sizes[0] == 2 && sizes[1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers never evicted the killed node: ring sizes %v", sizes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tc.NextAlive(victim); got == victim {
		t.Fatalf("NextAlive(%d) = the killed node", victim)
	}

	// Restart: the node re-listens on its address and every ring
	// holds all three members again.
	if err := tc.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if !tc.WaitConverged(5 * time.Second) {
		t.Fatalf("ring did not reconverge after restart: sizes %v", ringSizes(tc, -1))
	}

	// The schedule: a short run kills and restarts; a run that ends
	// before the kill skips it. Either way the node ends up serving.
	if err := <-tc.KillRestart(context.Background(), victim, 40*time.Millisecond); err != nil {
		t.Fatalf("scheduled restart: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	restarted := tc.KillRestart(ctx, victim, time.Hour)
	cancel()
	if err := <-restarted; err != nil {
		t.Fatalf("cancelled schedule: %v", err)
	}
	if got := tc.NextAlive(victim); got != victim {
		t.Fatalf("node %d still down after its schedules ended (NextAlive = %d)", victim, got)
	}

	// A restart that cannot re-listen — the address is taken — reports
	// its error through the schedule.
	tc.Kill(victim)
	ln, err := net.Listen("tcp", tc.Nodes[victim].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := <-tc.KillRestart(context.Background(), victim, 4*time.Millisecond); err == nil {
		t.Fatal("restart onto a taken address reported no error")
	}
}

func TestJobWorkflow(t *testing.T) {
	srv := server.New(server.Config{Logger: log.New(io.Discard, "", 0), DisableAccessLog: true})
	defer srv.Close()
	h := srv.Handler()

	id, err := SubmitJob(h, []byte(`{"kind":"mc-band","design":"a11","node":"28nm","n":1e7,"samples":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := AwaitJob(h, id); err != nil {
		t.Fatalf("tiny mc-band job: %v", err)
	}

	// A job the server does not know is lost on the first poll.
	if err := AwaitJob(h, "job-999999"); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("unknown job: err = %v, want a 404 poll", err)
	}
	if _, err := SubmitJob(h, []byte(`{"kind":"nope"}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
