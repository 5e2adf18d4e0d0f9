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
	"testing"
	"time"

	"ttmcas/internal/jobs"
)

// TestShardEndpointExecutes exercises the internal shard route
// stand-alone: a well-formed request computes and returns its partial
// result; malformed ranges map to 422 like any invalid spec.
func TestShardEndpointExecutes(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := jobs.ShardRequest{
		Job: "job-000001", Index: 1, Lo: 2, Hi: 5,
		Spec: jobs.Spec{Kind: jobs.KindMCBand, Design: "a11", Samples: 16, Seed: 9},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/internal/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res jobs.ShardResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Index != 1 || len(res.Points) != 3 || res.Evals == 0 || res.Err != "" {
		t.Fatalf("shard result = %+v", res)
	}

	req.Hi = 10_000 // outside the 16-point default curve
	body, _ = json.Marshal(req)
	resp2, err := http.Post(ts.URL+"/v1/internal/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad range: status = %d, want 422", resp2.StatusCode)
	}
}

// getBody GETs a URL and returns status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitJobDone polls a job through the given node until it reaches a
// terminal status.
func waitJobDone(t *testing.T, base, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, code, body)
		}
		var v jobs.View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status.Finished() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return jobs.View{}
}

// TestDistributedJobAcrossCluster is the end-to-end tentpole check: a
// heavy mc-band job submitted to a 3-node ring is sharded across the
// peers over /v1/internal/shards and gathers into byte-for-byte the
// result a lone node computes.
func TestDistributedJobAcrossCluster(t *testing.T) {
	spec := `{"kind":"mc-band","design":"a11","samples":256,"seed":21}`

	// Reference: the same spec on a single node, no cluster.
	solo := testServer(t, Config{})
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	code, body := postJSON(t, soloTS.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("solo submit: %d %s", code, body)
	}
	var soloView jobs.View
	if err := json.Unmarshal([]byte(body), &soloView); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, soloTS.URL, soloView.ID)
	_, soloResult := getBody(t, soloTS.URL+"/v1/jobs/"+soloView.ID+"/result")

	srvs, urls := startClusterNodes(t, 3, nil)
	code, body = postJSON(t, urls[0]+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: %d %s", code, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	fin := waitJobDone(t, urls[0], v.ID)
	if fin.Status != jobs.StatusSucceeded {
		t.Fatalf("distributed job: %s (%s)", fin.Status, fin.Error)
	}
	_, distResult := getBody(t, urls[0]+"/v1/jobs/"+v.ID+"/result")

	var soloRes, distRes JobResultResponse
	if err := json.Unmarshal([]byte(soloResult), &soloRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(distResult), &distRes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(soloRes.Result, distRes.Result) {
		t.Fatalf("distributed result differs from single-node:\nsolo: %s\ndist: %s",
			soloRes.Result, distRes.Result)
	}

	var completed uint64
	coordinator := -1
	for i, s := range srvs {
		if c := s.Metrics().ShardsCompleted(); c > 0 {
			completed += c
			coordinator = i
		}
	}
	if completed == 0 {
		t.Fatal("no shards completed remotely — the job ran single-node")
	}

	// The coordinator's exposition carries the shard series.
	var sb strings.Builder
	if _, err := srvs[coordinator].Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ttmcas_jobs_shards_dispatched_total{kind="mc-band"}`,
		`ttmcas_jobs_shards_completed_total{kind="mc-band"}`,
		"ttmcas_jobs_shard_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator exposition missing %q", want)
		}
	}
}

// TestDistributedJobSurvivesPeerKill: killing a peer's listener mid-job
// must not lose the job — dispatch failure falls back to local compute
// and the job still succeeds with full progress accounting.
func TestDistributedJobSurvivesPeerKill(t *testing.T) {
	// Inline two-node harness so the victim's listener can be torn down
	// mid-job (startClusterNodes only closes listeners at cleanup).
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, 2)
	hss := make([]*http.Server, 2)
	for i := range lns {
		srvs[i] = New(Config{
			NodeID:               fmt.Sprintf("node%d", i),
			ClusterSelfURL:       urls[i],
			ClusterPeers:         []string{urls[1-i]},
			ClusterProbeInterval: 20 * time.Millisecond,
			Logger:               log.New(io.Discard, "", 0),
			DisableAccessLog:     true,
		})
		hss[i] = &http.Server{Handler: srvs[i].Handler(), ErrorLog: log.New(io.Discard, "", 0)}
		go hss[i].Serve(lns[i])
		hs, srv := hss[i], srvs[i]
		t.Cleanup(func() { hs.Close() })
		t.Cleanup(srv.Close)
	}

	spec := `{"kind":"mc-band","design":"a11","samples":2048,"seed":4}`
	code, body := postJSON(t, urls[0]+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	// The submit may have been forwarded to the spec's ring owner; kill
	// the node that did NOT take the job.
	owner := 0
	if _, ok := srvs[0].jobs.Get(v.ID); !ok {
		owner = 1
	}
	hss[1-owner].Close()

	fin := waitJobDone(t, urls[owner], v.ID)
	if fin.Status != jobs.StatusSucceeded {
		t.Fatalf("job after peer kill: %s (%s)", fin.Status, fin.Error)
	}
	if fin.Done != fin.Total || fin.Total == 0 {
		t.Fatalf("progress after fallback = %d/%d", fin.Done, fin.Total)
	}
}

// TestMetricsJobGaugesExposed: the queue-depth and running-jobs gauges,
// both read from a scan of the job store, ride every exposition once a
// manager is attached.
func TestMetricsJobGaugesExposed(t *testing.T) {
	s := testServer(t, Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	s.Handler().ServeHTTP(rec, req)
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE ttmcas_jobs_queue_depth gauge",
		"ttmcas_jobs_queue_depth 0",
		"# TYPE ttmcas_jobs_running gauge",
		"ttmcas_jobs_running 0",
		"# TYPE ttmcas_jobs_shard_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
