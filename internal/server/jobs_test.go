package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ttmcas/internal/jobs"
)

// doOn runs one request against an existing server.
func doOn(t *testing.T, s *Server, method, path, body string) (int, string) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func submitJob(t *testing.T, s *Server, spec string) jobs.View {
	t.Helper()
	status, body := doOn(t, s, "POST", "/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	var v jobs.View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitJob(t *testing.T, s *Server, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, body := doOn(t, s, "GET", "/v1/jobs/"+id, "")
		if status != http.StatusOK {
			t.Fatalf("get %s: status %d, body %s", id, status, body)
		}
		var v jobs.View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status.Finished() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.View{}
}

func TestJobsEndToEnd(t *testing.T) {
	s := testServer(t, Config{})

	v := submitJob(t, s, `{"kind":"mc-band","design":"a11","node":"28nm","samples":16,"seed":7}`)
	if v.Status != jobs.StatusPending || v.Kind != "mc-band" {
		t.Fatalf("submit view = %+v", v)
	}

	// Fetching the result before it finishes is a 409.
	if status, _ := doOn(t, s, "GET", "/v1/jobs/"+v.ID+"/result", ""); status != http.StatusOK && status != http.StatusConflict {
		t.Fatalf("early result: status %d", status)
	}

	fin := waitJob(t, s, v.ID)
	if fin.Status != jobs.StatusSucceeded {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	if fin.Done != fin.Total || fin.Total == 0 {
		t.Fatalf("progress = %d/%d", fin.Done, fin.Total)
	}

	status, body := doOn(t, s, "GET", "/v1/jobs/"+v.ID+"/result", "")
	if status != http.StatusOK {
		t.Fatalf("result: status %d, body %s", status, body)
	}
	var res JobResultResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != jobs.StatusSucceeded || len(res.Result) == 0 {
		t.Fatalf("result response = %+v", res)
	}
	var band struct {
		Points []struct {
			X float64 `json:"x"`
		} `json:"points"`
	}
	if err := json.Unmarshal(res.Result, &band); err != nil {
		t.Fatal(err)
	}
	if len(band.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(band.Points))
	}

	// The job shows up in the listing.
	status, body = doOn(t, s, "GET", "/v1/jobs", "")
	if status != http.StatusOK || !strings.Contains(body, v.ID) {
		t.Fatalf("list: status %d, body %s", status, body)
	}

	// Metrics reflect the lifecycle.
	m := s.Metrics()
	if m.JobsSubmitted() != 1 || m.JobsFinished(jobs.StatusSucceeded) != 1 {
		t.Fatalf("job metrics: submitted %d, succeeded %d", m.JobsSubmitted(), m.JobsFinished(jobs.StatusSucceeded))
	}
	if m.JobEvaluations() != fin.Total {
		t.Fatalf("job evaluations = %d, want %d", m.JobEvaluations(), fin.Total)
	}
	status, body = doOn(t, s, "GET", "/metrics", "")
	if status != http.StatusOK || !strings.Contains(body, `ttmcas_jobs_submitted_total{kind="mc-band"} 1`) {
		t.Fatalf("metrics exposition missing job series: %d\n%s", status, body)
	}

	// DELETE removes a finished job.
	if status, body = doOn(t, s, "DELETE", "/v1/jobs/"+v.ID, ""); status != http.StatusOK {
		t.Fatalf("delete: status %d, body %s", status, body)
	}
	if status, _ = doOn(t, s, "GET", "/v1/jobs/"+v.ID, ""); status != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", status)
	}
}

func TestJobCancelViaDelete(t *testing.T) {
	s := testServer(t, Config{})

	// A CAS curve at the sample cap keeps the compiled kernel busy long
	// enough that the cancel lands while the job is still running.
	v := submitJob(t, s, `{"kind":"mc-band","design":"a11","metric":"cas","samples":8192,"seed":1}`)
	// Cancel as soon as it is running.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, _ := s.Jobs().Get(v.ID)
		if got.Status == jobs.StatusRunning {
			break
		}
		if got.Status.Finished() {
			t.Fatalf("job finished (%s) before it could be cancelled", got.Status)
		}
		time.Sleep(time.Millisecond)
	}
	status, body := doOn(t, s, "DELETE", "/v1/jobs/"+v.ID, "")
	if status != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", status, body)
	}
	fin := waitJob(t, s, v.ID)
	if fin.Status != jobs.StatusCancelled {
		t.Fatalf("status = %s, want cancelled", fin.Status)
	}
}

// TestJobCancelledWhileQueuedCountsAsFinished: with one worker, a job
// cancelled while still queued is finished by the cancel itself and
// never reaches a worker; /metrics must still count it as a cancelled
// finish, and the running gauge must return to zero.
func TestJobCancelledWhileQueuedCountsAsFinished(t *testing.T) {
	s := testServer(t, Config{JobWorkers: 1})
	spec := `{"kind":"mc-band","design":"a11","metric":"cas","samples":8192,"seed":%d}`
	running := submitJob(t, s, fmt.Sprintf(spec, 1))
	queued := submitJob(t, s, fmt.Sprintf(spec, 2))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, _ := s.Jobs().Get(running.ID)
		if got.Status == jobs.StatusRunning {
			break
		}
		if got.Status.Finished() {
			t.Fatalf("job finished (%s) before it could be cancelled", got.Status)
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if status, body := doOn(t, s, "DELETE", "/v1/jobs/"+id, ""); status != http.StatusOK {
			t.Fatalf("cancel %s: status %d, body %s", id, status, body)
		}
	}
	for _, id := range []string{queued.ID, running.ID} {
		if fin := waitJob(t, s, id); fin.Status != jobs.StatusCancelled {
			t.Fatalf("%s status = %s, want cancelled", id, fin.Status)
		}
	}
	_, out := doOn(t, s, "GET", "/metrics", "")
	for _, want := range []string{
		`ttmcas_jobs_submitted_total{kind="mc-band"} 2`,
		`ttmcas_jobs_finished_total{kind="mc-band",status="cancelled"} 2`,
		"ttmcas_jobs_running 0\n",
		"ttmcas_jobs_queue_depth 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestJobValidationAndLimits(t *testing.T) {
	s := testServer(t, Config{})

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"kind":"nope","design":"a11"}`, http.StatusUnprocessableEntity},
		{`{"kind":"mc-band"}`, http.StatusUnprocessableEntity},
		{`{"kind":"mc-band","design":"a11","samples":100000}`, http.StatusUnprocessableEntity},
		{`{"kind":"mc-band","design":"a11","unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		if status, body := doOn(t, s, "POST", "/v1/jobs", tc.body); status != tc.want {
			t.Errorf("POST %s: status %d, body %s, want %d", tc.body, status, body, tc.want)
		}
	}

	if status, _ := doOn(t, s, "GET", "/v1/jobs/job-424242", ""); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", status)
	}
	if status, _ := doOn(t, s, "DELETE", "/v1/jobs/job-424242", ""); status != http.StatusNotFound {
		t.Errorf("delete unknown job: status %d, want 404", status)
	}
}

func TestJobTooManyReturns429(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1, JobWorkers: 1})

	// A slow job occupies the single active slot.
	submitJob(t, s, `{"kind":"mc-band","design":"a11","samples":4096,"seed":1}`)
	status, body := doOn(t, s, "POST", "/v1/jobs", `{"kind":"mc-band","design":"a11","samples":8}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, body %s, want 429", status, body)
	}
}

func TestJobSnapshotAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JobSnapshotDir: dir}

	s := testServer(t, cfg)
	v := submitJob(t, s, `{"kind":"mc-band","design":"a11","node":"28nm","samples":8,"seed":3}`)
	waitJob(t, s, v.ID)
	s.Close()

	s2 := testServer(t, cfg)
	status, body := doOn(t, s2, "GET", "/v1/jobs/"+v.ID, "")
	if status != http.StatusOK {
		t.Fatalf("restored get: status %d, body %s", status, body)
	}
	var got jobs.View
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != jobs.StatusSucceeded || !got.Restored {
		t.Fatalf("restored view = %+v", got)
	}
	if status, _ = doOn(t, s2, "GET", "/v1/jobs/"+v.ID+"/result", ""); status != http.StatusOK {
		t.Fatalf("restored result: status %d", status)
	}
}
