package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func quietConfig() Config {
	return Config{Logger: log.New(io.Discard, "", 0)}
}

// setRunHook installs a synthetic runner for the test and restores the
// real dispatch afterwards. Tests using it cannot run in parallel with
// each other.
func setRunHook(t *testing.T, h func(ctx context.Context, s Spec, pr Tracker) (any, error)) {
	t.Helper()
	runHook = h
	t.Cleanup(func() { runHook = nil })
}

// validSpec is a minimal spec that passes validation; the hook decides
// what actually runs.
func validSpec() Spec {
	return Spec{Kind: KindMCBand, Design: "a11", Samples: 8, Xs: []float64{0.5, 1}}
}

func waitFinished(t *testing.T, m *Manager, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared before finishing", id)
		}
		if v.Status.Finished() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		pr.SetTotal(4)
		pr.Add(4)
		return map[string]int{"answer": 42}, nil
	})
	m := New(quietConfig())
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusPending || v.ID == "" {
		t.Fatalf("submit view = %+v", v)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	if fin.Done != 4 || fin.Total != 4 || fin.Fraction != 1 {
		t.Fatalf("progress = %d/%d (%v)", fin.Done, fin.Total, fin.Fraction)
	}
	raw, _, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["answer"] != 42 {
		t.Fatalf("result = %v", got)
	}
}

func TestResultBeforeFinishErrs(t *testing.T) {
	release := make(chan struct{})
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		<-release
		return "done", nil
	})
	m := New(quietConfig())
	defer m.Close()
	defer close(release)

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Result(v.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result on unfinished job: err = %v, want ErrNotFinished", err)
	}
	if _, _, err := m.Result("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result on unknown job: err = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m := New(quietConfig())
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", fin.Status)
	}
	if fin.Error != "cancelled" {
		t.Fatalf("error = %q", fin.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "ok", nil
	})
	cfg := quietConfig()
	cfg.Workers = 1
	m := New(cfg)
	defer m.Close()
	defer close(block)

	// First job occupies the only worker; the second stays queued.
	if _, err := m.Submit(validSpec()); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", v.Status)
	}
	// The worker must skip it once freed, never flipping it back.
	time.Sleep(20 * time.Millisecond)
	if got, _ := m.Get(queued.ID); got.Status != StatusCancelled {
		t.Fatalf("status after worker pass = %s", got.Status)
	}
}

func TestPanicFailsJobNotManager(t *testing.T) {
	calls := 0
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		calls++
		if calls == 1 {
			panic("synthetic failure")
		}
		return "ok", nil
	})
	cfg := quietConfig()
	cfg.Workers = 1
	m := New(cfg)
	defer m.Close()

	bad, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, bad.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "panic") {
		t.Fatalf("panicked job: status = %s, err = %q", fin.Status, fin.Error)
	}
	// The worker survived: a follow-up job still runs.
	good, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitFinished(t, m, good.ID); fin.Status != StatusSucceeded {
		t.Fatalf("follow-up job: status = %s (err %q)", fin.Status, fin.Error)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cfg := quietConfig()
	cfg.DefaultTimeout = 20 * time.Millisecond
	m := New(cfg)
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("status = %s, err = %q, want failed deadline", fin.Status, fin.Error)
	}
}

func TestMaxActiveRejectsSubmit(t *testing.T) {
	block := make(chan struct{})
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "ok", nil
	})
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.MaxActive = 2
	m := New(cfg)
	defer m.Close()
	defer close(block)

	for i := 0; i < 2; i++ {
		if _, err := m.Submit(validSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(validSpec()); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("third submit: err = %v, want ErrTooManyJobs", err)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	m := New(quietConfig())
	defer m.Close()
	for _, s := range []Spec{
		{},
		{Kind: "nope", Design: "a11"},
		{Kind: KindMCBand},
		{Kind: KindMCBand, Design: "nope"},
		{Kind: KindMCBand, Design: "a11", Samples: 1 << 20},
		{Kind: KindMCBand, Design: "a11", Xs: []float64{2}},
	} {
		if _, err := m.Submit(s); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("Submit(%+v): err = %v, want ErrInvalidSpec", s, err)
		}
	}
}

func TestTTLEvictsFinishedJobs(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		return "ok", nil
	})
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	cfg := quietConfig()
	cfg.ResultTTL = time.Minute
	cfg.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := New(cfg)
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, v.ID)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	m.evictExpired()
	if _, ok := m.Get(v.ID); ok {
		t.Fatal("job survived TTL eviction")
	}
}

func TestListNewestFirst(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		return "ok", nil
	})
	m := New(quietConfig())
	defer m.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(validSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	views := m.List()
	if len(views) != 3 {
		t.Fatalf("len(List()) = %d", len(views))
	}
	for i, v := range views {
		if want := ids[len(ids)-1-i]; v.ID != want {
			t.Fatalf("List()[%d] = %s, want %s", i, v.ID, want)
		}
	}
}

func TestSnapshotSurvivesRestart(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		pr.SetTotal(2)
		pr.Add(2)
		return map[string]string{"from": "first life"}, nil
	})
	dir := t.TempDir()
	cfg := quietConfig()
	cfg.SnapshotDir = dir

	m := New(cfg)
	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, v.ID)
	m.Close()

	m2 := New(cfg)
	defer m2.Close()
	got, ok := m2.Get(v.ID)
	if !ok {
		t.Fatal("restored manager lost the job")
	}
	if got.Status != StatusSucceeded || !got.Restored {
		t.Fatalf("restored view = %+v", got)
	}
	raw, _, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "first life") {
		t.Fatalf("restored result = %s", raw)
	}
	// New submissions continue the id sequence instead of colliding.
	v2, err := m2.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v.ID {
		t.Fatalf("restored manager reused id %s", v2.ID)
	}
}

func TestDrainedRunningJobResumesAfterRestart(t *testing.T) {
	started := make(chan struct{}, 1)
	var resumed atomic.Bool
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		if resumed.Load() {
			return "second life", nil
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cfg := quietConfig()
	cfg.SnapshotDir = dir

	m := New(cfg)
	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.Close() // drain: interrupts the running job

	resumed.Store(true)
	m2 := New(cfg)
	defer m2.Close()
	fin := waitFinished(t, m2, v.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("resumed job: status = %s (err %q)", fin.Status, fin.Error)
	}
	raw, _, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "second life") {
		t.Fatalf("resumed result = %s", raw)
	}
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	// A snapshot truncated mid-write (no atomic rename — e.g. a copy
	// restored from a partial backup) must not poison startup.
	if err := os.WriteFile(filepath.Join(dir, "job-000001.json"), []byte(`{"view":{"id":"job-0`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000002.json"), []byte(`{"view":{"id":"job-000009"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.SnapshotDir = dir
	m := New(cfg)
	defer m.Close()
	if got := len(m.List()); got != 0 {
		t.Fatalf("restored %d jobs from corrupt snapshots", got)
	}
	// The undecodable file is renamed aside — preserved for inspection,
	// never re-read — while the id-mismatched (but valid) one stays.
	if _, err := os.Stat(filepath.Join(dir, "job-000001.json.corrupt")); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000001.json")); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still in place (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000002.json")); err != nil {
		t.Errorf("id-mismatched snapshot should stay: %v", err)
	}

	// A manager restarted over the same directory starts clean too.
	m2 := New(cfg)
	defer m2.Close()
	if got := len(m2.List()); got != 0 {
		t.Fatalf("second restart restored %d jobs", got)
	}
}

func TestRemoveDeletesJobAndSnapshot(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		return "ok", nil
	})
	dir := t.TempDir()
	cfg := quietConfig()
	cfg.SnapshotDir = dir
	m := New(cfg)
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, v.ID)
	if _, err := m.Remove(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(v.ID); ok {
		t.Fatal("job survived Remove")
	}
	if _, err := os.Stat(filepath.Join(dir, v.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived Remove: %v", err)
	}
	if _, err := m.Remove(v.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Remove: err = %v, want ErrNotFound", err)
	}
}

func TestSubmitAfterCloseErrs(t *testing.T) {
	m := New(quietConfig())
	m.Close()
	if _, err := m.Submit(validSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// observerRecorder records job lifecycle callbacks and ignores shard
// ones.
type observerRecorder struct {
	mu        sync.Mutex
	submitted int
	finished  map[Status]int
	evals     uint64
}

func (o *observerRecorder) ShardDispatched(string)               {}
func (o *observerRecorder) ShardCompleted(string, time.Duration) {}
func (o *observerRecorder) ShardHedged(string)                   {}
func (o *observerRecorder) ShardFallback(string)                 {}

func (o *observerRecorder) JobSubmitted(string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.submitted++
}

func (o *observerRecorder) JobFinished(_ string, s Status, evals uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.finished == nil {
		o.finished = make(map[Status]int)
	}
	o.finished[s]++
	o.evals += evals
}

func TestObserverSeesLifecycle(t *testing.T) {
	setRunHook(t, func(ctx context.Context, s Spec, pr Tracker) (any, error) {
		pr.SetTotal(3)
		pr.Add(3)
		return "ok", nil
	})
	obs := &observerRecorder{}
	cfg := quietConfig()
	cfg.Observer = obs
	m := New(cfg)
	defer m.Close()

	v, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, v.ID)
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.submitted != 1 || obs.finished[StatusSucceeded] != 1 || obs.evals != 3 {
		t.Fatalf("observer = %+v", obs)
	}
}

// TestMCBandJobEndToEnd runs a real mc-band curve through the manager:
// 16 x-positions, monotonic progress, and a bit-for-bit match against
// calling the engine directly.
func TestMCBandJobEndToEnd(t *testing.T) {
	m := New(quietConfig())
	defer m.Close()

	spec := Spec{Kind: KindMCBand, Design: "a11", Node: "28", Samples: 16, Seed: 7}
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Progress must be monotonic while the job runs.
	var last uint64
	for {
		got, ok := m.Get(v.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if got.Done < last {
			t.Fatalf("progress went backwards: %d after %d", got.Done, last)
		}
		last = got.Done
		if got.Status.Finished() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	wantTotal := uint64(16 * 2 * 16) // xs · two bands · samples
	if fin.Total != wantTotal || fin.Done != wantTotal {
		t.Fatalf("progress = %d/%d, want %d/%d", fin.Done, fin.Total, wantTotal, wantTotal)
	}
	raw, _, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res BandResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(res.Points))
	}
	// Same spec run directly through the runner gives the same curve.
	var direct BandResult
	dv, err := spec.normalized().run(context.Background(), Tracker{&Job{}})
	if err != nil {
		t.Fatal(err)
	}
	direct = dv.(BandResult)
	for i := range res.Points {
		if *res.Points[i].Mean != *direct.Points[i].Mean {
			t.Fatalf("point %d: job mean %v != direct mean %v", i, *res.Points[i].Mean, *direct.Points[i].Mean)
		}
	}
}

// TestMCBandJobCancelMidRun cancels a real curve mid-flight and checks
// the workers observed the context within one evaluation batch.
func TestMCBandJobCancelMidRun(t *testing.T) {
	m := New(quietConfig())
	defer m.Close()

	// A CAS curve at the sample and point caps on a two-node design in
	// production keeps the compiled kernel busy for long enough (about a
	// second) that the cancel below lands mid-run. (The a11 on its native
	// 10 nm stalls, so its CAS probes short-circuit and the whole curve
	// could finish before the cancel arrived.)
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 0.2 + 0.0125*float64(i)
	}
	spec := Spec{Kind: KindMCBand, Design: "zen2", Metric: "cas", Samples: 8192, Seed: 1, Xs: xs}
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for some progress, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := m.Get(v.ID)
		if got.Done > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("status = %s (err %q), want cancelled", fin.Status, fin.Error)
	}
	if fin.Done >= fin.Total {
		t.Fatalf("cancelled job completed all %d evaluations", fin.Total)
	}
}
