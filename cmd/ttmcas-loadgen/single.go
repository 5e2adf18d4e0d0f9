package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"ttmcas/internal/loadtest"
	"ttmcas/internal/resilience/fault"
	"ttmcas/internal/server"
)

// The single-server scenarios: chaos and timeline. See the package
// comment for the contracts they gate.

// defaultChaosSpec is the fault mix of the chaos scenario: occasional
// latency spikes, a steady error rate, and exactly one panic per run.
const defaultChaosSpec = "route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1"

// chaosOutcome is one chaos run plus whether the goroutine count
// drained back to its pre-run baseline.
type chaosOutcome struct {
	rep     loadtest.Report
	drained bool
}

func runChaos(ctx context.Context, o opts) (outcome, error) {
	if _, err := fault.Parse(o.faultSpec, o.seed); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Logger:           discard,
		DisableAccessLog: true,
		// Tight admission limits make overload reachable at modest
		// concurrency; short freshness plus a long stale window keeps
		// every warmed key continuously eligible for degradation.
		CheapConcurrent: 2,
		MaxConcurrent:   2,
		FreshTTL:        150 * time.Millisecond,
		StaleTTL:        time.Minute,
		FaultSpec:       o.faultSpec,
		FaultSeed:       o.seed,
	})
	defer srv.Close()
	h := srv.Handler()

	// The key set: a fixed rotation of capacity fractions.
	const keys = 32
	bodies := make([][]byte, keys)
	for i := range bodies {
		f := 0.05 + 0.9*float64(i)/keys
		bodies[i] = []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"capacity":%.17g}`, o.design, o.node, o.chips, f))
	}
	sensBody := []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"samples":8}`, o.design, o.node, o.chips))

	// The warmup runs with the injector paused: every key gets a clean
	// cached body first, then the faults are unleashed on a goroutine
	// baseline the drain is checked against.
	srv.Faults().Pause()
	warm := func(path string, body []byte) error {
		if code, resp := loadtest.Do(h, http.MethodPost, path, body); code != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", path, code, bytes.TrimSpace(resp))
		}
		return nil
	}
	for _, b := range bodies {
		if err := warm("/v1/ttm", b); err != nil {
			return nil, err
		}
	}
	if err := warm("/v1/sensitivity", sensBody); err != nil {
		return nil, err
	}
	baseline := runtime.NumGoroutine()
	srv.Faults().Resume()

	rep, err := loadtest.Run(ctx, loadtest.Config{
		Targets: []loadtest.Target{
			{Name: "ttm-chaos", Path: "/v1/ttm", BodyFunc: func(seq uint64) []byte { return bodies[seq%keys] }, Weight: 9},
			{Name: "sensitivity-chaos", Path: "/v1/sensitivity", Body: sensBody, Weight: 1},
		},
		Concurrency: o.concurrency,
		Duration:    o.duration,
		Seed:        o.seed,
		Handler:     h,
	})
	if err != nil {
		return nil, err
	}

	// After the drain, background refreshes and shed waiters must be
	// gone: the goroutine count returning to its pre-chaos baseline is
	// the no-leak half of the availability contract.
	now, drained := waitDrain(baseline+2, 10*time.Second)
	if !drained {
		fmt.Fprintf(os.Stderr, "ttmcas-loadgen: goroutines did not drain: baseline %d, now %d\n", baseline, now)
	}
	return chaosOutcome{rep: rep, drained: drained}, nil
}

// waitDrain polls until the goroutine count falls to the limit or the
// timeout passes, reporting the final count either way.
func waitDrain(limit int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// check asserts the availability contract: chaos may slow requests down
// or answer them degraded, but it must not make the service wrong,
// unavailable, or leaky.
func (out chaosOutcome) check() error {
	rep := out.rep
	admitted := rep.Requests - rep.Shed
	switch {
	case rep.Requests == 0:
		return fmt.Errorf("chaos check failed: no completed requests")
	case rep.Status5xx != rep.Shed:
		return fmt.Errorf("chaos check failed: %d 5xx but only %d deliberate sheds (503+Retry-After)",
			rep.Status5xx, rep.Shed)
	case admitted == 0:
		return fmt.Errorf("chaos check failed: every request was shed")
	case float64(rep.Status2xx) < 0.9*float64(admitted):
		return fmt.Errorf("chaos check failed: goodput %d/%d admitted requests < 90%%",
			rep.Status2xx, admitted)
	case rep.P99 > 500*time.Millisecond:
		return fmt.Errorf("chaos check failed: p99 %s exceeds 500ms", rep.P99)
	case rep.Stale == 0:
		return fmt.Errorf("chaos check failed: no stale serves — degradation never engaged")
	case !out.drained:
		return fmt.Errorf("chaos check failed: goroutines did not return to baseline after drain")
	}
	return nil
}

func (out chaosOutcome) writeJSON(w io.Writer) error {
	return writeRunJSON(w, "chaos", out.rep, &out.drained)
}

func (out chaosOutcome) writeText(w io.Writer) { writeRunText(w, "chaos", out.rep, &out.drained) }

// timelineOutcome is one timeline run's load report; the batch job that
// precedes the load either succeeds or fails the run.
type timelineOutcome struct{ rep loadtest.Report }

func runTimeline(ctx context.Context, o opts) (outcome, error) {
	srv := server.New(server.Config{Logger: discard, DisableAccessLog: true})
	defer srv.Close()
	h := srv.Handler()

	// One end-to-end batch job first: a tiny episode submitted through
	// /v1/jobs, polled to success, result fetched — the async half of
	// the composer exercised before the synchronous load starts.
	spec := fmt.Sprintf(`{"kind":"timeline","design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, o.design, o.node, o.chips)
	id, err := loadtest.SubmitJob(h, []byte(spec))
	if err == nil {
		err = loadtest.AwaitJob(h, id)
	}
	if err != nil {
		return nil, fmt.Errorf("timeline %w", err)
	}

	// 9:1 cache hits to distinct timelines: the hit side measures the
	// response cache on composed-scenario bodies, the miss side the full
	// compile-every-step evaluation path. A distinct chip count per
	// request defeats the cache without changing the work shape.
	rep, err := loadtest.Run(ctx, loadtest.Config{
		Targets: []loadtest.Target{
			{
				Name:   "timeline-cached",
				Path:   "/v1/scenarios",
				Body:   []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, o.design, o.node, o.chips)),
				Weight: 9,
			},
			{
				Name: "timeline-uncached",
				Path: "/v1/scenarios",
				BodyFunc: func(seq uint64) []byte {
					return []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, o.design, o.node, o.chips+float64(seq+1)))
				},
				Weight: 1,
			},
		},
		Concurrency: o.concurrency,
		Duration:    o.duration,
		Seed:        o.seed,
		Handler:     h,
		Warmup:      true,
	})
	return timelineOutcome{rep: rep}, err
}

// check asserts the timeline contract. The mix carries genuinely heavy
// uncached work, so a deliberate admission shed (503 + Retry-After) is
// the server keeping its latency contract, not a failure; anything
// else 5xx-shaped fails.
func (out timelineOutcome) check() error {
	rep := out.rep
	switch {
	case rep.Requests == 0 || rep.RPS <= 0:
		return fmt.Errorf("timeline check failed: no completed requests")
	case rep.Status5xx > rep.Shed:
		return fmt.Errorf("timeline check failed: %d 5xx responses beyond the %d deliberate sheds", rep.Status5xx-rep.Shed, rep.Shed)
	}
	return nil
}

func (out timelineOutcome) writeJSON(w io.Writer) error {
	return writeRunJSON(w, "timeline", out.rep, nil)
}

func (out timelineOutcome) writeText(w io.Writer) { writeRunText(w, "timeline", out.rep, nil) }
