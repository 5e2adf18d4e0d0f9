package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ttmcas/internal/jobs"
	"ttmcas/internal/loadtest"
	"ttmcas/internal/metrics"
	"ttmcas/internal/server"
)

// The distjobs scenario: heavy mc-band batch jobs driven end to end
// (submit → poll → result) against an in-process fleet, measuring job
// throughput. Each job is sharded across the ring by the distributed
// executor; with -kill, one node dies mid-run and every job must still
// finish — shard dispatches to the dead peer hedge to the next-alive
// node and finally fall back to coordinator-local compute. Shards run
// real compute, so on one CPU the fleet's jobs/s measures distribution
// overhead, not a speedup; bench/'s cluster-dist workload is the
// honest measure of that cost.

// distjobsSamples sizes each mc-band job: 16 default curve points ×
// 2 perturbation scales × samples = 4096 evaluation units, exactly the
// default distribution threshold.
const distjobsSamples = 128

type distjobsOpts struct {
	nodes       int
	kill        bool
	concurrency int // per-node job submitters; the fleet runs nodes×concurrency
	duration    time.Duration
	design      string
	node        string
	chips       float64
	seed        int64
	asJSON      bool
	check       bool
}

// distjobsOutcome is one fleet run's job-level tallies plus the shard
// counters aggregated across nodes.
type distjobsOutcome struct {
	elapsed   time.Duration
	submitted uint64
	succeeded uint64
	failed    uint64
	jps       float64 // succeeded jobs per second
	p50, p95  time.Duration
	p99, max  time.Duration

	dispatched uint64
	completed  uint64
	hedged     uint64
	fallback   uint64

	killed    bool
	converged bool
}

func runDistjobs(o distjobsOpts) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := distjobsRun(ctx, o)
	if err != nil {
		return err
	}

	if o.asJSON {
		if err := writeDistjobsJSON(os.Stdout, o, out); err != nil {
			return err
		}
	} else {
		writeDistjobsText(os.Stdout, o, out)
	}

	if o.check {
		return checkDistjobs(o, out)
	}
	return nil
}

// distjobsRun boots the fleet and drives job workflows from
// nodes×concurrency closed-loop workers until the duration lapses,
// then drains every in-flight job — a submitted job is never abandoned,
// which is what makes the zero-loss count meaningful.
func distjobsRun(ctx context.Context, o distjobsOpts) (distjobsOutcome, error) {
	n, kill := o.nodes, o.kill && o.nodes > 1
	tc, err := loadtest.StartCluster(n, loadtest.ClusterConfig{
		Configure: func(i int, cfg *server.Config) {
			// Generous admission: the scenario measures job sharding, not
			// request overload control, and shard executions ride plain
			// HTTP handlers on the peers.
			cfg.CheapConcurrent = 256
			cfg.MaxConcurrent = 64
			cfg.MaxJobs = 64
		},
	})
	if err != nil {
		return distjobsOutcome{}, err
	}
	defer tc.Close()

	victim := -1
	if kill {
		victim = n - 1
		killT := time.AfterFunc(o.duration/4, func() { tc.Kill(victim) })
		defer killT.Stop()
		restartT := time.AfterFunc(3*o.duration/4, func() { tc.Restart(victim) })
		defer restartT.Stop()
	}

	// Each job carries a distinct seed: distinct canonical keys spread
	// ownership across the ring. In kill mode the seed walks on until
	// the owner is not the victim — the scenario exercises losing a
	// shard EXECUTOR, not the unreplicated coordinator itself.
	var seq atomic.Int64
	specFor := func() (jobs.Spec, int) {
		for {
			spec := jobs.Spec{
				Kind: "mc-band", Design: o.design, Node: o.node, N: o.chips,
				Samples: distjobsSamples, Seed: o.seed + seq.Add(1),
			}
			key, err := server.CacheKey("POST /v1/jobs", spec)
			if err != nil {
				return spec, 0
			}
			owner := tc.OwnerIndex(key)
			if owner != victim {
				return spec, owner
			}
		}
	}

	dispatch := func(h http.Handler, method, path string, body []byte) (int, []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}

	var (
		submitted, succeeded, failed atomic.Uint64
		lats                         metrics.Histogram
	)
	deadline := time.Now().Add(o.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency*n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				spec, owner := specFor()
				body, err := json.Marshal(spec)
				if err != nil {
					failed.Add(1)
					return
				}
				h := tc.Handler(tc.NextAlive(owner))
				t0 := time.Now()
				code, resp := dispatch(h, http.MethodPost, "/v1/jobs", body)
				if code != http.StatusAccepted {
					// 429 is backpressure, not loss: the job was never
					// accepted. Back off and retry the loop.
					if code == http.StatusTooManyRequests {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					failed.Add(1)
					continue
				}
				submitted.Add(1)
				var v struct {
					ID     string `json:"id"`
					Status string `json:"status"`
				}
				if err := json.Unmarshal(resp, &v); err != nil {
					failed.Add(1)
					continue
				}
				ok := false
				for time.Since(t0) < 30*time.Second {
					code, resp = dispatch(h, http.MethodGet, "/v1/jobs/"+v.ID, nil)
					if code != http.StatusOK || json.Unmarshal(resp, &v) != nil {
						break
					}
					if v.Status == "succeeded" {
						code, _ = dispatch(h, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil)
						ok = code == http.StatusOK
						break
					}
					if v.Status != "pending" && v.Status != "running" {
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				if !ok {
					failed.Add(1)
					continue
				}
				succeeded.Add(1)
				lats.Record(time.Since(t0))
			}
		}()
	}
	wg.Wait()

	out := distjobsOutcome{
		elapsed:   time.Since(start),
		submitted: submitted.Load(),
		succeeded: succeeded.Load(),
		failed:    failed.Load(),
		killed:    kill,
	}
	if out.elapsed > 0 {
		out.jps = float64(out.succeeded) / out.elapsed.Seconds()
	}
	out.p50, out.p95, out.p99, out.max = lats.Quantile(0.50), lats.Quantile(0.95), lats.Quantile(0.99), lats.Max()

	if kill {
		out.converged = tc.WaitConverged(5 * time.Second)
	}
	for _, cn := range tc.Nodes {
		m := cn.Srv.Metrics()
		out.dispatched += m.ShardsDispatched()
		out.completed += m.ShardsCompleted()
		out.hedged += m.ShardsHedged()
		out.fallback += m.ShardsFallback()
	}
	return out, nil
}

// checkDistjobs asserts the distributed-job contract: zero lost jobs
// even across a kill, shards genuinely distributed, and membership
// reconverged.
func checkDistjobs(o distjobsOpts, out distjobsOutcome) error {
	switch {
	case out.submitted == 0 || out.succeeded == 0:
		return fmt.Errorf("distjobs check failed: no completed jobs")
	case out.failed > 0:
		return fmt.Errorf("distjobs check failed: %d/%d jobs lost",
			out.failed, out.submitted+out.failed)
	case o.nodes > 1 && out.completed == 0:
		return fmt.Errorf("distjobs check failed: no shards completed remotely — jobs ran single-node")
	case out.killed && !out.converged:
		return fmt.Errorf("distjobs check failed: ring did not reconverge after the killed node rejoined")
	}
	return nil
}

func writeDistjobsJSON(w io.Writer, o distjobsOpts, out distjobsOutcome) error {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	doc := struct {
		Scenario    string  `json:"scenario"`
		Nodes       int     `json:"nodes"`
		Concurrency int     `json:"concurrency"`
		DurationS   float64 `json:"duration_s"`
		JobsPerSec  float64 `json:"jobs_per_sec"`
		Submitted   uint64  `json:"jobs_submitted"`
		Succeeded   uint64  `json:"jobs_succeeded"`
		Failed      uint64  `json:"jobs_failed"`
		P50ms       float64 `json:"p50_ms"`
		P95ms       float64 `json:"p95_ms"`
		P99ms       float64 `json:"p99_ms"`
		MaxMs       float64 `json:"max_ms"`
		Dispatched  uint64  `json:"shards_dispatched"`
		Completed   uint64  `json:"shards_completed"`
		Hedged      uint64  `json:"shards_hedged"`
		Fallback    uint64  `json:"shards_fallback"`
		Killed      bool    `json:"killed"`
		Converged   *bool   `json:"converged,omitempty"`
	}{
		Scenario:    "distjobs",
		Nodes:       o.nodes,
		Concurrency: o.concurrency * o.nodes,
		DurationS:   out.elapsed.Seconds(),
		JobsPerSec:  out.jps,
		Submitted:   out.submitted,
		Succeeded:   out.succeeded,
		Failed:      out.failed,
		P50ms:       ms(out.p50), P95ms: ms(out.p95), P99ms: ms(out.p99), MaxMs: ms(out.max),
		Dispatched: out.dispatched,
		Completed:  out.completed,
		Hedged:     out.hedged,
		Fallback:   out.fallback,
		Killed:     out.killed,
	}
	if out.killed {
		doc.Converged = &out.converged
	}
	return json.NewEncoder(w).Encode(doc)
}

func writeDistjobsText(w io.Writer, o distjobsOpts, out distjobsOutcome) {
	fmt.Fprintf(w, "scenario=distjobs nodes=%d concurrency=%d duration=%s",
		o.nodes, o.concurrency*o.nodes, out.elapsed.Round(time.Millisecond))
	if out.killed {
		fmt.Fprintf(w, " killed=1 converged=%t", out.converged)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "jobs: %.1f jobs/s  submitted=%d succeeded=%d failed=%d\n",
		out.jps, out.submitted, out.succeeded, out.failed)
	fmt.Fprintf(w, "jobs: p50=%s p95=%s p99=%s max=%s\n", out.p50, out.p95, out.p99, out.max)
	fmt.Fprintf(w, "shards: dispatched=%d completed=%d hedged=%d fallback=%d\n",
		out.dispatched, out.completed, out.hedged, out.fallback)
}
