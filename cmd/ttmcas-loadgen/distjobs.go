package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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

// distjobsOutcome is one fleet run's job-level tallies plus the shard
// counters aggregated across nodes.
type distjobsOutcome struct {
	nodes       int
	concurrency int
	elapsed     time.Duration
	submitted   uint64
	succeeded   uint64
	failed      uint64
	jps         float64 // succeeded jobs per second
	p50, p95    time.Duration
	p99, max    time.Duration

	dispatched uint64
	completed  uint64
	hedged     uint64
	fallback   uint64

	kill killResult
}

// runDistjobs boots the fleet and drives job workflows from
// nodes×concurrency closed-loop workers until the duration lapses,
// then drains every in-flight job — a submitted job is never abandoned,
// which is what makes the zero-loss count meaningful.
func runDistjobs(ctx context.Context, o opts) (outcome, error) {
	tc, err := loadtest.StartCluster(o.nodes, loadtest.ClusterConfig{
		Configure: func(i int, cfg *server.Config) { cfg.MaxJobs = 64 },
	})
	if err != nil {
		return nil, err
	}
	defer tc.Close()

	killed := killMidRun(ctx, tc, o)
	victim := o.victim()

	// Each job carries a distinct seed: distinct canonical keys spread
	// ownership across the ring. In kill mode the seed walks on until
	// the owner is not the victim — the scenario exercises losing a
	// shard EXECUTOR, not the unreplicated coordinator itself.
	var seq atomic.Int64
	specFor := func() ([]byte, int) {
		for {
			spec := jobs.Spec{
				Kind: "mc-band", Design: o.design, Node: o.node, N: o.chips,
				Samples: distjobsSamples, Seed: o.seed + seq.Add(1),
			}
			if owner := tc.Owner("POST /v1/jobs", spec); owner != victim {
				// A spec that cannot encode (a NaN -n) posts no body,
				// which the server rejects: the job counts as lost.
				body, _ := json.Marshal(spec)
				return body, owner
			}
		}
	}

	var (
		submitted, succeeded, failed atomic.Uint64
		lats                         metrics.Histogram
	)
	deadline := time.Now().Add(o.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency*o.nodes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				spec, owner := specFor()
				h := tc.Handler(tc.NextAlive(owner))
				t0 := time.Now()
				id, err := loadtest.SubmitJob(h, spec)
				if errors.Is(err, loadtest.ErrJobsFull) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if err == nil {
					submitted.Add(1)
					err = loadtest.AwaitJob(h, id)
				}
				if err != nil {
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
		nodes:       o.nodes,
		concurrency: o.concurrency * o.nodes,
		elapsed:     time.Since(start),
		submitted:   submitted.Load(),
		succeeded:   succeeded.Load(),
		failed:      failed.Load(),
		kill:        killed(),
	}
	if out.elapsed > 0 {
		out.jps = float64(out.succeeded) / out.elapsed.Seconds()
	}
	out.p50, out.p95, out.p99, out.max = lats.Quantile(0.50), lats.Quantile(0.95), lats.Quantile(0.99), lats.Max()
	for _, cn := range tc.Nodes {
		m := cn.Srv.Metrics()
		out.dispatched += m.ShardsDispatched()
		out.completed += m.ShardsCompleted()
		out.hedged += m.ShardsHedged()
		out.fallback += m.ShardsFallback()
	}
	return out, nil
}

// check asserts the distributed-job contract: zero lost jobs even
// across a kill, shards genuinely distributed, and membership
// reconverged.
func (out distjobsOutcome) check() error {
	switch {
	case out.submitted == 0 || out.succeeded == 0:
		return fmt.Errorf("distjobs check failed: no completed jobs")
	case out.failed > 0:
		return fmt.Errorf("distjobs check failed: %d/%d jobs lost",
			out.failed, out.submitted+out.failed)
	case out.nodes > 1 && out.completed == 0:
		return fmt.Errorf("distjobs check failed: no shards completed remotely — jobs ran single-node")
	}
	return out.kill.failure("distjobs")
}

func (out distjobsOutcome) writeJSON(w io.Writer) error {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return json.NewEncoder(w).Encode(struct {
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
		Nodes:       out.nodes,
		Concurrency: out.concurrency,
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
		Killed:     out.kill.killed,
		Converged:  out.kill.convergedJSON(),
	})
}

func (out distjobsOutcome) writeText(w io.Writer) {
	fmt.Fprintf(w, "scenario=distjobs nodes=%d concurrency=%d duration=%s",
		out.nodes, out.concurrency, out.elapsed.Round(time.Millisecond))
	out.kill.writeText(w)
	fmt.Fprintf(w, "jobs: %.1f jobs/s  submitted=%d succeeded=%d failed=%d\n",
		out.jps, out.submitted, out.succeeded, out.failed)
	fmt.Fprintf(w, "jobs: p50=%s p95=%s p99=%s max=%s\n", out.p50, out.p95, out.p99, out.max)
	fmt.Fprintf(w, "shards: dispatched=%d completed=%d hedged=%d fallback=%d\n",
		out.dispatched, out.completed, out.hedged, out.fallback)
}
