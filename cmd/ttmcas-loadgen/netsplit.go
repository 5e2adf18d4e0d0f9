package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"ttmcas/internal/loadtest"
	"ttmcas/internal/server"
)

// The netsplit scenario: an in-process fleet under an asymmetric
// network partition. Mid-run the last node is cut off — every majority
// node's traffic TO it is blackholed while its own outbound still
// works, the nastiest gossip case — then the partition heals. The
// -check contract is the partition-tolerance gate: zero client-visible
// errors, zero lost jobs, breakers open and re-close, the ring
// reconverges, and majority-side throughput holds a floor.

// netsplitOutcome carries the three phase reports plus the cluster-side
// resilience counters and the end-to-end job fates.
type netsplitOutcome struct {
	nodes       int
	healthy     loadtest.Report
	partitioned loadtest.Report
	healed      loadtest.Report
	stats       loadtest.ClusterStats
	jobsTotal   int
	jobsOK      int
	converged   bool
	recovery    time.Duration // heal → every ring complete again
}

// netsplitSpec builds the asymmetric partition: every majority node's
// traffic to the victim is dropped, the victim's outbound untouched.
// All nodes share the spec — each node binds its injector to its own
// self URL, so only the majority sides match the directional rules.
func netsplitSpec(urls []string, victim int) string {
	var rules []string
	for k, u := range urls {
		if k != victim {
			rules = append(rules, fmt.Sprintf("partition=%s->%s", u, urls[victim]))
		}
	}
	return strings.Join(rules, ";")
}

// runNetsplit boots the fleet with paused injectors, drives three load
// phases — healthy (d/4), partitioned (d/2), healed (d/4) — and
// submits one batch job per node while the partition is live.
func runNetsplit(ctx context.Context, o opts) (outcome, error) {
	if o.nodes < 3 {
		return nil, fmt.Errorf("scenario netsplit needs at least 3 nodes (a majority side)")
	}
	victim := o.nodes - 1
	tc, err := loadtest.StartCluster(o.nodes, loadtest.ClusterConfig{
		Configure: func(i int, cfg *server.Config) {
			// Reconstruct the node-ordered URL list (peers is urls minus
			// self, order preserved) and arm the injector paused; the
			// scenario flips it live at the partition boundary.
			urls := make([]string, 0, len(cfg.ClusterPeers)+1)
			urls = append(urls, cfg.ClusterPeers[:i]...)
			urls = append(urls, cfg.ClusterSelfURL)
			urls = append(urls, cfg.ClusterPeers[i:]...)
			cfg.FaultSpec = netsplitSpec(urls, victim)
			cfg.FaultSeed = o.seed
			cfg.FaultPaused = true
		},
	})
	if err != nil {
		return nil, err
	}
	defer tc.Close()

	// A per-phase key offset keeps the healed phase from riding the
	// healthy phase's cache entries.
	phase := func(d time.Duration, base float64) (loadtest.Report, error) {
		return loadtest.Run(ctx, fleetLoad(tc, o, d, base))
	}

	out := netsplitOutcome{nodes: o.nodes}
	if out.healthy, err = phase(o.duration/4, 0); err != nil {
		return nil, err
	}

	// Partition: every majority node loses its path to the victim.
	for _, cn := range tc.Nodes {
		cn.Srv.Faults().Resume()
	}
	// One small batch job per node while the split is live: submits
	// landing anywhere must survive — forwarded when the owner is
	// reachable, run locally when it is not — and finish correct.
	jobIDs := make([]string, o.nodes)
	for i := range jobIDs {
		spec := fmt.Sprintf(`{"kind":"mc-band","design":%q,"node":%q,"n":%g,"samples":8,"seed":%d}`,
			o.design, o.node, o.chips, o.seed+int64(i))
		if jobIDs[i], err = loadtest.SubmitJob(tc.Handler(i), []byte(spec)); err != nil {
			return nil, fmt.Errorf("netsplit job on node %d: %w", i, err)
		}
	}
	out.jobsTotal = len(jobIDs)

	if out.partitioned, err = phase(o.duration/2, 1e9); err != nil {
		return nil, err
	}

	// Heal: the injectors pause atomically; probes start succeeding,
	// breakers probe half-open and close, the victim rejoins.
	healedAt := time.Now()
	for _, cn := range tc.Nodes {
		cn.Srv.Faults().Pause()
	}
	out.converged = tc.WaitConverged(10 * time.Second)
	out.recovery = time.Since(healedAt)

	if out.healed, err = phase(o.duration/4, 2e9); err != nil {
		return nil, err
	}

	// The poll rides the scatter path when the job lives elsewhere.
	for i, id := range jobIDs {
		if loadtest.AwaitJob(tc.Handler(i), id) == nil {
			out.jobsOK++
		}
	}
	out.stats = tc.Stats()
	return out, nil
}

// check asserts the partition-tolerance contract.
func (out netsplitOutcome) check() error {
	for _, ph := range []struct {
		name string
		rep  loadtest.Report
	}{{"healthy", out.healthy}, {"partitioned", out.partitioned}, {"healed", out.healed}} {
		switch {
		case ph.rep.Requests == 0:
			return fmt.Errorf("netsplit check failed: %s phase completed no requests", ph.name)
		case ph.rep.Status2xx != ph.rep.Requests:
			return fmt.Errorf("netsplit check failed: %d/%d requests lost in the %s phase (4xx=%d 5xx=%d)",
				ph.rep.Requests-ph.rep.Status2xx, ph.rep.Requests, ph.name, ph.rep.Status4xx, ph.rep.Status5xx)
		}
	}
	floor := 0.5 * out.healthy.RPS
	switch {
	case out.jobsOK != out.jobsTotal:
		return fmt.Errorf("netsplit check failed: %d/%d jobs lost across the partition",
			out.jobsTotal-out.jobsOK, out.jobsTotal)
	case out.stats.BreakerOpens == 0:
		return fmt.Errorf("netsplit check failed: no breaker ever opened — the partition was not felt")
	case out.stats.OpenBreakers > 0:
		return fmt.Errorf("netsplit check failed: %d breakers still open after the heal", out.stats.OpenBreakers)
	case !out.converged:
		return fmt.Errorf("netsplit check failed: ring did not reconverge after the heal")
	case out.partitioned.RPS < floor:
		return fmt.Errorf("netsplit check failed: partitioned %.1f req/s < 0.5 × healthy %.1f = %.1f req/s",
			out.partitioned.RPS, out.healthy.RPS, floor)
	}
	return nil
}

func (out netsplitOutcome) writeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Scenario       string      `json:"scenario"`
		Nodes          int         `json:"nodes"`
		Concurrency    int         `json:"concurrency"`
		Converged      bool        `json:"converged"`
		RecoveryMs     float64     `json:"recovery_ms"`
		JobsTotal      int         `json:"jobs_total"`
		JobsOK         int         `json:"jobs_ok"`
		Retries        uint64      `json:"cluster_retries"`
		BreakerOpens   uint64      `json:"breaker_opens"`
		ShortCircuits  uint64      `json:"breaker_short_circuits"`
		OpenBreakers   int         `json:"open_breakers"`
		ForwardErrs    uint64      `json:"cluster_forward_errors"`
		HealthyRPS     float64     `json:"healthy_rps"`
		PartitionedRPS float64     `json:"partitioned_rps"`
		HealedRPS      float64     `json:"healed_rps"`
		Phases         []jsonStats `json:"phases"`
	}{
		Scenario:       "netsplit",
		Nodes:          out.nodes,
		Concurrency:    out.healthy.Concurrency,
		Converged:      out.converged,
		RecoveryMs:     float64(out.recovery.Nanoseconds()) / 1e6,
		JobsTotal:      out.jobsTotal,
		JobsOK:         out.jobsOK,
		Retries:        out.stats.Retries,
		BreakerOpens:   out.stats.BreakerOpens,
		ShortCircuits:  out.stats.BreakerShortCircuits,
		OpenBreakers:   out.stats.OpenBreakers,
		ForwardErrs:    out.stats.ForwardErrors,
		HealthyRPS:     out.healthy.RPS,
		PartitionedRPS: out.partitioned.RPS,
		HealedRPS:      out.healed.RPS,
		Phases: []jsonStats{
			toJSONStats("healthy", out.healthy.Stats),
			toJSONStats("partitioned", out.partitioned.Stats),
			toJSONStats("healed", out.healed.Stats),
		},
	})
}

func (out netsplitOutcome) writeText(w io.Writer) {
	fmt.Fprintf(w, "scenario=netsplit nodes=%d concurrency=%d converged=%t recovery=%s jobs=%d/%d\n",
		out.nodes, out.healthy.Concurrency, out.converged, out.recovery.Round(time.Millisecond),
		out.jobsOK, out.jobsTotal)
	fmt.Fprintf(w, "cluster: forward_errors=%d retries=%d breaker_opens=%d short_circuits=%d open_at_end=%d\n",
		out.stats.ForwardErrors, out.stats.Retries, out.stats.BreakerOpens,
		out.stats.BreakerShortCircuits, out.stats.OpenBreakers)
	for _, ph := range []struct {
		name string
		rep  loadtest.Report
	}{{"healthy", out.healthy}, {"partitioned", out.partitioned}, {"healed", out.healed}} {
		writeStats(w, ph.name, ph.rep)
	}
}
