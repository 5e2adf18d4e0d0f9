package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ttmcas/internal/loadtest"
)

// The cluster scenario: an in-process fleet under a placement-aware
// client, with one node killed and revived mid-run when -kill is set.
// See the package comment for the contract it gates; the honest
// measure of the forward hop's cost is bench/'s cluster-fwd workload.
// This file also holds the pieces the fleet scenarios share: the
// /v1/ttm load mix and the -kill schedule.

// fleetLoad is the /v1/ttm mix of the cluster and netsplit scenarios:
// nodes×-c workers for d, 9 parts sent to the owner of each body's key
// and, on a multi-node ring, 1 part misrouted to the owner's successor,
// which must forward it one hop (TestCluster.Route). Every body carries
// a distinct chip count past base: distinct canonical keys spread
// ownership across the ring and defeat the response cache, while the
// compiled-evaluator cache still hits.
func fleetLoad(tc *loadtest.TestCluster, o opts, d time.Duration, base float64) loadtest.Config {
	bodyFor := func(seq uint64) []byte {
		return []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%.17g}`,
			o.design, o.node, o.chips+base+float64(seq)))
	}
	targets := []loadtest.Target{{Name: "ttm-owner", Path: "/v1/ttm", BodyFunc: bodyFor, Weight: 9}}
	if o.nodes > 1 {
		targets = append(targets, loadtest.Target{Name: "ttm-forward", Path: "/v1/ttm", BodyFunc: bodyFor, Weight: 1})
	}
	return loadtest.Config{
		Targets:     targets,
		Concurrency: o.concurrency * o.nodes,
		Duration:    d,
		Seed:        o.seed,
		Router:      tc.Route,
	}
}

// killResult is the -kill half of a fleet outcome.
type killResult struct {
	killed     bool
	restartErr error // the killed node's re-listen failed
	converged  bool
}

// victim is the node -kill takes down — the last one — or -1 when the
// run kills none (no -kill, or no peer left to serve).
func (o opts) victim() int {
	if !o.kill || o.nodes < 2 {
		return -1
	}
	return o.nodes - 1
}

// killMidRun starts the -kill schedule on o's victim, if any. The
// returned func waits for the restart and then for every ring to hold
// every member again.
func killMidRun(ctx context.Context, tc *loadtest.TestCluster, o opts) func() killResult {
	if o.victim() < 0 {
		return func() killResult { return killResult{} }
	}
	restarted := tc.KillRestart(ctx, o.victim(), o.duration)
	return func() killResult {
		k := killResult{killed: true, restartErr: <-restarted}
		if k.restartErr == nil {
			k.converged = tc.WaitConverged(5 * time.Second)
		}
		return k
	}
}

// failure is the kill clause of a fleet contract: the killed node must
// come back and rejoin every ring.
func (k killResult) failure(scenario string) error {
	switch {
	case !k.killed:
		return nil
	case k.restartErr != nil:
		return fmt.Errorf("%s check failed: killed node did not restart: %v", scenario, k.restartErr)
	case !k.converged:
		return fmt.Errorf("%s check failed: ring did not reconverge after the killed node rejoined", scenario)
	}
	return nil
}

// convergedJSON renders the kill outcome's convergence for JSON:
// absent without a kill.
func (k killResult) convergedJSON() *bool {
	if !k.killed {
		return nil
	}
	return &k.converged
}

// writeText appends the kill outcome to a scenario's header line.
func (k killResult) writeText(w io.Writer) {
	if k.killed {
		fmt.Fprintf(w, " killed=1 converged=%t", k.converged)
		if k.restartErr != nil {
			fmt.Fprintf(w, " restart_error=%q", k.restartErr)
		}
	}
	fmt.Fprintln(w)
}

// clusterOutcome is one fleet run plus the cluster-side counters the
// report cannot see.
type clusterOutcome struct {
	nodes int
	rep   loadtest.Report
	stats loadtest.ClusterStats
	kill  killResult
}

func runCluster(ctx context.Context, o opts) (outcome, error) {
	tc, err := loadtest.StartCluster(o.nodes, loadtest.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	defer tc.Close()

	killed := killMidRun(ctx, tc, o)
	rep, err := loadtest.Run(ctx, fleetLoad(tc, o, o.duration, 0))
	out := clusterOutcome{nodes: o.nodes, rep: rep, kill: killed()}
	if err != nil {
		return nil, err
	}
	out.stats = tc.Stats()
	return out, nil
}

// check asserts the cluster contract: no lost requests even across a
// kill and rejoin, forwards exercised, and membership reconverged.
func (out clusterOutcome) check() error {
	rep := out.rep
	switch {
	case rep.Requests == 0:
		return fmt.Errorf("cluster check failed: no completed requests")
	case rep.Status2xx != rep.Requests:
		return fmt.Errorf("cluster check failed: %d/%d requests lost (4xx=%d 5xx=%d)",
			rep.Requests-rep.Status2xx, rep.Requests, rep.Status4xx, rep.Status5xx)
	case out.nodes > 1 && out.stats.Forwarded == 0:
		return fmt.Errorf("cluster check failed: no requests were forwarded — ownership never exercised")
	}
	return out.kill.failure("cluster")
}

func (out clusterOutcome) writeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Scenario    string  `json:"scenario"`
		Nodes       int     `json:"nodes"`
		Concurrency int     `json:"concurrency"`
		DurationS   float64 `json:"duration_s"`
		Killed      bool    `json:"killed"`
		Converged   *bool   `json:"converged,omitempty"`
		Local       uint64  `json:"cluster_local"`
		Forwarded   uint64  `json:"cluster_forwarded"`
		ForwardErrs uint64  `json:"cluster_forward_errors"`
		Redirected  uint64  `json:"cluster_redirected"`
		jsonStats
		Targets []jsonStats `json:"targets,omitempty"`
	}{
		Scenario:    "cluster",
		Nodes:       out.nodes,
		Concurrency: out.rep.Concurrency,
		DurationS:   out.rep.Elapsed.Seconds(),
		Killed:      out.kill.killed,
		Converged:   out.kill.convergedJSON(),
		Local:       out.stats.Local,
		Forwarded:   out.stats.Forwarded,
		ForwardErrs: out.stats.ForwardErrors,
		Redirected:  out.stats.Redirected,
		jsonStats:   toJSONStats("", out.rep.Stats),
		Targets:     targetsJSON(out.rep),
	})
}

func (out clusterOutcome) writeText(w io.Writer) {
	fmt.Fprintf(w, "scenario=cluster nodes=%d concurrency=%d duration=%s",
		out.nodes, out.rep.Concurrency, out.rep.Elapsed.Round(time.Millisecond))
	out.kill.writeText(w)
	fmt.Fprintf(w, "cluster: local=%d forwarded=%d forward_errors=%d redirected=%d\n",
		out.stats.Local, out.stats.Forwarded, out.stats.ForwardErrors, out.stats.Redirected)
	writeStats(w, "total", out.rep)
}
