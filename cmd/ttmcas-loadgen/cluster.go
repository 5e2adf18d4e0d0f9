package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ttmcas/internal/loadtest"
	"ttmcas/internal/server"
)

// The cluster scenario: an in-process fleet under a placement-aware
// client, with one node killed and revived mid-run when -kill is set.
// See the package comment for the contract it gates; the honest
// measure of the forward hop's cost is bench/'s cluster-fwd workload.

type clusterOpts struct {
	nodes       int
	kill        bool
	concurrency int // per-node workers; the fleet runs nodes×concurrency
	duration    time.Duration
	design      string
	node        string
	chips       float64
	seed        int64
	asJSON      bool
	check       bool
}

// clusterOutcome is one fleet run plus the cluster-side counters the
// report cannot see.
type clusterOutcome struct {
	rep       loadtest.Report
	stats     loadtest.ClusterStats
	killed    bool
	converged bool
}

func runCluster(o clusterOpts) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := clusterRun(ctx, o)
	if err != nil {
		return err
	}

	if o.asJSON {
		if err := writeClusterJSON(os.Stdout, o, out); err != nil {
			return err
		}
	} else {
		writeClusterText(os.Stdout, o, out)
	}

	if o.check {
		return checkCluster(o, out)
	}
	return nil
}

// clusterRun boots the fleet, drives the mix for the configured
// duration (killing and reviving the last node with -kill), and tears
// the fleet down.
func clusterRun(ctx context.Context, o clusterOpts) (clusterOutcome, error) {
	n, kill := o.nodes, o.kill && o.nodes > 1
	tc, err := loadtest.StartCluster(n, loadtest.ClusterConfig{
		Configure: func(i int, cfg *server.Config) {
			// Generous admission: the scenario measures placement and
			// forwarding, not overload control, and forwarded requests
			// occupy slots on both nodes of the hop.
			cfg.CheapConcurrent = 256
			cfg.MaxConcurrent = 64
		},
	})
	if err != nil {
		return clusterOutcome{}, err
	}
	defer tc.Close()

	// Every request carries a distinct chip count: distinct canonical
	// keys spread ownership across the ring and defeat the response
	// cache, while the compiled-evaluator cache still hits.
	bodyFor := func(seq uint64) []byte {
		return []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%.17g}`,
			o.design, o.node, o.chips+float64(seq)))
	}
	targets := []loadtest.Target{
		{Name: "ttm-cluster", Path: "/v1/ttm", BodyFunc: bodyFor, Weight: 9},
	}
	if n > 1 {
		// The misroute share: sent to the node AFTER the owner, so the
		// serving node must forward one hop. Its latency distribution is
		// the forward-hop cost a placement-blind balancer would pay.
		targets = append(targets,
			loadtest.Target{Name: "ttm-forward", Path: "/v1/ttm", BodyFunc: bodyFor, Weight: 1})
	}

	ownerOf := func(body []byte) int {
		var req server.EvalRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 0
		}
		key, err := server.CacheKey("POST /v1/ttm", req)
		if err != nil {
			return 0
		}
		return tc.OwnerIndex(key)
	}

	cfg := loadtest.Config{
		Targets:     targets,
		Concurrency: o.concurrency * n,
		Duration:    o.duration,
		Seed:        o.seed,
		Router: func(ti int, body []byte) http.Handler {
			idx := ownerOf(body)
			if ti == 1 {
				idx = (idx + 1) % n
			}
			return tc.Handler(tc.NextAlive(idx))
		},
	}

	out := clusterOutcome{killed: kill}
	if kill {
		victim := n - 1
		killT := time.AfterFunc(o.duration/4, func() { tc.Kill(victim) })
		defer killT.Stop()
		restartT := time.AfterFunc(3*o.duration/4, func() { tc.Restart(victim) })
		defer restartT.Stop()
	}

	out.rep, err = loadtest.Run(ctx, cfg)
	if err != nil {
		return clusterOutcome{}, err
	}
	if kill {
		// The revived node must be back on every ring — the rejoin half
		// of the membership contract.
		out.converged = tc.WaitConverged(5 * time.Second)
	}
	out.stats = tc.Stats()
	return out, nil
}

// checkCluster asserts the cluster contract: no lost requests even
// across a kill and rejoin, forwards exercised, and membership
// reconverged.
func checkCluster(o clusterOpts, out clusterOutcome) error {
	rep := out.rep
	switch {
	case rep.Requests == 0:
		return fmt.Errorf("cluster check failed: no completed requests")
	case rep.Errors > 0:
		return fmt.Errorf("cluster check failed: %d transport errors", rep.Errors)
	case rep.Status2xx != rep.Requests:
		return fmt.Errorf("cluster check failed: %d/%d requests lost (4xx=%d 5xx=%d)",
			rep.Requests-rep.Status2xx, rep.Requests, rep.Status4xx, rep.Status5xx)
	case o.nodes > 1 && out.stats.Forwarded == 0:
		return fmt.Errorf("cluster check failed: no requests were forwarded — ownership never exercised")
	case out.killed && !out.converged:
		return fmt.Errorf("cluster check failed: ring did not reconverge after the killed node rejoined")
	}
	return nil
}

func writeClusterJSON(w io.Writer, o clusterOpts, out clusterOutcome) error {
	doc := struct {
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
		Nodes:       o.nodes,
		Concurrency: out.rep.Concurrency,
		DurationS:   out.rep.Elapsed.Seconds(),
		Killed:      out.killed,
		Local:       out.stats.Local,
		Forwarded:   out.stats.Forwarded,
		ForwardErrs: out.stats.ForwardErrors,
		Redirected:  out.stats.Redirected,
		jsonStats:   toJSONStats("", out.rep.Stats),
	}
	if out.killed {
		doc.Converged = &out.converged
	}
	if len(out.rep.Targets) > 1 {
		for _, t := range out.rep.Targets {
			doc.Targets = append(doc.Targets, toJSONStats(t.Name, t.Stats))
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

func writeClusterText(w io.Writer, o clusterOpts, out clusterOutcome) {
	fmt.Fprintf(w, "scenario=cluster nodes=%d concurrency=%d duration=%s",
		o.nodes, out.rep.Concurrency, out.rep.Elapsed.Round(time.Millisecond))
	if out.killed {
		fmt.Fprintf(w, " killed=1 converged=%t", out.converged)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "cluster: local=%d forwarded=%d forward_errors=%d redirected=%d\n",
		out.stats.Local, out.stats.Forwarded, out.stats.ForwardErrors, out.stats.Redirected)
	writeText(w, "", out.rep, nil)
}
