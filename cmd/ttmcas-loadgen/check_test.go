package main

import (
	"strings"
	"testing"
	"time"

	"ttmcas/internal/loadtest"
)

// checkCases runs one -check contract over a clean outcome and over
// single-clause breaks of it: the clean outcome passes, and each break
// fails with a message naming its own clause (the map key).
func checkCases[T any](t *testing.T, clean T, check func(T) error, breaks map[string]func(*T)) {
	t.Helper()
	if err := check(clean); err != nil {
		t.Fatalf("clean outcome failed: %v", err)
	}
	for want, mutate := range breaks {
		out := clean
		mutate(&out)
		if err := check(out); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("breaking %q: err = %v", want, err)
		}
	}
}

// okReport is a run of n requests, every one answered 2xx, at n req/s.
func okReport(n uint64) loadtest.Report {
	return loadtest.Report{Stats: loadtest.Stats{Requests: n, Status2xx: n, RPS: float64(n)}}
}

func TestCheckChaos(t *testing.T) {
	type run struct {
		rep     loadtest.Report
		drained bool
	}
	clean := run{drained: true, rep: loadtest.Report{Stats: loadtest.Stats{
		Requests: 1000, Status2xx: 950, Status5xx: 50, Shed: 50, Stale: 5, P99: 10 * time.Millisecond,
	}}}
	checkCases(t, clean, func(r run) error { return checkChaos(r.rep, &r.drained) }, map[string]func(*run){
		"no completed requests":     func(r *run) { r.rep = loadtest.Report{} },
		"1 transport errors":        func(r *run) { r.rep.Errors = 1 },
		"only 49 deliberate sheds":  func(r *run) { r.rep.Shed = 49 },
		"every request was shed":    func(r *run) { r.rep.Requests, r.rep.Status2xx = 50, 0 },
		"goodput 800/950":           func(r *run) { r.rep.Status2xx = 800 },
		"p99 1s exceeds 500ms":      func(r *run) { r.rep.P99 = time.Second },
		"no stale serves":           func(r *run) { r.rep.Stale = 0 },
		"goroutines did not return": func(r *run) { r.drained = false },
	})
}

func TestCheckCluster(t *testing.T) {
	clean := clusterOutcome{rep: okReport(100), stats: loadtest.ClusterStats{Forwarded: 10}, killed: true, converged: true}
	check := func(out clusterOutcome) error { return checkCluster(clusterOpts{nodes: 4}, out) }
	checkCases(t, clean, check, map[string]func(*clusterOutcome){
		"no completed requests":      func(out *clusterOutcome) { out.rep = loadtest.Report{} },
		"1 transport errors":         func(out *clusterOutcome) { out.rep.Errors = 1 },
		"1/100 requests lost":        func(out *clusterOutcome) { out.rep.Status2xx, out.rep.Status5xx = 99, 1 },
		"no requests were forwarded": func(out *clusterOutcome) { out.stats.Forwarded = 0 },
		"did not reconverge":         func(out *clusterOutcome) { out.converged = false },
	})
	// A lone node has no one to forward to.
	if err := checkCluster(clusterOpts{nodes: 1}, clusterOutcome{rep: okReport(100)}); err != nil {
		t.Fatalf("single-node run: %v", err)
	}
}

func TestCheckDistjobs(t *testing.T) {
	clean := distjobsOutcome{submitted: 10, succeeded: 10, completed: 20, killed: true, converged: true}
	check := func(out distjobsOutcome) error { return checkDistjobs(distjobsOpts{nodes: 4}, out) }
	checkCases(t, clean, check, map[string]func(*distjobsOutcome){
		"no completed jobs":            func(out *distjobsOutcome) { out.succeeded = 0 },
		"1/11 jobs lost":               func(out *distjobsOutcome) { out.failed = 1 },
		"no shards completed remotely": func(out *distjobsOutcome) { out.completed = 0 },
		"did not reconverge":           func(out *distjobsOutcome) { out.converged = false },
	})
}

func TestCheckNetsplit(t *testing.T) {
	clean := netsplitOutcome{
		healthy: okReport(100), partitioned: okReport(60), healed: okReport(100),
		stats:     loadtest.ClusterStats{BreakerOpens: 2},
		jobsTotal: 4, jobsOK: 4, converged: true,
	}
	checkCases(t, clean, checkNetsplit, map[string]func(*netsplitOutcome){
		"healthy phase completed no requests":         func(out *netsplitOutcome) { out.healthy = loadtest.Report{} },
		"1 transport errors in the partitioned phase": func(out *netsplitOutcome) { out.partitioned.Errors = 1 },
		"1/100 requests lost in the healed phase":     func(out *netsplitOutcome) { out.healed.Status2xx = 99 },
		"1/4 jobs lost across the partition":          func(out *netsplitOutcome) { out.jobsOK = 3 },
		"no breaker ever opened":                      func(out *netsplitOutcome) { out.stats.BreakerOpens = 0 },
		"1 breakers still open after the heal":        func(out *netsplitOutcome) { out.stats.OpenBreakers = 1 },
		"did not reconverge":                          func(out *netsplitOutcome) { out.converged = false },
		"partitioned 40.0 req/s < 0.5 × healthy":      func(out *netsplitOutcome) { out.partitioned = okReport(40) },
	})
}
