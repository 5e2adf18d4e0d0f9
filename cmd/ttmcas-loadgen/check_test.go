package main

import (
	"errors"
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

// restartFailed is a kill whose restart could not re-listen: the ring
// cannot reconverge either, but the contract must name the restart.
func restartFailed(k *killResult) {
	k.restartErr = errors.New("listen tcp 127.0.0.1:4000: bind: address already in use")
	k.converged = false
}

func TestCheckChaos(t *testing.T) {
	clean := chaosOutcome{drained: true, rep: loadtest.Report{Stats: loadtest.Stats{
		Requests: 1000, Status2xx: 950, Status5xx: 50, Shed: 50, Stale: 5, P99: 10 * time.Millisecond,
	}}}
	checkCases(t, clean, chaosOutcome.check, map[string]func(*chaosOutcome){
		"no completed requests":     func(r *chaosOutcome) { r.rep = loadtest.Report{} },
		"only 49 deliberate sheds":  func(r *chaosOutcome) { r.rep.Shed = 49 },
		"every request was shed":    func(r *chaosOutcome) { r.rep.Requests, r.rep.Status2xx = 50, 0 },
		"goodput 800/950":           func(r *chaosOutcome) { r.rep.Status2xx = 800 },
		"p99 1s exceeds 500ms":      func(r *chaosOutcome) { r.rep.P99 = time.Second },
		"no stale serves":           func(r *chaosOutcome) { r.rep.Stale = 0 },
		"goroutines did not return": func(r *chaosOutcome) { r.drained = false },
	})
}

func TestCheckTimeline(t *testing.T) {
	clean := timelineOutcome{rep: okReport(100)}
	clean.rep.Status2xx, clean.rep.Status5xx, clean.rep.Shed = 95, 5, 5
	checkCases(t, clean, timelineOutcome.check, map[string]func(*timelineOutcome){
		"no completed requests":                         func(out *timelineOutcome) { out.rep = loadtest.Report{} },
		"1 5xx responses beyond the 4 deliberate sheds": func(out *timelineOutcome) { out.rep.Shed = 4 },
	})
}

func TestCheckCluster(t *testing.T) {
	clean := clusterOutcome{
		nodes: 4, rep: okReport(100), stats: loadtest.ClusterStats{Forwarded: 10},
		kill: killResult{killed: true, converged: true},
	}
	checkCases(t, clean, clusterOutcome.check, map[string]func(*clusterOutcome){
		"no completed requests":      func(out *clusterOutcome) { out.rep = loadtest.Report{} },
		"1/100 requests lost":        func(out *clusterOutcome) { out.rep.Status2xx, out.rep.Status5xx = 99, 1 },
		"no requests were forwarded": func(out *clusterOutcome) { out.stats.Forwarded = 0 },
		"did not reconverge":         func(out *clusterOutcome) { out.kill.converged = false },
		"killed node did not restart: listen tcp 127.0.0.1:4000: bind": func(out *clusterOutcome) { restartFailed(&out.kill) },
	})
	// A lone node has no one to forward to.
	if err := (clusterOutcome{nodes: 1, rep: okReport(100)}).check(); err != nil {
		t.Fatalf("single-node run: %v", err)
	}
}

func TestCheckDistjobs(t *testing.T) {
	clean := distjobsOutcome{
		nodes: 4, submitted: 10, succeeded: 10, completed: 20,
		kill: killResult{killed: true, converged: true},
	}
	checkCases(t, clean, distjobsOutcome.check, map[string]func(*distjobsOutcome){
		"no completed jobs":            func(out *distjobsOutcome) { out.succeeded = 0 },
		"1/11 jobs lost":               func(out *distjobsOutcome) { out.failed = 1 },
		"no shards completed remotely": func(out *distjobsOutcome) { out.completed = 0 },
		"did not reconverge":           func(out *distjobsOutcome) { out.kill.converged = false },
		"killed node did not restart: listen tcp 127.0.0.1:4000: bind": func(out *distjobsOutcome) { restartFailed(&out.kill) },
	})
}

func TestCheckNetsplit(t *testing.T) {
	clean := netsplitOutcome{
		nodes:   4,
		healthy: okReport(100), partitioned: okReport(60), healed: okReport(100),
		stats:     loadtest.ClusterStats{BreakerOpens: 2},
		jobsTotal: 4, jobsOK: 4, converged: true,
	}
	checkCases(t, clean, netsplitOutcome.check, map[string]func(*netsplitOutcome){
		"healthy phase completed no requests":     func(out *netsplitOutcome) { out.healthy = loadtest.Report{} },
		"1/100 requests lost in the healed phase": func(out *netsplitOutcome) { out.healed.Status2xx = 99 },
		"1/4 jobs lost across the partition":      func(out *netsplitOutcome) { out.jobsOK = 3 },
		"no breaker ever opened":                  func(out *netsplitOutcome) { out.stats.BreakerOpens = 0 },
		"1 breakers still open after the heal":    func(out *netsplitOutcome) { out.stats.OpenBreakers = 1 },
		"did not reconverge":                      func(out *netsplitOutcome) { out.converged = false },
		"partitioned 40.0 req/s < 0.5 × healthy":  func(out *netsplitOutcome) { out.partitioned = okReport(40) },
	})
}

// TestUnknownScenarioNamesAll pins the one scenario table: the error
// for an unknown -scenario lists every scenario the dispatch knows.
func TestUnknownScenarioNamesAll(t *testing.T) {
	err := run([]string{"-scenario", "nope"})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	const want = `unknown scenario "nope" (want chaos, timeline, cluster, distjobs or netsplit)`
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	for _, sc := range scenarios {
		if !strings.Contains(err.Error(), sc.name) {
			t.Errorf("error omits scenario %q", sc.name)
		}
	}
}
