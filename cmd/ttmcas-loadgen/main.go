// Command ttmcas-loadgen drives the ttmcas evaluation service through
// its availability and fleet scenarios and reports RPS and latency
// quantiles (p50/p95/p99/max). Each scenario carries a contract that
// -check turns into the exit status: the CI smokes in scripts/check.sh
// and the distjobs and netsplit records of scripts/bench.sh run it that
// way. The paths a user hits — /v1/ttm cache hits and misses — are
// measured end to end, with an oracle, by bench/run.sh.
//
// Usage:
//
//	ttmcas-loadgen [-scenario chaos|timeline|cluster|distjobs|netsplit]
//	               [-c 8] [-d 5s] [-design a11] [-node 28nm] [-n 10e6]
//	               [-nodes 4] [-kill] [-seed 1] [-fault-spec "..."] [-json] [-check]
//
// Every scenario runs its servers in-process and dispatches client
// requests straight into their handlers — no sockets in the client's
// path — so the numbers measure the serving stack (routing, decoding,
// caches, evaluation, encoding) rather than the loopback interface.
// The fleet scenarios (cluster, distjobs, netsplit) give each node a
// real loopback listener, so peer forwards travel over actual HTTP.
//
// Scenarios:
//
//   - chaos: the availability-under-failure harness. One server runs
//     with tight admission limits and the -fault-spec fault injector
//     enabled (default: 5% errors, 2% 50ms latency spikes and one panic
//     on /v1/ttm). Faults strike only the compute path behind the
//     cache, so the mix is mostly warmed keys (ttm-hit 8, a heavy
//     sensitivity-hit 1) plus a ttm-fresh share (1) with a distinct chip
//     count per request that always computes and meets the faults.
//     Contract: every *-hit target answers 100% 2xx, every 5xx is a
//     deliberate shed (503 with Retry-After) or one of the injector's
//     contained panics (a JSON 500), goodput of admitted requests is at
//     least 90%, p99 stays under 500ms, and the goroutine count returns
//     to its pre-run baseline.
//   - timeline: the scenario-composer workload. One tiny timeline batch
//     job runs end to end through /v1/jobs first (submit, poll, fetch),
//     then a closed loop drives POST /v1/scenarios at 9:1
//     cached:uncached — the hit side measures the response cache on
//     composed-timeline bodies, the miss side the compile-every-step
//     evaluation. Contract: requests complete, and every 5xx is a
//     deliberate shed.
//   - cluster: the membership harness. -nodes servers share one ring;
//     clients dispatch straight into the node a placement-aware
//     balancer would pick, plus a deliberate 10% misroute share that
//     takes one forward hop. Every request carries a distinct key. -kill
//     hard-kills one node a quarter into the run and restarts it at
//     three quarters, exercising suspicion → eviction → rejoin under
//     load. Contract: every request answered 200, forwards exercised,
//     and after a kill the node restarted and the ring reconverged.
//   - distjobs: the distributed-job harness. nodes×-c closed-loop
//     workers drive heavy mc-band batch jobs end to end (submit, poll,
//     fetch) with distinct seeds, so ownership spreads across the ring
//     and each job is sharded across the alive peers. With -kill, shard
//     dispatches to the dead peer hedge to the next-alive node and fall
//     back to local compute. Contract: zero lost jobs, shards completed
//     remotely, and after a kill the node restarted and the ring
//     reconverged.
//   - netsplit: the partition-tolerance harness. At least 3 nodes run
//     with paused fault injectors armed with an asymmetric partition:
//     every majority node's traffic to the last node blackholed, the
//     victim's own outbound untouched. The run drives three phases —
//     healthy (d/4), partitioned (d/2), healed (d/4) — and submits one
//     batch job per node while the split is open. Contract: every
//     request answered 2xx in every phase, zero lost jobs, at least one
//     breaker opened and none still open after the heal, the ring
//     reconverged, and partitioned-phase throughput at least half the
//     healthy phase's.
//
// -json emits one machine-readable JSON object on stdout, including
// per-status-class counts (2xx/4xx/5xx), the shed count and the shed
// rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ttmcas/internal/loadtest"
)

// opts is the parsed command line every scenario reads.
type opts struct {
	concurrency int // closed-loop workers; the fleet scenarios run this many per node
	duration    time.Duration
	design      string
	node        string
	chips       float64
	seed        int64
	faultSpec   string // chaos
	nodes       int    // fleet scenarios
	kill        bool   // cluster and distjobs
}

// outcome is one finished scenario run: it renders itself and checks
// its scenario's contract.
type outcome interface {
	writeJSON(w io.Writer) error
	writeText(w io.Writer)
	check() error
}

// scenarios is the one list of scenarios: the -scenario usage, the
// dispatch and the unknown-scenario error all read it.
var scenarios = []struct {
	name string
	run  func(ctx context.Context, o opts) (outcome, error)
}{
	{"chaos", runChaos},
	{"timeline", runTimeline},
	{"cluster", runCluster},
	{"distjobs", runDistjobs},
	{"netsplit", runNetsplit},
}

// scenarioNames lists the scenarios as "a, b or c".
func scenarioNames() string {
	var b strings.Builder
	for i, sc := range scenarios {
		switch {
		case i == len(scenarios)-1 && i > 0:
			b.WriteString(" or ")
		case i > 0:
			b.WriteString(", ")
		}
		b.WriteString(sc.name)
	}
	return b.String()
}

// discard is the logger of every in-process server.
var discard = log.New(io.Discard, "", 0)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmcas-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttmcas-loadgen", flag.ContinueOnError)
	var o opts
	scenario := fs.String("scenario", "chaos", "scenario to run: "+scenarioNames())
	fs.IntVar(&o.concurrency, "c", 8, "closed-loop worker count (cluster, distjobs, netsplit: per node)")
	fs.DurationVar(&o.duration, "d", 5*time.Second, "measured run duration")
	fs.StringVar(&o.design, "design", "a11", "design name the requests evaluate")
	fs.StringVar(&o.node, "node", "28nm", "process node the design is re-targeted to")
	fs.Float64Var(&o.chips, "n", 10e6, "chip count the requests evaluate")
	fs.Int64Var(&o.seed, "seed", 1, "target-selection and fault RNG seed")
	fs.StringVar(&o.faultSpec, "fault-spec", defaultChaosSpec, "fault-injection spec of the chaos scenario")
	fs.IntVar(&o.nodes, "nodes", 4, "cluster, distjobs, netsplit: node count")
	fs.BoolVar(&o.kill, "kill", false, "cluster, distjobs: kill one node mid-run and restart it")
	asJSON := fs.Bool("json", false, "emit the report as one JSON object on stdout")
	check := fs.Bool("check", false, "exit non-zero unless the run meets its scenario's contract")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, sc := range scenarios {
		if sc.name != *scenario {
			continue
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		out, err := sc.run(ctx, o)
		if err != nil {
			return err
		}
		if *asJSON {
			err = out.writeJSON(os.Stdout)
		} else {
			out.writeText(os.Stdout)
		}
		if err == nil && *check {
			err = out.check()
		}
		return err
	}
	return fmt.Errorf("unknown scenario %q (want %s)", *scenario, scenarioNames())
}

// jsonStats is the flat machine-readable shape of one stats block,
// durations in microseconds so scripts can compare them without unit
// parsing.
type jsonStats struct {
	Name      string  `json:"name,omitempty"`
	Requests  uint64  `json:"requests"`
	Status2xx uint64  `json:"status_2xx"`
	Status4xx uint64  `json:"status_4xx"`
	Status5xx uint64  `json:"status_5xx"`
	Shed      uint64  `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`
	RPS       float64 `json:"rps"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`
	MaxUs     float64 `json:"max_us"`
}

func toJSONStats(name string, s loadtest.Stats) jsonStats {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	out := jsonStats{
		Name: name, Requests: s.Requests,
		Status2xx: s.Status2xx, Status4xx: s.Status4xx, Status5xx: s.Status5xx, Shed: s.Shed,
		RPS: s.RPS, P50us: us(s.P50), P95us: us(s.P95), P99us: us(s.P99), MaxUs: us(s.Max),
	}
	if s.Requests > 0 {
		out.ShedRate = float64(s.Shed) / float64(s.Requests)
	}
	return out
}

// targetsJSON is the per-target breakdown of a mix, nil for a single
// target (the aggregate already says it all).
func targetsJSON(rep loadtest.Report) []jsonStats {
	if len(rep.Targets) < 2 {
		return nil
	}
	out := make([]jsonStats, len(rep.Targets))
	for i, t := range rep.Targets {
		out[i] = toJSONStats(t.Name, t.Stats)
	}
	return out
}

// writeStats prints rep's aggregate under label, then each target of a
// mix.
func writeStats(w io.Writer, label string, rep loadtest.Report) {
	block := func(name string, s loadtest.Stats) {
		fmt.Fprintf(w, "%-14s %10.1f req/s  %8d reqs  2xx=%d  4xx=%d  5xx=%d  shed=%d\n",
			name, s.RPS, s.Requests, s.Status2xx, s.Status4xx, s.Status5xx, s.Shed)
		fmt.Fprintf(w, "%-14s p50=%s p95=%s p99=%s max=%s\n",
			"", s.P50, s.P95, s.P99, s.Max)
	}
	block(label, rep.Stats)
	if len(rep.Targets) > 1 {
		for _, t := range rep.Targets {
			block(t.Name, t.Stats)
		}
	}
}

// writeRunJSON renders a single-server run; drained is set for chaos.
func writeRunJSON(w io.Writer, scenario string, rep loadtest.Report, drained *bool) error {
	return json.NewEncoder(w).Encode(struct {
		Scenario    string  `json:"scenario"`
		Concurrency int     `json:"concurrency"`
		DurationS   float64 `json:"duration_s"`
		Drained     *bool   `json:"drained,omitempty"`
		jsonStats
		Targets []jsonStats `json:"targets,omitempty"`
	}{
		Scenario:    scenario,
		Concurrency: rep.Concurrency,
		DurationS:   rep.Elapsed.Seconds(),
		Drained:     drained,
		jsonStats:   toJSONStats("", rep.Stats),
		Targets:     targetsJSON(rep),
	})
}

// writeRunText renders a single-server run; drained is set for chaos.
func writeRunText(w io.Writer, scenario string, rep loadtest.Report, drained *bool) {
	fmt.Fprintf(w, "scenario=%s concurrency=%d duration=%s", scenario, rep.Concurrency, rep.Elapsed.Round(time.Millisecond))
	if drained != nil {
		fmt.Fprintf(w, " drained=%t", *drained)
	}
	fmt.Fprintln(w)
	writeStats(w, "total", rep)
}
