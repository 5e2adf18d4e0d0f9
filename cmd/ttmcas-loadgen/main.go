// Command ttmcas-loadgen load-tests the ttmcas evaluation service and
// reports RPS and latency quantiles (p50/p95/p99/max). It is the
// measurement half of the serving-layer performance work: the same
// binary drives CI smoke runs, the BENCH_serve.json emitter in
// scripts/bench.sh, and ad-hoc runs against a live deployment.
//
// Usage:
//
//	ttmcas-loadgen [-target http://host:8080]
//	               [-scenario cached|uncached|mixed|chaos|timeline|cluster|distjobs|netsplit]
//	               [-c 8] [-d 5s] [-design a11] [-node 28nm] [-n 10e6]
//	               [-nodes 4] [-kill] [-seed 1] [-fault-spec "..."] [-json] [-check]
//
// With no -target the generator spins up the server in-process and
// dispatches straight into its handler — no sockets in the path — so
// the numbers measure the serving stack (routing, decoding, caches,
// evaluation, encoding) rather than the loopback interface.
//
// Scenarios:
//
//   - cached: one fixed /v1/ttm request, warmed before the clock
//     starts, so every measured request is a response-cache hit.
//   - uncached: every request carries a distinct capacity fraction, so
//     every request misses the response cache and computes — decode →
//     resolve → bind the conditions onto the design's cached compiled
//     evaluator → evaluate → encode. The evaluator cache, keyed on the
//     design alone, still hits; no request compiles.
//   - mixed: 9:1 cached:uncached, a bursty exploration workload.
//   - chaos: the availability-under-failure harness. An in-process
//     server runs with tight admission limits, short cache freshness,
//     a long stale window, and the -fault-spec fault injector enabled
//     (default: 5% errors, 2% 50ms latency spikes and one panic on
//     /v1/ttm). The mix rotates over a warmed key set plus a share of
//     heavy /v1/sensitivity traffic, so requests continuously go
//     stale, get shed, and get rescued. Requires in-process mode.
//   - timeline: the scenario-composer workload. One tiny timeline batch
//     job runs end to end through /v1/jobs first (submit, poll, fetch),
//     then a closed loop drives POST /v1/scenarios at 9:1
//     cached:uncached — the hit side measures the response cache on
//     composed-timeline bodies, the miss side the compile-every-step
//     evaluation. Requires in-process mode.
//   - distjobs: the distributed-job harness. -nodes full server stacks
//     run in-process (as in cluster); nodes×-c closed-loop workers
//     drive heavy mc-band batch jobs end to end (submit, poll, fetch)
//     with distinct seeds so ownership spreads across the ring. Each
//     job is sharded across the alive peers by the distributed
//     executor, with a synthetic per-evaluation latency floor
//     (jobs.PaceShard) so job wall time is sleep-bound and sharding is
//     a genuine ~P× speedup on one CPU. -kill kills one node a quarter
//     into the run and restarts it at three quarters; shard dispatches
//     to the dead peer hedge to the next-alive node and fall back to
//     local compute, so no job is lost. With -check, a single-node
//     baseline runs first and the run must lose zero jobs, complete
//     shards remotely, reconverge after the kill, and sustain at least
//     0.7 × nodes × baseline jobs/s.
//   - netsplit: the partition-tolerance harness. -nodes full server
//     stacks (at least 3) run in-process with paused network-fault
//     injectors armed with an asymmetric partition: every majority
//     node's traffic to the last node blackholed, the victim's own
//     outbound untouched. The run drives three phases — healthy (d/4),
//     partitioned (d/2), healed (d/4) — flips the injectors live at the
//     partition boundary, and submits one batch job per node while the
//     split is open. With -check, the partition-tolerance contract must
//     hold: zero transport errors and zero non-2xx responses in every
//     phase (forwards that hit the partition retry, trip the breaker,
//     and fall back to local compute), zero lost jobs, at least one
//     breaker opened and none still open after the heal, the ring
//     reconverged, and partitioned-phase throughput at least half the
//     healthy phase's.
//   - cluster: the scaling-contract harness. -nodes full server stacks
//     run in-process, each on a real loopback listener so peer forwards
//     travel over actual HTTP; clients dispatch straight into the node
//     a placement-aware balancer would pick (plus a deliberate 10%
//     misroute share that measures the forward hop). Every request
//     carries a distinct key and a 5ms injected compute floor, so
//     throughput is bounded by per-node service time and scales with
//     node count even on one CPU. -kill hard-kills one node a quarter
//     into the run and restarts it at three quarters, exercising the
//     suspicion → eviction → rejoin path under load. With -check, a
//     single-node baseline runs first and the run must sustain at
//     least 0.8 × nodes × baseline RPS with every request answered
//     200 — the near-linear-scaling, zero-lost-requests CI gate.
//
// -json emits one machine-readable JSON object on stdout, including
// per-status-class counts (2xx/4xx/5xx), shed and stale counts, and
// the shed rate. -check exits non-zero unless the run completed
// requests with zero transport errors and zero 5xx responses — the CI
// smoke gate. Under the chaos scenario, -check instead asserts the
// resilience contract: every 5xx is a deliberate shed (503 with
// Retry-After), goodput of admitted requests is at least 90%, p99
// stays bounded, at least one stale body was served, and the goroutine
// count returns to its pre-run baseline after the drain.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ttmcas/internal/loadtest"
	"ttmcas/internal/resilience/faultinject"
	"ttmcas/internal/server"
)

// defaultChaosSpec is the fault mix of the chaos scenario: occasional
// latency spikes, a steady error rate, and exactly one panic per run.
const defaultChaosSpec = "route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1"

// clusterFaultSpec pins every /v1/ttm evaluation to a 5ms floor. The
// scaling contract must hold on a single-core CI runner, where genuine
// N× CPU throughput is impossible; a sleep-bound service time makes
// per-node capacity latency-limited instead, which DOES scale with node
// count in-process — the same way real capacity scales when evaluation
// cost dominates.
const clusterFaultSpec = "route=/v1/ttm latency=5ms"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmcas-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttmcas-loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a live server; empty runs the server in-process")
	scenario := fs.String("scenario", "cached", "request mix: cached, uncached, mixed, chaos, timeline, cluster, distjobs or netsplit")
	concurrency := fs.Int("c", 8, "closed-loop worker count")
	duration := fs.Duration("d", 5*time.Second, "measured run duration")
	design := fs.String("design", "a11", "design name the requests evaluate")
	node := fs.String("node", "28nm", "process node the design is re-targeted to")
	chips := fs.Float64("n", 10e6, "chip count the requests evaluate")
	seed := fs.Int64("seed", 1, "target-selection RNG seed")
	faultSpec := fs.String("fault-spec", defaultChaosSpec, "fault-injection spec of the chaos scenario")
	nodes := fs.Int("nodes", 4, "cluster scenario: node count")
	kill := fs.Bool("kill", false, "cluster scenario: kill one node mid-run and restart it")
	asJSON := fs.Bool("json", false, "emit the report as one JSON object on stdout")
	check := fs.Bool("check", false, "exit non-zero unless requests completed with zero errors and zero 5xx (chaos: the resilience contract; cluster: the scaling contract)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenario == "cluster" || *scenario == "distjobs" || *scenario == "netsplit" {
		if *target != "" {
			return fmt.Errorf("scenario %s drives an in-process fleet; -target is not supported", *scenario)
		}
		if *nodes < 1 {
			return fmt.Errorf("-nodes must be at least 1")
		}
		if *scenario == "netsplit" {
			if *nodes < 3 {
				return fmt.Errorf("scenario netsplit needs at least 3 nodes (a majority side)")
			}
			return runNetsplit(netsplitOpts{
				nodes: *nodes, concurrency: *concurrency, duration: *duration,
				design: *design, node: *node, chips: *chips, seed: *seed,
				asJSON: *asJSON, check: *check,
			})
		}
		if *scenario == "distjobs" {
			return runDistjobs(distjobsOpts{
				nodes: *nodes, kill: *kill, concurrency: *concurrency, duration: *duration,
				design: *design, node: *node, chips: *chips, seed: *seed,
				asJSON: *asJSON, check: *check,
			})
		}
		return runCluster(clusterOpts{
			nodes: *nodes, kill: *kill, concurrency: *concurrency, duration: *duration,
			design: *design, node: *node, chips: *chips, seed: *seed,
			asJSON: *asJSON, check: *check,
		})
	}
	chaos := *scenario == "chaos"
	if chaos {
		if *target != "" {
			return fmt.Errorf("scenario chaos drives an in-process server; -target is not supported")
		}
		if _, err := faultinject.Parse(*faultSpec, *seed); err != nil {
			return err
		}
	}
	timeline := *scenario == "timeline"
	if timeline && *target != "" {
		return fmt.Errorf("scenario timeline drives an in-process server; -target is not supported")
	}

	cached := loadtest.Target{
		Name: "ttm-cached",
		Path: "/v1/ttm",
		Body: []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g}`, *design, *node, *chips)),
	}
	uncached := loadtest.Target{
		Name: "ttm-uncached",
		Path: "/v1/ttm",
		// A distinct capacity fraction per request defeats the response
		// cache (the evaluator cache, keyed on the design, still hits):
		// the golden ratio walks (0.05, 0.95] without repeating in any
		// practical run length.
		BodyFunc: func(seq uint64) []byte {
			f := 0.05 + 0.9*math.Mod(float64(seq)*0.6180339887498949, 1)
			return []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"capacity":%.17g}`, *design, *node, *chips, f))
		},
	}

	cfg := loadtest.Config{
		Concurrency: *concurrency,
		Duration:    *duration,
		Seed:        *seed,
	}
	// The chaos key set: a fixed rotation of capacity fractions, warmed
	// before the clock starts so every key has a body to go stale.
	const chaosKeys = 32
	chaosBodies := make([][]byte, chaosKeys)
	for i := range chaosBodies {
		f := 0.05 + 0.9*float64(i)/chaosKeys
		chaosBodies[i] = []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"capacity":%.17g}`, *design, *node, *chips, f))
	}
	sensBody := []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"samples":8}`, *design, *node, *chips))

	switch *scenario {
	case "cached":
		cached.Weight = 1
		cfg.Targets = []loadtest.Target{cached}
		cfg.Warmup = true
	case "uncached":
		uncached.Weight = 1
		cfg.Targets = []loadtest.Target{uncached}
	case "mixed":
		cached.Weight, uncached.Weight = 9, 1
		cfg.Targets = []loadtest.Target{cached, uncached}
		cfg.Warmup = true
	case "chaos":
		cfg.Targets = []loadtest.Target{
			{
				Name:     "ttm-chaos",
				Path:     "/v1/ttm",
				BodyFunc: func(seq uint64) []byte { return chaosBodies[seq%chaosKeys] },
				Weight:   9,
			},
			{Name: "sensitivity-chaos", Path: "/v1/sensitivity", Body: sensBody, Weight: 1},
		}
	case "timeline":
		// 9:1 cache hits to distinct timelines: the hit side measures the
		// response cache on composed-scenario bodies, the miss side the
		// full compile-every-step evaluation path. A distinct chip count
		// per request defeats the cache without changing the work shape.
		cfg.Targets = []loadtest.Target{
			{
				Name:   "timeline-cached",
				Path:   "/v1/scenarios",
				Body:   []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, *design, *node, *chips)),
				Weight: 9,
			},
			{
				Name: "timeline-uncached",
				Path: "/v1/scenarios",
				BodyFunc: func(seq uint64) []byte {
					return []byte(fmt.Sprintf(`{"design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, *design, *node, *chips+float64(seq+1)))
				},
				Weight: 1,
			},
		}
		cfg.Warmup = true
	default:
		return fmt.Errorf("unknown scenario %q (want cached, uncached, mixed, chaos, timeline or cluster)", *scenario)
	}

	var srv *server.Server
	if *target != "" {
		cfg.BaseURL = *target
	} else {
		scfg := server.Config{
			Logger:           log.New(io.Discard, "", 0),
			DisableAccessLog: true,
		}
		if chaos {
			// Tight admission limits make overload reachable at modest
			// concurrency; short freshness plus a long stale window keeps
			// every warmed key continuously eligible for degradation.
			scfg.CheapConcurrent = 2
			scfg.MaxConcurrent = 2
			scfg.FreshTTL = 150 * time.Millisecond
			scfg.StaleTTL = time.Minute
			scfg.FaultSpec = *faultSpec
			scfg.FaultSeed = *seed
		}
		srv = server.New(scfg)
		defer srv.Close()
		cfg.Handler = srv.Handler()
	}

	// The chaos warmup runs with the injector paused: every key gets a
	// clean cached body first, then the faults are unleashed on a
	// goroutine baseline we can check the drain against.
	var baseline int
	if chaos {
		srv.FaultInjector().Pause()
		for _, b := range chaosBodies {
			if err := warmInProcess(srv, "/v1/ttm", b); err != nil {
				return err
			}
		}
		if err := warmInProcess(srv, "/v1/sensitivity", sensBody); err != nil {
			return err
		}
		baseline = runtime.NumGoroutine()
		srv.FaultInjector().Resume()
	}

	// The timeline scenario starts with one end-to-end batch job: a tiny
	// episode submitted through /v1/jobs, polled to success, result
	// fetched — the async half of the composer exercised before the
	// synchronous load starts.
	if timeline {
		if err := runTimelineJob(srv, *design, *node, *chips); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := loadtest.Run(ctx, cfg)
	if err != nil {
		return err
	}

	// After the drain, background refreshes and shed waiters must be
	// gone: the goroutine count returning to its pre-chaos baseline is
	// the no-leak half of the availability contract.
	var drained *bool
	if chaos {
		now, ok := waitDrain(baseline+2, 10*time.Second)
		drained = &ok
		if !ok && !*asJSON {
			fmt.Fprintf(os.Stderr, "ttmcas-loadgen: goroutines did not drain: baseline %d, now %d\n", baseline, now)
		}
	}

	if *asJSON {
		if err := writeJSON(os.Stdout, *scenario, rep, drained); err != nil {
			return err
		}
	} else {
		writeText(os.Stdout, *scenario, rep, drained)
	}

	if *check {
		if chaos {
			return checkChaos(rep, drained)
		}
		switch {
		case rep.Requests == 0 || rep.RPS <= 0:
			return fmt.Errorf("check failed: no completed requests")
		case rep.Errors > 0:
			return fmt.Errorf("check failed: %d transport errors", rep.Errors)
		// The timeline mix carries genuinely heavy uncached work, so a
		// deliberate admission shed (503 + Retry-After) is the server
		// keeping its latency contract, not a failure; anything else
		// 5xx-shaped still fails the gate.
		case timeline && rep.Status5xx > rep.Shed:
			return fmt.Errorf("check failed: %d 5xx responses beyond the %d deliberate sheds", rep.Status5xx-rep.Shed, rep.Shed)
		case !timeline && rep.Status5xx > 0:
			return fmt.Errorf("check failed: %d 5xx responses", rep.Status5xx)
		}
	}
	return nil
}

// runTimelineJob drives one timeline batch job through the in-process
// server's job routes: submit, poll to a successful finish, fetch the
// result. Any other outcome fails the run.
func runTimelineJob(srv *server.Server, design, node string, chips float64) error {
	dispatch := func(method, path string, body []byte) (int, []byte) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	spec := fmt.Sprintf(`{"kind":"timeline","design":%q,"node":%q,"n":%g,"episode":"fab-fire-recovery"}`, design, node, chips)
	code, body := dispatch(http.MethodPost, "/v1/jobs", []byte(spec))
	if code != http.StatusAccepted {
		return fmt.Errorf("timeline job submit: status %d: %s", code, bytes.TrimSpace(body))
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("timeline job submit: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = dispatch(http.MethodGet, "/v1/jobs/"+v.ID, nil)
		if code != http.StatusOK {
			return fmt.Errorf("timeline job poll: status %d: %s", code, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("timeline job poll: %w", err)
		}
		switch v.Status {
		case "succeeded":
		case "pending", "running":
			if time.Now().After(deadline) {
				return fmt.Errorf("timeline job %s stuck in %s", v.ID, v.Status)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		default:
			return fmt.Errorf("timeline job %s finished %s: %s", v.ID, v.Status, bytes.TrimSpace(body))
		}
		break
	}
	if code, body = dispatch(http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil); code != http.StatusOK {
		return fmt.Errorf("timeline job result: status %d: %s", code, bytes.TrimSpace(body))
	}
	return nil
}

// warmInProcess issues one request straight into the server's handler
// and demands a 200, so the chaos run starts from a fully cached state.
func warmInProcess(srv *server.Server, path string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("warming %s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
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

// checkChaos asserts the availability contract of a chaos run: chaos
// may slow requests down or answer them degraded, but it must not make
// the service wrong, unavailable, or leaky.
func checkChaos(rep loadtest.Report, drained *bool) error {
	admitted := rep.Requests - rep.Shed
	switch {
	case rep.Requests == 0:
		return fmt.Errorf("chaos check failed: no completed requests")
	case rep.Errors > 0:
		return fmt.Errorf("chaos check failed: %d transport errors", rep.Errors)
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
	case drained != nil && !*drained:
		return fmt.Errorf("chaos check failed: goroutines did not return to baseline after drain")
	}
	return nil
}

// jsonStats is the flat machine-readable shape of one stats block,
// durations in microseconds so bench scripts can compare them without
// unit parsing.
type jsonStats struct {
	Name      string  `json:"name,omitempty"`
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	Status2xx uint64  `json:"status_2xx"`
	Status4xx uint64  `json:"status_4xx"`
	Status5xx uint64  `json:"status_5xx"`
	Shed      uint64  `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`
	Stale     uint64  `json:"stale"`
	RPS       float64 `json:"rps"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`
	MaxUs     float64 `json:"max_us"`
}

func toJSONStats(name string, s loadtest.Stats) jsonStats {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	out := jsonStats{
		Name: name, Requests: s.Requests, Errors: s.Errors,
		Status2xx: s.Status2xx, Status4xx: s.Status4xx, Status5xx: s.Status5xx,
		Shed: s.Shed, Stale: s.Stale,
		RPS: s.RPS, P50us: us(s.P50), P95us: us(s.P95), P99us: us(s.P99), MaxUs: us(s.Max),
	}
	if s.Requests > 0 {
		out.ShedRate = float64(s.Shed) / float64(s.Requests)
	}
	return out
}

func writeJSON(w io.Writer, scenario string, rep loadtest.Report, drained *bool) error {
	out := struct {
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
	}
	if len(rep.Targets) > 1 {
		for _, t := range rep.Targets {
			out.Targets = append(out.Targets, toJSONStats(t.Name, t.Stats))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func writeText(w io.Writer, scenario string, rep loadtest.Report, drained *bool) {
	fmt.Fprintf(w, "scenario=%s concurrency=%d duration=%s", scenario, rep.Concurrency, rep.Elapsed.Round(time.Millisecond))
	if drained != nil {
		fmt.Fprintf(w, " drained=%t", *drained)
	}
	fmt.Fprintln(w)
	block := func(name string, s loadtest.Stats) {
		fmt.Fprintf(w, "%-14s %10.1f req/s  %8d reqs  errors=%d  2xx=%d  4xx=%d  5xx=%d  shed=%d  stale=%d\n",
			name, s.RPS, s.Requests, s.Errors, s.Status2xx, s.Status4xx, s.Status5xx, s.Shed, s.Stale)
		fmt.Fprintf(w, "%-14s p50=%s p95=%s p99=%s max=%s\n",
			"", s.P50, s.P95, s.P99, s.Max)
	}
	block("total", rep.Stats)
	if len(rep.Targets) > 1 {
		for _, t := range rep.Targets {
			block(t.Name, t.Stats)
		}
	}
}
