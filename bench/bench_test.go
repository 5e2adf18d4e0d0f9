package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ttmcas/internal/server"
)

func corpusBodies(t *testing.T, seed int64) []string {
	t.Helper()
	combos, err := evaluatorCombos()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := exploreCorpus(seed, combos)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := range qs {
		out = append(out, qs[i].route+string(qs[i].appendBody(nil)))
	}
	return out
}

func TestInputsAreDeterministicPerSeed(t *testing.T) {
	a, b, c := corpusBodies(t, 1), corpusBodies(t, 1), corpusBodies(t, 2)
	if len(a) != exploreQueries {
		t.Fatalf("explore corpus has %d queries, want %d", len(a), exploreQueries)
	}
	if !slices.Equal(a, b) {
		t.Fatal("explore corpus differs between two draws with seed 1")
	}
	if slices.Equal(a, c) {
		t.Fatal("explore corpus is the same for seeds 1 and 2")
	}

	whatIf := func(seed int64) []string {
		rng := clientRand(seed, 0)
		designs := producingDesigns()
		var q query
		var out []string
		for i := 0; i < 100; i++ {
			nextWhatIf(rng, designs, &q)
			out = append(out, string(q.appendBody(nil)))
		}
		return out
	}
	if !slices.Equal(whatIf(1), whatIf(1)) || slices.Equal(whatIf(1), whatIf(2)) {
		t.Fatal("what-if bodies are not a function of the seed")
	}

	specs := func(seed int64) []string {
		g := newJobGen(clientRand(seed, 0), seed, 0, studiesCycle(), map[string]int{"mc-band": 1024})
		var out []string
		for i := 0; i < 60; i++ {
			b, err := json.Marshal(g.next())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	if !slices.Equal(specs(1), specs(1)) || slices.Equal(specs(1), specs(2)) {
		t.Fatal("job specs are not a function of the seed")
	}
}

func TestBodiesDecodeAsTheServerDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	designs := producingDesigns()
	var q query
	for i := 0; i < 50; i++ {
		nextWhatIf(rng, designs, &q)
		var req server.EvalRequest
		if err := decodeStrict(q.appendBody(nil), &req); err != nil {
			t.Fatalf("%s: %v", q.appendBody(nil), err)
		}
		if req.Design != q.design || req.N != q.n || req.Capacity != q.capacity || len(req.NodeCapacity) != len(q.nodeCaps) {
			t.Fatalf("decoded %+v from %s", req, q.appendBody(nil))
		}
		if q.curve != (len(req.Curve) == len(casCurve)) {
			t.Fatalf("curve lost in %s", q.appendBody(nil))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestFastWindows checks how a run's windows become its result: the
// rate the fastest tenth of the windows reach, and the latency quantiles
// the fastest tenth of the client windows reach.
func TestFastWindows(t *testing.T) {
	ph := newPhase(context.Background(), 10*time.Second, false, false, nil)
	for k := 0; k < 10; k++ {
		for i := range ph.clients {
			// Window k: each client completes 1000(k+1) requests, so the
			// rates are 2000, 4000, ..., 20000 per second.
			ph.clients[i].win[k] = windowStats{ops: int64(1000 * (k + 1)), p50: float64(k+1) + float64(i)/2, p99: 10 * float64(k+1), tail: true}
		}
	}
	got := ph.totals()
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*b }
	// p90 of the rates lies between the 9th and 10th: 18000 + 0.1·2000.
	// p10 of the 20 p50s (1, 1.5, ..., 10.5) lies between 1.5 and 2, of
	// the p99s (10, 10, 20, 20, ...) between 10 and 20.
	if !near(got.opsPerS, 18200) || !near(got.p50, 1.95) || !near(got.p99, 19) {
		t.Fatalf("ops_per_s %g, p50 %g, p99 %g; want 18200, 1.95, 19", got.opsPerS, got.p50, got.p99)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([5.0, 1.0], n=4): the
	// exclusive method extrapolates past two points.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    boundedMetric
		want string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{105, 106, 104}, lower, "ok"},
		{"slower beyond bound", []float64{100, 101, 99}, []float64{115, 116, 114}, lower, "REGRESSION"},
		{"faster beyond bound", []float64{100, 101, 99}, []float64{80, 81, 79}, lower, "better"},
		{"throughput drop", []float64{1000, 1010, 990}, []float64{850, 860, 840}, higher, "REGRESSION"},
		{"throughput gain", []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, higher, "better"},
		{"spread wider than bound", []float64{70, 100, 130, 90, 110}, []float64{120, 121, 119}, lower, "unresolved"},
		{"spread but every run better", []float64{70, 100, 130, 90, 110}, []float64{60, 61, 59}, lower, "better"},
		{"single runs within bound", []float64{100}, []float64{108}, lower, "ok"},
		{"single runs beyond bound", []float64{100}, []float64{130}, lower, "unresolved"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,200] ⊃ handler [10,110] ⊃ replays [10,30], [20,50] (overlapping)
	// and [90,130] (reaching past the handler's end); decode ⊃ a grandchild.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 10, End: 110},
		{ID: 3, Parent: 2, Name: "server.decode", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "server.cache_key", Start: 20, End: 50},
		{ID: 5, Parent: 2, Name: "core.eval", Start: 90, End: 130},
		{ID: 6, Parent: 3, Name: "inner", Start: 12, End: 18},
	}
	want := map[uint64]int64{1: 100, 2: 40, 3: 14, 4: 30, 5: 40, 6: 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestDiffBits(t *testing.T) {
	w := 26.0
	a := server.CASResponse{CAS: 1.5, Derivatives: map[string]float64{"7nm": 2}, Curve: []server.CASPointResponse{{Capacity: 1, TTMWeeks: &w}}}
	b := a
	b.Derivatives = map[string]float64{"7nm": 2}
	b.Curve = []server.CASPointResponse{{Capacity: 1, TTMWeeks: &w}}
	if d := diffBits(reflect.ValueOf(a), reflect.ValueOf(b), "r"); d != "" {
		t.Fatalf("equal values differ at %s", d)
	}
	b.Derivatives["7nm"] = math.Nextafter(2, 3)
	if d := diffBits(reflect.ValueOf(a), reflect.ValueOf(b), "r"); d != "r.Derivatives[7nm]" {
		t.Fatalf("one-ULP change reported at %q", d)
	}
	if d := diffBits(reflect.ValueOf(server.TTMResponse{}), reflect.ValueOf(server.TTMResponse{Dies: []server.DieResponse{}}), "r"); d != "" {
		t.Fatalf("nil and empty slices differ at %s", d)
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "explore", "--trace", "0", "-trace", "--seed", "1"})
	want := []string{"--workload", "explore", "--trace=0", "-trace", "--seed", "1"}
	if !slices.Equal(got, want) {
		t.Fatalf("joinTraceValue = %q, want %q", got, want)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against what the benchmark
// prints: the same workloads and metrics, with bounds of at most 25%
// and setup_s's the largest.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	var maxBound float64
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must carry the largest bound")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, d)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", spec.RunSeconds, defaultSeconds)
	}
}

// TestTracedCluster runs both cluster workloads traced: forwarded
// requests and remote shards are linked to the operations that caused
// them, so the per-layer metrics of the hop, the ring and the shards
// are measured, and every per-layer metric is reported.
func TestTracedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	for _, tc := range []struct {
		workload string
		measured []string
	}{
		{"cluster-fwd", []string{"server.handler_us.p50", "server.decode_us.p50", "core.eval_us.p50", "server.encode_us.p50",
			"cluster.forwarded_ratio", "cluster.forward_hop_us.p50", "cluster.ring_owner_ns.p50", "bench.gen_overhead_us.p50"}},
		{"cluster-dist", []string{"jobs.run_ms.p50.mc-band", "jobs.run_ms.p50.sensitivity", "jobs.shards_per_job",
			"jobs.shard_exec_ms.p50", "jobs.shard_kb", "jobs.polls_per_job"}},
	} {
		var log strings.Builder
		res, err := runWorkload(context.Background(), runConfig{
			workload: tc.workload, seed: 1, measure: 2 * time.Second, warmup: 100 * time.Millisecond,
			setups: 1, trace: true, traceDir: t.TempDir(),
		}, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.workload, err, log.String())
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, want the %d per-layer ones", tc.workload, len(res.Metrics), len(perLayer))
		}
		for _, name := range tc.measured {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a measured value", tc.workload, name, res.Metrics[name].Value)
			}
		}
	}
}

// TestSmoke runs every workload for a second with the oracle on: no
// failed operation and no mismatch on any of them.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	var log strings.Builder
	if err := runSmoke(context.Background(), 1, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	t.Logf("smoke took %s\n%s", time.Since(start).Round(time.Millisecond), log.String())
}
