package mc

import (
	"context"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

// The band-curve benchmarks walk 16 x-positions × 2 bands × 32
// samples; `make bench` records them in BENCH_jobs.json and guards
// BandCurveBatch's throughput and zero-allocation steady state.

// BenchmarkBandCurveBatch is the steady-state walk: the evaluator is
// compiled once, the Band output is preallocated, and
// every curve walk rides the pooled column-batch path — zero
// allocations per op in steady state.
func BenchmarkBandCurveBatch(b *testing.B) {
	var m core.Model
	d := scenario.A11At(technode.N28)
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = 0.25 + 0.05*float64(i)
	}
	cfg := Config{Samples: 32, Seed: 1}
	out := make([]Band, len(xs))
	// Warm the pools once so the measurement is steady state.
	if err := BandCurveBatch(context.Background(), ev, cfg, xs, MetricTTM, out, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BandCurveBatch(context.Background(), ev, cfg, xs, MetricTTM, out, nil); err != nil {
			b.Fatal(err)
		}
	}
	evalsPerOp := float64(len(xs) * 2 * cfg.samples())
	b.ReportMetric(evalsPerOp*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

// TestBandCurveBatchAllocs pins the steady-state zero-allocation
// contract of the batched band walker (the hot path under
// BandCurveEval, which itself only adds the result-slice allocation).
func TestBandCurveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; pooled path allocates by design")
	}
	var m core.Model
	d := scenario.A11At(technode.N28)
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.5, 0.75, 1.0}
	cfg := Config{Samples: 64, Seed: 1}
	out := make([]Band, len(xs))
	for _, metric := range []Metric{MetricTTM, MetricCAS} {
		// Warm the call, worker, and scratch pools.
		if err := BandCurveBatch(context.Background(), ev, cfg, xs, metric, out, nil); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := BandCurveBatch(context.Background(), ev, cfg, xs, metric, out, nil); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("metric %v: BandCurveBatch allocates %v/op, want 0", metric, a)
		}
	}
}

// BenchmarkBandCurveCompiled is the same curve on BandCurveEval: design
// compiled once, chunked fan-out, zero allocations per sample.
func BenchmarkBandCurveCompiled(b *testing.B) {
	var m core.Model
	d := scenario.A11At(technode.N28)
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = 0.25 + 0.05*float64(i)
	}
	cfg := Config{Samples: 32, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bands, err := BandCurveEval(context.Background(), m, cfg, d, 10e6, market.Full(), xs, MetricTTM, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(bands) != len(xs) {
			b.Fatalf("bands = %d", len(bands))
		}
	}
	evalsPerOp := float64(len(xs) * 2 * cfg.samples())
	b.ReportMetric(evalsPerOp*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}
