package sens

import (
	"context"
	"math"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

// BenchmarkSobolBatch runs the estimator through TotalEffectBatch with
// a column-consuming stand-in model whose per-row cost is comparable
// to a cheap model evaluation, so the figure is dominated by driver
// overhead (sample draws, dispatch, the reduction). `make bench`
// records it in BENCH_jobs.json.
func BenchmarkSobolBatch(b *testing.B) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	factory := func() (BatchEval, error) {
		return func(cols [][]float64, out []float64) error {
			for j := range out {
				s := 0.0
				for i, col := range cols {
					v := col[j]
					s += math.Sin(float64(i+1)*v) + v*v
				}
				out[j] = s
			}
			return nil
		}, nil
	}
	cfg := Config{N: 128, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TotalEffectBatch(context.Background(), names, cfg, factory)
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluations == 0 {
			b.Fatal("no evaluations")
		}
	}
	evalsPerOp := float64(cfg.n() * (len(names) + 2))
	b.ReportMetric(evalsPerOp*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkAblationSobolEstimator is the Saltelli-vs-naive estimator
// ablation of DESIGN.md §6: both estimators spend the same N·(k+2)
// budget of one-shot core.Model TTM evaluations of the A11 at 28 nm.
func BenchmarkAblationSobolEstimator(b *testing.B) {
	model := ttmModel(scenario.A11At(technode.N28), market.Full())
	cfg := Config{N: 128, Seed: 1}
	b.Run("saltelli", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := totalEffectOf(context.Background(), core.Inputs, cfg, model); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := naiveTotalEffect(context.Background(), core.Inputs, cfg, model); err != nil {
				b.Fatal(err)
			}
		}
	})
}
