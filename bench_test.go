package ttmcas_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (go test -bench=.). Each BenchmarkFigNN /
// BenchmarkTableN times one full regeneration at a moderate sampling
// budget and, on the first iteration, asserts the result is
// structurally sound. Ablation benchmarks time the design alternatives
// DESIGN.md calls out (yield-model family, edge-die correction, CAS
// derivative step, closed-form vs discrete-event fabrication); the
// Saltelli-vs-naive Sobol ablation lives with its estimator in
// internal/sens.

import (
	"math"
	"testing"

	"ttmcas"
	"ttmcas/internal/cachesim"
	"ttmcas/internal/core"
	"ttmcas/internal/fabsim"
	"ttmcas/internal/figures"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// benchConfig trades some Monte-Carlo resolution for bench runtime
// while keeping every sweep axis at full size.
var benchConfig = ttmcas.FigureConfig{
	MCSamples:      256,
	CurveSamples:   64,
	CacheRefs:      400_000,
	SobolN:         128,
	SplitStep:      0.05,
	CapacityPoints: 9,
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := ttmcas.Figure(id, benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && (len(r.Sections) == 0 || r.Render() == "") {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// One benchmark per paper figure and table.

func BenchmarkFig03(b *testing.B)  { benchFigure(b, "3") }
func BenchmarkFig04(b *testing.B)  { benchFigure(b, "4") }
func BenchmarkFig05(b *testing.B)  { benchFigure(b, "5") }
func BenchmarkFig06(b *testing.B)  { benchFigure(b, "6") }
func BenchmarkFig07(b *testing.B)  { benchFigure(b, "7") }
func BenchmarkFig08(b *testing.B)  { benchFigure(b, "8") }
func BenchmarkFig09(b *testing.B)  { benchFigure(b, "9") }
func BenchmarkFig10(b *testing.B)  { benchFigure(b, "10") }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "11") }
func BenchmarkFig12(b *testing.B)  { benchFigure(b, "12") }
func BenchmarkFig13(b *testing.B)  { benchFigure(b, "13") }
func BenchmarkFig14(b *testing.B)  { benchFigure(b, "14") }
func BenchmarkTable1(b *testing.B) { benchFigure(b, "t1") }
func BenchmarkTable2(b *testing.B) { benchFigure(b, "t2") }
func BenchmarkTable3(b *testing.B) { benchFigure(b, "t3") }
func BenchmarkTable4(b *testing.B) { benchFigure(b, "t4") }

// Extension studies (DESIGN.md: optional/future-work features).

func BenchmarkExt1Speculative(b *testing.B) { benchFigure(b, "x1") }
func BenchmarkExt2Disruption(b *testing.B)  { benchFigure(b, "x2") }
func BenchmarkExt3Salvage(b *testing.B)     { benchFigure(b, "x3") }
func BenchmarkExt4Workloads(b *testing.B)   { benchFigure(b, "x4") }
func BenchmarkExt5Hoarding(b *testing.B)    { benchFigure(b, "x5") }
func BenchmarkExt6BreakEven(b *testing.B)   { benchFigure(b, "x6") }
func BenchmarkExt7Shortage(b *testing.B)    { benchFigure(b, "x7") }

// Core-model microbenchmarks.

func BenchmarkTTMEvaluate(b *testing.B) {
	d := scenario.Zen2()
	var m core.Model
	c := market.Full()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(d, 10e6, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCAS(b *testing.B) {
	d := scenario.Zen2()
	var m core.Model
	c := market.Full()
	for i := 0; i < b.N; i++ {
		if _, err := m.CAS(d, 10e6, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostEvaluate(b *testing.B) {
	d := scenario.Zen2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ttmcas.Cost(d, 10e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheSimAccess(b *testing.B) {
	// Throughput of the cache-simulator substrate in refs/op.
	gen := cachesim.NewGenerator(cachesim.SPECLike())
	trace := make([]cachesim.Ref, 1_000_000)
	for i := range trace {
		trace[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cachesim.New(cachesim.Config{SizeBytes: 32 * 1024})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range trace {
			c.Access(r.Addr)
		}
	}
	b.SetBytes(int64(len(trace)))
}

func BenchmarkFabsim(b *testing.B) {
	cfg := fabsim.Config{Rate: 80_000, FabLatency: 12, TAPLatency: 6}
	for i := 0; i < b.N; i++ {
		if _, err := fabsim.Run(cfg, 150_000, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: alternatives to the paper's design choices.

func BenchmarkAblationYieldModel(b *testing.B) {
	d := scenario.A11At(technode.N90)
	c := market.Full()
	for _, ym := range []yield.Model{yield.NegativeBinomial, yield.Poisson, yield.Murphy} {
		b.Run(ym.String(), func(b *testing.B) {
			m := core.Model{YieldModel: ym}
			var last units.Weeks
			for i := 0; i < b.N; i++ {
				t, err := m.TTM(d, 10e6, c)
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			b.ReportMetric(float64(last), "ttm-weeks")
		})
	}
}

func BenchmarkAblationEdgeCorrection(b *testing.B) {
	d := scenario.A11At(technode.N90)
	c := market.Full()
	for _, noEdge := range []bool{false, true} {
		name := "corrected"
		if noEdge {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			m := core.Model{NoEdgeCorrection: noEdge}
			var last units.Weeks
			for i := 0; i < b.N; i++ {
				t, err := m.TTM(d, 10e6, c)
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			b.ReportMetric(float64(last), "ttm-weeks")
		})
	}
}

func BenchmarkAblationCASStep(b *testing.B) {
	d := scenario.A11At(technode.N7)
	c := market.Full()
	var m core.Model
	for _, h := range []float64{0.001, 0.01, 0.1} {
		b.Run(report(h), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := m.CASWithStep(d, 10e6, c, h)
				if err != nil {
					b.Fatal(err)
				}
				last = r.CAS
			}
			b.ReportMetric(last, "cas")
		})
	}
}

func BenchmarkAblationFabClosedFormVsDES(b *testing.B) {
	cfg := fabsim.Config{Rate: 80_000, FabLatency: 12, TAPLatency: 6}
	b.Run("closed-form", func(b *testing.B) {
		var last units.Weeks
		for i := 0; i < b.N; i++ {
			// Eqs. 4–5: queue/μ + N_W/μ + L_fab.
			last = units.Weeks(10_000/float64(cfg.Rate) + 150_000/float64(cfg.Rate) + float64(cfg.FabLatency))
		}
		b.ReportMetric(float64(last), "weeks")
	})
	b.Run("discrete-event", func(b *testing.B) {
		var last units.Weeks
		for i := 0; i < b.N; i++ {
			r, err := fabsim.Run(cfg, 150_000, 10_000, nil)
			if err != nil {
				b.Fatal(err)
			}
			last = r.LastFabComplete
		}
		b.ReportMetric(float64(last), "weeks")
	})
}

// report renders a step size as a bench sub-name.
func report(h float64) string {
	switch {
	case h < 0.005:
		return "h=0.001"
	case h < 0.05:
		return "h=0.01"
	default:
		return "h=0.1"
	}
}

// Verify the headline reproduction claims stay true under the bench
// configuration too (guards against benchmarks silently drifting away
// from the paper's shapes).
func TestBenchConfigPreservesHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-config check is not short")
	}
	r, err := figures.Generate("10", benchConfig)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Data.(figures.Fig10Data)
	if d.Fastest[1e7] != technode.N28 {
		t.Errorf("fastest node for 10M A11 under bench config = %s", d.Fastest[1e7])
	}
	// Headline: re-releasing on an older node (28nm) beats the most
	// advanced node (5nm) by 73–116% TTM (paper's range); check ours
	// lands in a compatible band.
	speedup := float64(d.TTM[technode.N5][1e7])/float64(d.TTM[technode.N28][1e7]) - 1
	if speedup < 0.5 || speedup > 1.5 {
		t.Errorf("older-node advantage = %.0f%%, want within ~50–150%%", speedup*100)
	}
	if math.IsNaN(speedup) {
		t.Error("NaN speedup")
	}
}
