package timeline

import (
	"context"
	"fmt"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/scenario"
)

// benchSpec builds a step-heavy timeline: a fine sampling interval over
// the global-shortage episode's mechanisms, sized to the requested step
// count so the sweep scaling is visible.
func benchSpec(steps int) Spec {
	horizon := 104.0
	return Spec{
		Name:         "bench",
		Base:         "baseline",
		HorizonWeeks: horizon,
		StepWeeks:    horizon / float64(steps-1),
		Segments: []Segment{
			{Kind: KindQueueDrift, StartWeek: 8, EndWeek: 40, DeltaWeeks: 4},
			{Kind: KindDemandShock, StartWeek: 10, EndWeek: 22, Multiplier: 2.2, Utilization: 0.5, Hoarding: true},
			{Kind: KindFabOutage, Node: "7nm", StartWeek: 20, EndWeek: 60,
				Depth: 0.4, Ramp: RampExp, RampWeeks: 8, RecoverWeeks: 16},
		},
	}
}

func benchEvaluate(b *testing.B, steps int) {
	var m core.Model
	d := scenario.Zen2()
	tl, err := Compile(benchSpec(steps), Limits{})
	if err != nil {
		b.Fatal(err)
	}
	if got := tl.StepCount(); got != steps {
		b.Fatalf("bench spec compiled to %d steps, want %d", got, steps)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(context.Background(), m, d, 1e6, tl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stepsPerSec := float64(steps) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(stepsPerSec, "steps/s")
}

// BenchmarkTimelineParallel times Evaluate, whose steps fan out over
// GOMAXPROCS workers; `make bench` records it in BENCH_timeline.json.
func BenchmarkTimelineParallel(b *testing.B) {
	for _, steps := range []int{64, 512} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			benchEvaluate(b, steps)
		})
	}
}
