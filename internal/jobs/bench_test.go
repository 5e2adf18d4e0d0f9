package jobs

import (
	"context"
	"testing"

	"ttmcas"
)

// BenchmarkSweepCellEval is one sweep job cell: Zen 2 re-targeted to
// 7 nm at 10 M chips under full capacity — TTM, CAS and cost.
func BenchmarkSweepCellEval(b *testing.B) {
	eval := sweepCellEval(ttmcas.Zen2(), ttmcas.Conditions{})
	cell := gridCell{node: ttmcas.N7, q: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval(cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobRun is one whole single-node job per op, at the sizes of
// the end-to-end benchmark's studies workload: a 1024-sample mc-band
// curve of each metric, a 2048-sample Sobol run, a sweep of four
// quantities over every producing node, and the default timeline
// episode. It covers what a job costs beyond its kernel: resolving the
// spec, building the grid or compiling the timeline, and assembling the
// result document.
func BenchmarkJobRun(b *testing.B) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"mc-band-ttm", Spec{Kind: KindMCBand, Design: "zen2", Metric: "ttm", Samples: 1024, Seed: 1}},
		{"mc-band-cas", Spec{Kind: KindMCBand, Design: "zen2", Metric: "cas", Samples: 1024, Seed: 1}},
		{"sensitivity", Spec{Kind: KindSensitivity, Design: "zen2", Samples: 2048, Seed: 1}},
		{"sweep", Spec{Kind: KindSweep, Design: "zen2", Quantities: []float64{1e5, 1e6, 1e7, 1e8}}},
		{"timeline", Spec{Kind: KindTimeline, Design: "zen2"}},
	}
	for _, c := range cases {
		s := c.spec.normalized()
		if err := s.Validate(Limits{}); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			pr := Tracker{&Job{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.run(context.Background(), pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
