package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/timeline"
)

func TestValidateAcceptsEveryKindWithDefaults(t *testing.T) {
	for _, kind := range Kinds() {
		s := Spec{Kind: kind, Design: "a11"}.normalized()
		if err := s.Validate(Limits{}); err != nil {
			t.Errorf("Validate(%s) = %v", kind, err)
		}
		if s.EstimatedEvaluations() <= 0 {
			t.Errorf("EstimatedEvaluations(%s) = %d", kind, s.EstimatedEvaluations())
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		lim  Limits
	}{
		{"missing kind", Spec{Design: "a11"}, Limits{}},
		{"unknown kind", Spec{Kind: "frobnicate", Design: "a11"}, Limits{}},
		{"missing design", Spec{Kind: KindMCBand}, Limits{}},
		{"unknown design", Spec{Kind: KindMCBand, Design: "nope"}, Limits{}},
		{"bad node", Spec{Kind: KindMCBand, Design: "a11", Node: "3nm"}, Limits{}},
		{"negative n", Spec{Kind: KindMCBand, Design: "a11", N: -1}, Limits{}},
		{"unknown scenario", Spec{Kind: KindMCBand, Design: "a11", Scenario: "nope"}, Limits{}},
		{"capacity out of range", Spec{Kind: KindMCBand, Design: "a11", Capacity: 1.5}, Limits{}},
		{"negative queue", Spec{Kind: KindMCBand, Design: "a11", QueueWeeks: -2}, Limits{}},
		{"samples over limit", Spec{Kind: KindMCBand, Design: "a11", Samples: 100}, Limits{MaxSamples: 99}},
		{"variation out of range", Spec{Kind: KindSensitivity, Design: "a11", Variation: 1}, Limits{}},
		{"too many xs", Spec{Kind: KindMCBand, Design: "a11", Xs: []float64{0.1, 0.2, 0.3}}, Limits{MaxPoints: 2}},
		{"x out of range", Spec{Kind: KindMCBand, Design: "a11", Xs: []float64{0}}, Limits{}},
		{"bad grid node", Spec{Kind: KindSweep, Design: "a11", Nodes: []string{"bogus"}}, Limits{}},
		{"bad quantity", Spec{Kind: KindSweep, Design: "a11", Quantities: []float64{-5}}, Limits{}},
		{"bad metric", Spec{Kind: KindMCBand, Design: "a11", Metric: "ipc"}, Limits{}},
		{"cache refs out of range", Spec{Kind: KindPareto, Design: "a11", CacheRefs: 3_000_000}, Limits{}},
		{"negative constraint", Spec{Kind: KindPlanPortfolio, Design: "a11", MinCAS: -1}, Limits{}},
		{"unknown portfolio scenario", Spec{Kind: KindPlanPortfolio, Design: "a11", Scenarios: []string{"nope"}}, Limits{}},
		{"negative timeout", Spec{Kind: KindMCBand, Design: "a11", TimeoutSeconds: -1}, Limits{}},
		{"evaluation budget", Spec{Kind: KindMCBand, Design: "a11", Samples: 64}, Limits{MaxEvaluations: 100}},
	}
	for _, tc := range cases {
		if err := tc.spec.normalized().Validate(tc.lim); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

// TestValidateNamesFirstLongList: a spec with several point lists over
// MaxPoints is rejected naming the first of them in field order, the
// same message on every call.
func TestValidateNamesFirstLongList(t *testing.T) {
	s := Spec{Kind: KindSweep, Design: "a11",
		Xs:         []float64{0.5, 0.6, 0.7},
		Nodes:      []string{"28", "40", "65"},
		Quantities: []float64{1e5, 1e6, 1e7},
		Scenarios:  []string{"a", "b", "c"},
	}.normalized()
	const want = "jobs: invalid spec: xs has 3 entries, max 2"
	for i := 0; i < 200; i++ {
		if err := s.Validate(Limits{MaxPoints: 2}); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}

func TestNormalizedFoldsCase(t *testing.T) {
	s := Spec{Kind: " MC-Band ", Metric: "TTM"}.normalized()
	if s.Kind != KindMCBand || s.Metric != "ttm" {
		t.Fatalf("normalized = %+v", s)
	}
}

func TestEstimatedEvaluationsMCBand(t *testing.T) {
	s := Spec{Kind: KindMCBand, Design: "a11", Samples: 10, Xs: []float64{0.5, 0.75, 1}}
	if got := s.EstimatedEvaluations(); got != 3*2*10 {
		t.Fatalf("estimate = %d, want 60", got)
	}
}

// trackerFor builds a Tracker over a throwaway job for direct runner
// calls.
func trackerFor() (Tracker, *Job) {
	j := &Job{}
	return Tracker{j}, j
}

func TestRunSensitivity(t *testing.T) {
	pr, j := trackerFor()
	// a11 must be re-targeted to a producing node: at its native node
	// TTM is infinite and the output variance degenerates.
	s := Spec{Kind: KindSensitivity, Design: "a11", Node: "28", Samples: 32, Seed: 3}.normalized()
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(SensitivityResult)
	if len(res.Inputs) != len(core.Inputs) || len(res.TotalEffect) != len(core.Inputs) {
		t.Fatalf("result shape = %+v", res)
	}
	want := uint64(32 * (len(core.Inputs) + 2))
	if j.done.Load() != want || j.total.Load() != want {
		t.Fatalf("progress = %d/%d, want %d", j.done.Load(), j.total.Load(), want)
	}
}

func TestRunSweep(t *testing.T) {
	pr, j := trackerFor()
	s := Spec{Kind: KindSweep, Design: "a11", N: 1e6,
		Nodes: []string{"28", "40"}, Quantities: []float64{1e5, 1e6}}.normalized()
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(SweepResult)
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	for _, cell := range res.Cells {
		if cell.Stalled != (cell.TTMWeeks == nil) {
			t.Fatalf("cell %+v: stalled flag inconsistent", cell)
		}
		if cell.TTMWeeks != nil && (*cell.TTMWeeks <= 0 || math.IsInf(*cell.TTMWeeks, 0)) {
			t.Fatalf("cell %+v: bad TTM", cell)
		}
	}
	if j.done.Load() != 4 {
		t.Fatalf("progress = %d, want 4", j.done.Load())
	}
	// The whole result must survive JSON encoding (no Inf leaks).
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestRunPareto(t *testing.T) {
	pr, j := trackerFor()
	s := Spec{Kind: KindPareto, Design: "ariane16", N: 1e5,
		Nodes: []string{"14"}, Quantities: []float64{1e5}, CacheRefs: 20_000}.normalized()
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(ParetoResult)
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	cell := res.Cells[0]
	if len(cell.Front) == 0 || len(cell.Front) > cell.Configs {
		t.Fatalf("front = %d of %d configs", len(cell.Front), cell.Configs)
	}
	if cell.BestPerTTM == nil {
		t.Fatal("missing best-per-TTM point")
	}
	if j.done.Load() != j.total.Load() || j.total.Load() == 0 {
		t.Fatalf("progress = %d/%d", j.done.Load(), j.total.Load())
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlanPortfolio(t *testing.T) {
	pr, j := trackerFor()
	s := Spec{Kind: KindPlanPortfolio, Design: "raven", N: 1e6,
		Scenarios: []string{"baseline"}}.normalized()
	if err := s.Validate(Limits{}); err != nil {
		// Scenario names are data-dependent; fall back to the default
		// portfolio if "baseline" is not a built-in.
		s.Scenarios = nil
	}
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(PortfolioResult)
	if len(res.Scenarios) == 0 {
		t.Fatal("no scenarios evaluated")
	}
	for _, ps := range res.Scenarios {
		if ps.Feasible && ps.Recommended == nil {
			t.Fatalf("scenario %s feasible without recommendation", ps.Scenario)
		}
		if len(ps.Options) == 0 {
			t.Fatalf("scenario %s has no options", ps.Scenario)
		}
	}
	if j.done.Load() != uint64(len(res.Scenarios)) {
		t.Fatalf("progress = %d, want %d", j.done.Load(), len(res.Scenarios))
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlanPortfolioDefaultEncodes(t *testing.T) {
	// The default portfolio spans every built-in scenario, including the
	// capacity-override ones whose split CAS used to reach +Inf; the
	// result must encode as JSON.
	pr, _ := trackerFor()
	s := Spec{Kind: KindPlanPortfolio, Design: "a11"}.normalized()
	if err := s.Validate(Limits{}); err != nil {
		t.Fatal(err)
	}
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("encoding result: %v", err)
	}
}

func TestRunPlanPortfolioCancelled(t *testing.T) {
	pr, _ := trackerFor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Spec{Kind: KindPlanPortfolio, Design: "raven"}.normalized()
	if _, err := s.run(ctx, pr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunMCBandCASMetric(t *testing.T) {
	pr, _ := trackerFor()
	s := Spec{Kind: KindMCBand, Design: "a11", Samples: 8,
		Metric: "cas", Xs: []float64{0.5, 1}}.normalized()
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(BandResult)
	if res.Metric != "cas" || len(res.Points) != 2 {
		t.Fatalf("result = %+v", res)
	}
	for _, p := range res.Points {
		if p.Mean == nil {
			t.Fatalf("CAS point with nil mean: %+v", p)
		}
	}
}

func TestValidateTimelineSpec(t *testing.T) {
	inline := &timeline.Spec{
		Base:         "baseline",
		HorizonWeeks: 10,
		Segments: []timeline.Segment{
			{Kind: timeline.KindQueueDrift, StartWeek: 1, EndWeek: 5, DeltaWeeks: 2},
		},
	}
	ok := []Spec{
		{Kind: KindTimeline, Design: "zen2"}, // defaults to the flagship episode
		{Kind: KindTimeline, Design: "zen2", Episode: "single-fab-loss"},
		{Kind: KindTimeline, Design: "zen2", Timeline: inline, InFlight: true},
	}
	for _, s := range ok {
		if err := s.normalized().Validate(Limits{}); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	bad := []struct {
		name string
		spec Spec
		lim  Limits
	}{
		{"unknown episode", Spec{Kind: KindTimeline, Design: "zen2", Episode: "nope"}, Limits{}},
		{"both spec and episode", Spec{Kind: KindTimeline, Design: "zen2",
			Episode: "single-fab-loss", Timeline: inline}, Limits{}},
		{"scenario field rejected", Spec{Kind: KindTimeline, Design: "zen2",
			Episode: "single-fab-loss", Scenario: "baseline"}, Limits{}},
		{"invalid inline spec", Spec{Kind: KindTimeline, Design: "zen2",
			Timeline: &timeline.Spec{HorizonWeeks: -1}}, Limits{}},
		{"steps over sample limit", Spec{Kind: KindTimeline, Design: "zen2",
			Timeline: inline}, Limits{MaxSamples: 5}},
		{"timeline fields on other kind", Spec{Kind: KindMCBand, Design: "a11",
			Episode: "single-fab-loss"}, Limits{}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.normalized().Validate(tc.lim)
			if err == nil {
				t.Fatal("spec accepted")
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("error %v does not wrap ErrInvalidSpec", err)
			}
		})
	}
	// Estimated work is the step count.
	s := Spec{Kind: KindTimeline, Design: "zen2", Timeline: inline}.normalized()
	if got := s.EstimatedEvaluations(); got != 11 {
		t.Errorf("EstimatedEvaluations = %d, want 11 (weeks 0–10)", got)
	}
}

func TestRunTimeline(t *testing.T) {
	pr, j := trackerFor()
	s := Spec{Kind: KindTimeline, Design: "zen2", Episode: "export-control-shock", InFlight: true}.normalized()
	out, err := s.run(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*timeline.Result)
	if res.Name != "export-control-shock" || res.Design != "zen2" {
		t.Fatalf("result header = %+v", res)
	}
	if len(res.Steps) != 53 {
		t.Fatalf("got %d steps, want 53", len(res.Steps))
	}
	if res.InFlight == nil {
		t.Fatal("in-flight study missing despite in_flight=true")
	}
	want := uint64(53)
	if j.done.Load() != want || j.total.Load() != want {
		t.Fatalf("progress = %d/%d, want %d", j.done.Load(), j.total.Load(), want)
	}
	// The result must survive the JSON round trip the HTTP layer does.
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("result not JSON-marshalable: %v", err)
	}
}

func TestRunTimelineCancelled(t *testing.T) {
	pr, _ := trackerFor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Spec{Kind: KindTimeline, Design: "zen2", Episode: "global-shortage-2020-22"}.normalized()
	if _, err := s.run(ctx, pr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
