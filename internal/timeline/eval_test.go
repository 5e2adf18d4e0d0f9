package timeline

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

func oracleDesigns() map[string]design.Design {
	return map[string]design.Design{
		"zen2":     scenario.Zen2(),
		"a11":      scenario.A11(),
		"a11@28nm": scenario.A11At(technode.N28),
		// Retargeted to 40 nm so the fab-fire-anchored episodes hit a
		// node the design actually fabricates on.
		"a11@40nm": scenario.A11At(technode.N40),
		// The 12 nm variant: a global queue segment must quote it as
		// shortage-2021's WithQueueAll does.
		"zen2@12nm": scenario.Zen2().Retarget(technode.N12),
	}
}

// The episode oracle: every shipped episode's first and last timeline
// steps must reproduce the anchored static scenarios' TTM and CAS
// bit-for-bit through core.Model's one-shot evaluation path. This
// is the contract that makes the composer trustworthy — wherever no
// segment is active, it IS the static model.
func TestEpisodeEndpointsMatchStaticScenarios(t *testing.T) {
	var m core.Model
	const chips = 1e6
	for _, ep := range Episodes() {
		for dname, d := range oracleDesigns() {
			t.Run(ep.Name+"/"+dname, func(t *testing.T) {
				tl, err := Compile(ep.Spec, Limits{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Evaluate(context.Background(), m, d, chips, tl, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Steps) != tl.StepCount() {
					t.Fatalf("got %d steps, want %d", len(res.Steps), tl.StepCount())
				}
				check := func(label, scenarioName string, st Step) {
					sc, ok := market.FindScenario(scenarioName)
					if !ok {
						t.Fatalf("unknown anchor scenario %q", scenarioName)
					}
					wantRes, err := m.Evaluate(d, chips, sc.Conditions)
					if err != nil {
						t.Fatalf("static evaluate(%s): %v", scenarioName, err)
					}
					wantCAS, err := m.CAS(d, chips, sc.Conditions)
					if err != nil {
						t.Fatalf("static CAS(%s): %v", scenarioName, err)
					}
					// a11 on its native 10 nm node has no production in the
					// calibrated database: both paths must agree the TTM is
					// infinite (timeline: a stalled step).
					if wantInf := math.IsInf(float64(wantRes.TTM), 1); wantInf != (st.TTMWeeks == nil) {
						t.Fatalf("%s step stalled=%v; static %s TTM is %v", label, st.TTMWeeks == nil, scenarioName, wantRes.TTM)
					}
					if st.TTMWeeks != nil && *st.TTMWeeks != float64(wantRes.TTM) {
						t.Errorf("%s TTM %v != static %s TTM %v (diff %g)",
							label, *st.TTMWeeks, scenarioName, float64(wantRes.TTM), *st.TTMWeeks-float64(wantRes.TTM))
					}
					if st.CAS != wantCAS.CAS {
						t.Errorf("%s CAS %v != static %s CAS %v (diff %g)",
							label, st.CAS, scenarioName, wantCAS.CAS, st.CAS-wantCAS.CAS)
					}
				}
				check("first", ep.StartScenario, res.Steps[0])
				check("last", ep.EndScenario, res.Steps[len(res.Steps)-1])
			})
		}
	}
}

// Evaluate must agree bit-for-bit with the timeline evaluated one step
// per EvaluateSteps call and reassembled: the parallel fan-out only
// reorders work, never changes it.
func TestSerialParallelAgree(t *testing.T) {
	var m core.Model
	d := scenario.Zen2()
	ep, _ := FindEpisode("export-control-shock")
	tl, err := Compile(ep.Spec, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(context.Background(), m, d, 1e6, tl, Options{InFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]Step, tl.StepCount())
	for i := range steps {
		if err := EvaluateSteps(context.Background(), m, d, 1e6, tl, i, i+1, steps[i:i+1], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	ser, err := AssembleResult(context.Background(), m, d, 1e6, tl, steps, Options{InFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.Steps) != len(par.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(ser.Steps), len(par.Steps))
	}
	for i := range ser.Steps {
		s, p := ser.Steps[i], par.Steps[i]
		if s.Week != p.Week || math.Float64bits(s.CAS) != math.Float64bits(p.CAS) || s.Stalled != p.Stalled || s.Conditions != p.Conditions {
			t.Fatalf("step %d differs: %+v vs %+v", i, s, p)
		}
		if (s.TTMWeeks == nil) != (p.TTMWeeks == nil) {
			t.Fatalf("step %d TTM nil-ness differs", i)
		}
		if s.TTMWeeks != nil && math.Float64bits(*s.TTMWeeks) != math.Float64bits(*p.TTMWeeks) {
			t.Fatalf("step %d TTM differs: %v vs %v", i, *s.TTMWeeks, *p.TTMWeeks)
		}
	}
	if !reflect.DeepEqual(ser.Summary, par.Summary) || !reflect.DeepEqual(ser.InFlight, par.InFlight) || ser.CostUSD != par.CostUSD {
		t.Errorf("assembled result differs:\n%+v\n%+v", ser, par)
	}
}

// The summary stats must describe the curve: disruption peaks above the
// baseline, the worst CAS dips below it, and a recovery arc recovers.
func TestSummaryStats(t *testing.T) {
	var m core.Model
	// The fab-fire episodes disrupt the 40 nm line, so the design under
	// test must fabricate there.
	d := scenario.A11At(technode.N40)
	res, err := evaluateEpisode(m, d, 1e6, "fab-fire-recovery", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.BaselineTTMWeeks == nil || s.PeakTTMWeeks == nil {
		t.Fatal("baseline or peak TTM missing")
	}
	if *s.PeakTTMWeeks <= *s.BaselineTTMWeeks {
		t.Errorf("peak TTM %v not above baseline %v", *s.PeakTTMWeeks, *s.BaselineTTMWeeks)
	}
	if s.PeakWeek <= 0 {
		t.Errorf("peak week %v, want after the outage starts", s.PeakWeek)
	}
	if s.CASDegradation <= 0 {
		t.Errorf("CAS degradation %v, want positive under a capacity loss", s.CASDegradation)
	}
	if s.MinCAS >= s.BaselineCAS {
		t.Errorf("min CAS %v not below baseline %v", s.MinCAS, s.BaselineCAS)
	}
	if s.AUCLossWeeks2 <= 0 {
		t.Errorf("AUC loss %v, want positive", s.AUCLossWeeks2)
	}
	if s.TimeToRecoverWeeks == nil {
		t.Error("recovery episode never recovered")
	} else if *s.TimeToRecoverWeeks <= 0 || *s.TimeToRecoverWeeks > 40 {
		t.Errorf("time to recover %v weeks, want within the horizon", *s.TimeToRecoverWeeks)
	}
	if s.StalledSteps != 0 {
		t.Errorf("%d stalled steps in a 75%% outage, want none", s.StalledSteps)
	}

	// single-fab-loss never recovers inside its window.
	res2, err := evaluateEpisode(m, d, 1e6, "single-fab-loss", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.TimeToRecoverWeeks != nil {
		t.Errorf("single-fab-loss reports recovery after %v weeks, want none", *res2.Summary.TimeToRecoverWeeks)
	}
	if res2.Summary.AUCLossWeeks2 <= res.Summary.AUCLossWeeks2 {
		t.Errorf("unrecovered loss AUC %v not above recovered %v",
			res2.Summary.AUCLossWeeks2, res.Summary.AUCLossWeeks2)
	}
}

// A full (depth-1) outage on a required node stalls those steps: TTM
// nil, CAS zero, and the summary counts them without poisoning peaks.
func TestStalledSteps(t *testing.T) {
	var m core.Model
	d := scenario.Zen2() // fabricates on 7nm and 12nm
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 10,
		Segments: []Segment{
			{Kind: KindFabOutage, Node: "7nm", StartWeek: 3, EndWeek: 7, Depth: 1, Ramp: RampStep},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), m, d, 1e6, tl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.StalledSteps != 4 {
		t.Errorf("stalled %d steps, want 4 (weeks 3–6)", res.Summary.StalledSteps)
	}
	for _, st := range res.Steps {
		inOutage := st.Week >= 3 && st.Week < 7
		if st.Stalled != inOutage {
			t.Errorf("week %v stalled=%v, want %v", st.Week, st.Stalled, inOutage)
		}
		if st.Stalled && st.CAS != 0 {
			t.Errorf("week %v stalled with CAS %v, want 0", st.Week, st.CAS)
		}
	}
	if res.Summary.PeakTTMWeeks != nil && math.IsInf(*res.Summary.PeakTTMWeeks, 1) {
		t.Error("peak TTM is Inf; stalled steps must stay out of the peak")
	}
}

// Cancelling the context mid-run must abort promptly with ctx.Err().
func TestEvaluateCancellation(t *testing.T) {
	var m core.Model
	d := scenario.Zen2()
	tl, err := Compile(benchSpec(4096), Limits{MaxSteps: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var steps atomic.Int64
	_, err = Evaluate(ctx, m, d, 1e6, tl, Options{OnStep: func(n uint64) {
		steps.Add(int64(n))
		cancel()
	}})
	if err != context.Canceled {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if n := steps.Load(); n >= int64(tl.StepCount()) {
		t.Errorf("all %d steps ran despite cancellation", n)
	}
}

// The in-flight study must report a promise, a simulated outcome, and a
// non-negative slip under a mid-run outage.
func TestInFlightStudy(t *testing.T) {
	var m core.Model
	d := scenario.Zen2()
	res, err := evaluateEpisode(m, d, 1e7, "export-control-shock", Options{InFlight: true})
	if err != nil {
		t.Fatal(err)
	}
	inf := res.InFlight
	if inf == nil {
		t.Fatal("in-flight study missing")
	}
	if inf.PromisedTTMWeeks == nil || inf.SimulatedTTMWeeks == nil {
		t.Fatal("in-flight TTMs missing")
	}
	// The simulated completion quantizes to lots, so allow float noise
	// around the closed-form promise — but no real beat.
	const tol = 1e-9
	if *inf.SimulatedTTMWeeks < *inf.PromisedTTMWeeks-tol {
		t.Errorf("simulated TTM %v beat the promise %v under an outage",
			*inf.SimulatedTTMWeeks, *inf.PromisedTTMWeeks)
	}
	if inf.SlipWeeks < -tol {
		t.Errorf("negative slip %v under a capacity loss", inf.SlipWeeks)
	}
	if len(inf.Nodes) == 0 {
		t.Error("no per-node outcomes")
	}
	// Without the flag the study is skipped.
	res2, err := evaluateEpisode(m, d, 1e7, "export-control-shock", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.InFlight != nil {
		t.Error("in-flight study ran without being requested")
	}
}

// evaluateEpisode compiles and evaluates a named library episode.
func evaluateEpisode(m core.Model, d design.Design, n float64, name string, opt Options) (*Result, error) {
	spec, err := Resolve(nil, name)
	if err != nil {
		return nil, err
	}
	tl, err := Compile(spec, Limits{})
	if err != nil {
		return nil, err
	}
	return Evaluate(context.Background(), m, d, n, tl, opt)
}

// TestResolve: exactly one of an inline spec and an episode name
// selects the timeline, and every other pair is an invalid spec.
func TestResolve(t *testing.T) {
	inline := &Spec{Name: "inline", HorizonWeeks: 4}
	if s, err := Resolve(inline, ""); err != nil || s.Name != "inline" {
		t.Errorf("inline: %+v, %v", s, err)
	}
	if s, err := Resolve(nil, "single-fab-loss"); err != nil || s.Name != "single-fab-loss" {
		t.Errorf("episode: %+v, %v", s, err)
	}
	for _, tc := range []struct {
		name    string
		inline  *Spec
		episode string
		want    string
	}{
		{"both", inline, "single-fab-loss", "mutually exclusive"},
		{"neither", nil, "", "needs a timeline spec or an episode name"},
		{"unknown episode", nil, "nope", `unknown episode "nope" (one of global-shortage-2020-22,`},
	} {
		_, err := Resolve(tc.inline, tc.episode)
		if !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec mentioning %q", tc.name, err, tc.want)
		}
	}
}
