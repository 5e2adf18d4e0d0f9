package timeline

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/sweep"
	"ttmcas/internal/units"
)

// Options tune an evaluation run.
type Options struct {
	// InFlight also runs the discrete-event in-flight study: an order
	// placed at week 0 simulated through the composed capacity curve
	// (core.EvaluateOperational), answering "what happens to chips
	// already on the line" — the question the per-step snapshots, which
	// re-quote at every step, cannot.
	InFlight bool
	// OnStep, when set, is told the step count of each completed batch
	// of steps (progress).
	OnStep func(n uint64)
}

// Step is one evaluated point of the timeline.
type Step struct {
	// Week is the simulation time of the step.
	Week float64 `json:"week"`
	// TTMWeeks is the time-to-market quoted at this step's conditions;
	// nil (with Stalled set) when a required node is at zero capacity.
	TTMWeeks *float64 `json:"ttm_weeks"`
	Stalled  bool     `json:"stalled,omitempty"`
	// CAS is the Chip Agility Score at this step's conditions.
	CAS float64 `json:"cas"`
	// Conditions summarizes the composed market state.
	Conditions string `json:"conditions"`
}

// Summary aggregates a timeline run.
type Summary struct {
	// BaselineTTMWeeks and BaselineCAS are the step-0 values — the
	// pre-disruption promise every later step is measured against.
	BaselineTTMWeeks *float64 `json:"baseline_ttm_weeks"`
	BaselineCAS      float64  `json:"baseline_cas"`
	// PeakTTMWeeks is the worst finite TTM along the timeline and
	// PeakWeek when it occurs.
	PeakTTMWeeks *float64 `json:"peak_ttm_weeks"`
	PeakWeek     float64  `json:"peak_week"`
	// MinCAS is the worst agility score and CASDegradation the drop
	// from the baseline — "peak CAS degradation" in the plots.
	MinCAS         float64 `json:"min_cas"`
	MinCASWeek     float64 `json:"min_cas_week"`
	CASDegradation float64 `json:"cas_degradation"`
	// TimeToRecoverWeeks is how long after the TTM peak the quote
	// returns within 5% of the baseline; nil when it never does inside
	// the window.
	TimeToRecoverWeeks *float64 `json:"time_to_recover_weeks"`
	// AUCLossWeeks2 is the area under the excess-TTM curve,
	// Σ max(0, TTM(t) − TTM(0))·Δt in week² — the integrated schedule
	// damage of the whole episode, not just its worst moment.
	AUCLossWeeks2 float64 `json:"auc_loss_weeks2"`
	// StalledSteps counts steps where production never completes; they
	// are excluded from the peak and the area.
	StalledSteps int `json:"stalled_steps,omitempty"`
}

// InFlightNode is one node's simulated in-flight outcome.
type InFlightNode struct {
	Node            string  `json:"node"`
	LastFabComplete float64 `json:"last_fab_complete_weeks"`
	QueueDrained    float64 `json:"queue_drained_weeks"`
}

// InFlightSummary is the discrete-event study of an order placed at
// week 0 and fabricated through the composed disruption schedule.
type InFlightSummary struct {
	// PromisedTTMWeeks is the closed-form quote at week-0 conditions;
	// SimulatedTTMWeeks what the order actually takes; SlipWeeks the
	// difference.
	PromisedTTMWeeks  *float64       `json:"promised_ttm_weeks"`
	SimulatedTTMWeeks *float64       `json:"simulated_ttm_weeks"`
	SlipWeeks         float64        `json:"slip_weeks"`
	Nodes             []InFlightNode `json:"nodes,omitempty"`
}

// Result is a full timeline evaluation.
type Result struct {
	Name         string  `json:"name,omitempty"`
	Base         string  `json:"base"`
	Design       string  `json:"design"`
	Chips        float64 `json:"chips"`
	StepWeeks    float64 `json:"step_weeks"`
	HorizonWeeks float64 `json:"horizon_weeks"`
	Steps        []Step  `json:"steps"`
	Summary      Summary `json:"summary"`
	// CostUSD is the chip-creation cost — conditions-independent, so
	// evaluated once, not per step.
	CostUSD  float64          `json:"cost_usd"`
	InFlight *InFlightSummary `json:"in_flight,omitempty"`
}

// stepWorker is the pooled per-goroutine state of the batched step
// fan-out: a batch whose condition columns are refilled per chunk, the
// TTM/CAS output slices, the composer each step's conditions are
// built in and the per-step summary strings. Workers are reused across
// EvaluateSteps calls through stepWorkerPool and every chunk evaluates
// on the one compiled evaluator (its batch entry points are safe for
// concurrent use), so steady-state chunk bodies allocate nothing but
// each step's summary string and finite TTM.
type stepWorker struct {
	b    core.Batch
	ttm  []units.Weeks
	cas  []float64
	comp composer
	strs []string
	errs core.BatchErrors
}

var stepWorkerPool sync.Pool

func getStepWorker(ev *core.Evaluator, n int) *stepWorker {
	w, _ := stepWorkerPool.Get().(*stepWorker)
	if w == nil {
		w = &stepWorker{}
	}
	ev.ResizeConditions(&w.b, n)
	if cap(w.ttm) < n {
		w.ttm = make([]units.Weeks, n)
	}
	w.ttm = w.ttm[:n]
	if cap(w.cas) < n {
		w.cas = make([]float64, n)
	}
	w.cas = w.cas[:n]
	if cap(w.strs) < n {
		w.strs = make([]string, n)
	}
	w.strs = w.strs[:n]
	return w
}

func finiteWeeks(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Evaluate runs the timeline for a design and chip count: the whole
// step range through EvaluateSteps — every step's composed conditions
// fed to one compiled evaluator's batch kernel, the same kernel and
// therefore the same bits as the static evaluation path — then the
// summary, cost and optional in-flight study through AssembleResult.
// Steps fan out over GOMAXPROCS workers; cancelling ctx stops the run
// within one chunk of steps per worker.
func Evaluate(ctx context.Context, m core.Model, d design.Design, n float64, tl *Timeline, opt Options) (*Result, error) {
	steps := make([]Step, tl.StepCount())
	if err := EvaluateSteps(ctx, m, d, n, tl, 0, len(steps), steps, opt); err != nil {
		return nil, err
	}
	return AssembleResult(ctx, m, d, n, tl, steps, opt)
}

// stepRangeBody builds EvaluateSteps' chunk body: it evaluates steps
// [base+lo, base+hi) of the timeline as one structure-of-arrays batch —
// sample s of the pooled worker's batch is step base+lo+s with its own
// composed conditions, all perturbation columns nil (unperturbed,
// exactly core.Perturbation{}) — and writes them into out[lo:hi]. Results land at disjoint index
// ranges of out, so chunk bodies need no synchronization.
func stepRangeBody(ev *core.Evaluator, tl *Timeline, base int, out []Step, onStep func(n uint64)) func(lo, hi int) error {
	return func(lo, hi int) error {
		cnt := hi - lo
		w := getStepWorker(ev, cnt)
		defer func() {
			clear(w.strs)
			stepWorkerPool.Put(w)
		}()
		for s := 0; s < cnt; s++ {
			c := tl.compose(base+lo+s, &w.comp)
			ev.SetConditions(&w.b, s, c)
			w.strs[s] = c.String()
		}
		if err := ev.EvalBatch(&w.b, w.ttm, &w.errs); err != nil {
			return err
		}
		if _, err := w.errs.First(); err != nil {
			return err
		}
		if err := ev.CASBatch(&w.b, w.cas, &w.errs); err != nil {
			return err
		}
		if _, err := w.errs.First(); err != nil {
			return err
		}
		for s := 0; s < cnt; s++ {
			i := base + lo + s
			wk := finiteWeeks(float64(w.ttm[s]))
			out[lo+s] = Step{
				Week:       tl.WeekAt(i),
				TTMWeeks:   wk,
				Stalled:    wk == nil,
				CAS:        w.cas[s],
				Conditions: w.strs[s],
			}
		}
		if onStep != nil {
			onStep(uint64(cnt))
		}
		return nil
	}
}

// EvaluateSteps evaluates the contiguous step range [lo, hi) of the
// timeline, writing step lo+s into out[s]. The design is compiled once
// (Compile errors are conditions-independent) and each step's composed
// market state is fed through the batch kernel's condition columns.
// Because every step's conditions and outputs depend only on the step
// index, concatenating disjoint ranges reproduces the unsplit step
// curve bit for bit — the sharding surface distributed timeline jobs
// scatter over. Error surface: a failing batch reports the error of its
// lowest-index step, and the error of the lowest range wins, so the
// first erroring shard in index order carries exactly the error the
// unsplit run would have returned.
func EvaluateSteps(ctx context.Context, m core.Model, d design.Design, n float64, tl *Timeline, lo, hi int, out []Step, opt Options) error {
	steps := tl.StepCount()
	if lo < 0 || hi > steps || lo > hi {
		return fmt.Errorf("timeline: step range [%d,%d) outside [0,%d]", lo, hi, steps)
	}
	if len(out) != hi-lo {
		return fmt.Errorf("timeline: step output length %d != range length %d", len(out), hi-lo)
	}
	ev, err := m.Compile(d, n, tl.ConditionsAt(0))
	if err != nil {
		return err
	}
	return sweep.ForChunks(ctx, hi-lo, 0, 1, stepRangeBody(ev, tl, lo, out, opt.OnStep))
}

// AssembleResult is the gather half of Evaluate: given the full step
// curve (the concatenation of EvaluateSteps ranges covering
// [0, StepCount)), it fills in the summary, cost, and optional
// in-flight study, so a scattered run's Result equals the
// single-machine Result field for field.
func AssembleResult(ctx context.Context, m core.Model, d design.Design, n float64, tl *Timeline, steps []Step, opt Options) (*Result, error) {
	if len(steps) != tl.StepCount() {
		return nil, fmt.Errorf("timeline: assembled %d steps, want %d", len(steps), tl.StepCount())
	}
	res := &Result{
		Name:         tl.spec.Name,
		Base:         tl.baseName,
		Design:       d.Name,
		Chips:        n,
		StepWeeks:    tl.StepWeeks(),
		HorizonWeeks: tl.spec.HorizonWeeks,
		Steps:        steps,
		Summary:      summarize(steps, tl.StepWeeks()),
	}

	// Cost is read off the TTM model's own die phase, so the two agree
	// on wafer counts; the market conditions play no part in it.
	ev, err := m.Compile(d, n, market.Conditions{})
	if err != nil {
		return nil, err
	}
	b, err := ev.CostChips(cost.DefaultRates(), n)
	if err != nil {
		return nil, err
	}
	res.CostUSD = float64(b.Total)

	if opt.InFlight {
		inf, err := inFlight(ctx, m, d, n, tl)
		if err != nil {
			return nil, err
		}
		res.InFlight = inf
	}
	return res, nil
}

// summarize computes the headline stats from the step curve.
func summarize(steps []Step, stepWeeks float64) Summary {
	var s Summary
	if len(steps) == 0 {
		return s
	}
	s.BaselineTTMWeeks = steps[0].TTMWeeks
	s.BaselineCAS = steps[0].CAS
	s.MinCAS = steps[0].CAS
	s.MinCASWeek = steps[0].Week

	base := math.Inf(1)
	if s.BaselineTTMWeeks != nil {
		base = *s.BaselineTTMWeeks
	}
	peak := math.Inf(-1)
	peakIdx := 0
	for i, st := range steps {
		if st.TTMWeeks == nil {
			s.StalledSteps++
		} else {
			if *st.TTMWeeks > peak {
				peak = *st.TTMWeeks
				peakIdx = i
			}
			if excess := *st.TTMWeeks - base; excess > 0 && !math.IsInf(base, 1) {
				s.AUCLossWeeks2 += excess * stepWeeks
			}
		}
		if st.CAS < s.MinCAS {
			s.MinCAS = st.CAS
			s.MinCASWeek = st.Week
		}
	}
	if !math.IsInf(peak, -1) {
		s.PeakTTMWeeks = &peak
		s.PeakWeek = steps[peakIdx].Week
	}
	s.CASDegradation = s.BaselineCAS - s.MinCAS
	// Recovery: the first step at or after the peak whose quote is back
	// within 5% of the baseline. With no disruption the peak is step 0
	// and recovery is immediately zero.
	if s.BaselineTTMWeeks != nil && s.PeakTTMWeeks != nil {
		for _, st := range steps[peakIdx:] {
			if st.TTMWeeks != nil && *st.TTMWeeks <= base*1.05 {
				ttr := st.Week - steps[peakIdx].Week
				s.TimeToRecoverWeeks = &ttr
				break
			}
		}
	}
	return s
}

// inFlight runs the discrete-event study over the composed capacity
// curve for every node the design fabricates on.
func inFlight(ctx context.Context, m core.Model, d design.Design, n float64, tl *Timeline) (*InFlightSummary, error) {
	nodes := d.Nodes()
	sched := tl.DisruptionSchedule(nodes)
	op, err := m.EvaluateOperationalCtx(ctx, d, n, tl.ConditionsAt(0), core.DisruptionSchedule(sched))
	if err != nil {
		return nil, err
	}
	out := &InFlightSummary{
		PromisedTTMWeeks:  finiteWeeks(float64(op.Analytic.TTM)),
		SimulatedTTMWeeks: finiteWeeks(float64(op.TTM)),
		SlipWeeks:         float64(op.Slip),
	}
	// Deterministic order: follow the design's node list, not the map.
	for _, node := range nodes {
		nr, ok := op.PerNode[node]
		if !ok {
			continue
		}
		out.Nodes = append(out.Nodes, InFlightNode{
			Node:            node.String(),
			LastFabComplete: float64(nr.LastFabComplete),
			QueueDrained:    float64(nr.QueueDrained),
		})
	}
	return out, nil
}
