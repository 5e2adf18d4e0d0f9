// Package timeline is the scenario composer: it turns a declarative
// JSON spec into a piecewise disruption timeline — fab-outage ramps,
// demand shocks, queue-depth drift — layered over a named base market
// scenario, and evaluates TTM/CAS/cost at every step of the resulting
// time-varying conditions.
//
// The static scenarios of internal/market are snapshots; the papers
// this subsystem follows (Kanungo et al., PAPERS.md) argue the
// interesting architecture/supply-chain interactions play out *over
// time*: a fire takes a line down in a week but capacity recovers over
// a quarter, a demand shock feeds a hoarding spiral that outlives the
// shock, queues drift up far faster than they drain. A Spec composes
// those mechanisms; Compile resolves it into per-step market.Conditions
// that the compiled evaluator (core.Model.Compile) consumes unchanged —
// so a timeline whose segments have all decayed reproduces the static
// path bit for bit, which is exactly what the episode oracle tests pin.
package timeline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ttmcas/internal/demand"
	"ttmcas/internal/fabsim"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// ErrInvalidSpec wraps every spec validation failure; the jobs layer
// and the HTTP layer map it to 422.
var ErrInvalidSpec = errors.New("timeline: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// The segment kinds.
const (
	// KindFabOutage scales a node's (or every node's) capacity down by
	// Depth over RampWeeks, holds until EndWeek, then recovers over
	// RecoverWeeks. Multiple outages compose multiplicatively with each
	// other and with the base scenario's capacity fields.
	KindFabOutage = "fab-outage"
	// KindDemandShock multiplies true demand during [StartWeek,
	// EndWeek) and runs the weekly bullwhip simulation of
	// internal/demand; the resulting backlog adds to the queue quote,
	// week by week, until it drains.
	KindDemandShock = "demand-shock"
	// KindQueueDrift linearly drifts the queue quote by DeltaWeeks over
	// [StartWeek, EndWeek), holding the new level afterwards. Negative
	// deltas drain a queue another segment built.
	KindQueueDrift = "queue-drift"
)

// The fab-outage ramp shapes.
const (
	// RampStep switches capacity instantly.
	RampStep = "step"
	// RampLinear interpolates linearly over the ramp window.
	RampLinear = "linear"
	// RampExp follows a saturating exponential (fast early loss,
	// asymptotic tail), normalized to land exactly on the target at the
	// window's end so endpoint oracles stay bit-for-bit.
	RampExp = "exp"
)

// Segment is one disruption mechanism on the timeline. Fields outside
// the segment's kind are rejected by validation where ambiguous and
// ignored otherwise.
type Segment struct {
	// Kind selects the mechanism: fab-outage, demand-shock, queue-drift.
	Kind string `json:"kind"`
	// Node scopes the segment to one process node ("40nm"); empty means
	// global — a fab-outage scales GlobalCapacity, queue segments apply
	// to every node.
	Node string `json:"node,omitempty"`
	// StartWeek and EndWeek bound the segment, [start, end). EndWeek
	// may exceed the horizon: the disruption is then still in force at
	// the end of the evaluated window.
	StartWeek float64 `json:"start_week"`
	EndWeek   float64 `json:"end_week"`

	// Fab-outage fields.
	//
	// Depth is the capacity fraction lost at the bottom, in (0, 1]:
	// 0.75 leaves the line at 25%. Ramp shapes the onset and recovery
	// (default: step when RampWeeks is zero, linear otherwise).
	// RampWeeks is the onset duration from StartWeek; RecoverWeeks the
	// recovery duration after EndWeek (zero: instant).
	Depth        float64 `json:"depth,omitempty"`
	Ramp         string  `json:"ramp,omitempty"`
	RampWeeks    float64 `json:"ramp_weeks,omitempty"`
	RecoverWeeks float64 `json:"recover_weeks,omitempty"`

	// Demand-shock fields.
	//
	// Multiplier scales true demand during the window. Utilization is
	// the line's base demand/capacity ratio (default 0.8); Hoarding
	// enables the over-ordering feedback. Shocks > 0 replaces the
	// single window with that many deterministic seeded sub-shocks
	// drawn inside it (see demand.GenerateShocks); Seed fixes the draw.
	Multiplier  float64 `json:"multiplier,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	Hoarding    bool    `json:"hoarding,omitempty"`
	Shocks      int     `json:"shocks,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	// Queue-drift field: the queue quote moves by DeltaWeeks (may be
	// negative) linearly across the window and holds after it.
	DeltaWeeks float64 `json:"delta_weeks,omitempty"`
}

// Spec is a declarative timeline: a base scenario, a horizon, and the
// segments composed over it.
type Spec struct {
	// Name labels the timeline in results.
	Name string `json:"name,omitempty"`
	// Base names the built-in market scenario the segments layer over
	// (default "baseline").
	Base string `json:"base,omitempty"`
	// HorizonWeeks is the evaluated window; steps run from week 0 to
	// the last multiple of StepWeeks inside it, inclusive.
	HorizonWeeks float64 `json:"horizon_weeks"`
	// StepWeeks is the sampling interval (default 1).
	StepWeeks float64 `json:"step_weeks,omitempty"`
	// Segments are the disruption mechanisms; same-kind segments on the
	// same node must not overlap (composition would be ambiguous).
	Segments []Segment `json:"segments"`
}

// Limits bound client-supplied specs; the zero value selects defaults.
type Limits struct {
	// MaxSteps caps the step count, and with it the evaluation work a
	// spec implies (default 8192).
	MaxSteps int
	// MaxSegments caps the segment list (default 64).
	MaxSegments int
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = 8192
	}
	if l.MaxSegments <= 0 {
		l.MaxSegments = 64
	}
	return l
}

func (s Spec) stepWeeks() float64 {
	if s.StepWeeks <= 0 {
		return 1
	}
	return s.StepWeeks
}

func (s Spec) base() string {
	if s.Base == "" {
		return "baseline"
	}
	return s.Base
}

// StepCount is the number of evaluated steps: weeks 0, Δ, 2Δ, … up to
// and including the last multiple of StepWeeks within the horizon.
func (s Spec) StepCount() int {
	if s.HorizonWeeks <= 0 {
		return 0
	}
	// The tiny epsilon keeps 104/1.0 landing on 105 steps rather than
	// losing the endpoint to float division.
	return int(math.Floor(s.HorizonWeeks/s.stepWeeks()+1e-9)) + 1
}

// segWindow returns the interval a segment occupies for overlap
// checking — a fab-outage extends past EndWeek by its recovery ramp.
func (seg Segment) segWindow() (lo, hi float64) {
	hi = seg.EndWeek
	if seg.Kind == KindFabOutage {
		hi += seg.RecoverWeeks
	}
	return seg.StartWeek, hi
}

// Validate checks the spec against the limits. Every failure wraps
// ErrInvalidSpec.
func (s Spec) Validate(lim Limits) error {
	lim = lim.withDefaults()
	if _, ok := market.FindScenario(s.base()); !ok {
		return invalidf("unknown base scenario %q", s.base())
	}
	if s.HorizonWeeks <= 0 {
		return invalidf("horizon_weeks %v must be positive", s.HorizonWeeks)
	}
	if s.StepWeeks < 0 {
		return invalidf("negative step_weeks %v", s.StepWeeks)
	}
	if n := s.StepCount(); n > lim.MaxSteps {
		return invalidf("%d steps exceed the limit %d (raise step_weeks or shorten the horizon)", n, lim.MaxSteps)
	}
	if len(s.Segments) == 0 {
		return invalidf("spec has no segments")
	}
	if len(s.Segments) > lim.MaxSegments {
		return invalidf("%d segments exceed the limit %d", len(s.Segments), lim.MaxSegments)
	}
	for i, seg := range s.Segments {
		if err := seg.validate(); err != nil {
			return fmt.Errorf("%w (segment %d)", err, i)
		}
	}
	// Same-kind segments on the same node key must not overlap: two
	// fab-outages multiplying into the same window (or two drifts
	// stacking mid-ramp) make the composed value order-dependent in the
	// reader's head even though the math is defined; reject them.
	type keyed struct {
		lo, hi float64
		idx    int
	}
	windows := map[string][]keyed{}
	for i, seg := range s.Segments {
		lo, hi := seg.segWindow()
		k := seg.Kind + "|" + seg.Node
		windows[k] = append(windows[k], keyed{lo, hi, i})
	}
	for _, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i].lo < ws[j].lo })
		for i := 1; i < len(ws); i++ {
			if ws[i].lo < ws[i-1].hi {
				return invalidf("segments %d and %d overlap ([%g, %g) vs [%g, %g) on the same node)",
					ws[i-1].idx, ws[i].idx, ws[i-1].lo, ws[i-1].hi, ws[i].lo, ws[i].hi)
			}
		}
	}
	return nil
}

func (seg Segment) validate() error {
	if seg.Node != "" {
		if _, err := technode.Parse(seg.Node); err != nil {
			return invalidf("%v", err)
		}
	}
	if seg.StartWeek < 0 {
		return invalidf("start_week %v is negative", seg.StartWeek)
	}
	if seg.EndWeek <= seg.StartWeek {
		return invalidf("end_week %v must exceed start_week %v", seg.EndWeek, seg.StartWeek)
	}
	switch seg.Kind {
	case KindFabOutage:
		if seg.Depth <= 0 || seg.Depth > 1 {
			return invalidf("depth %v outside (0, 1]", seg.Depth)
		}
		if seg.RampWeeks < 0 || seg.RecoverWeeks < 0 {
			return invalidf("ramp_weeks and recover_weeks must be non-negative")
		}
		switch seg.Ramp {
		case "", RampStep, RampLinear, RampExp:
		default:
			return invalidf("unknown ramp %q (step, linear, exp)", seg.Ramp)
		}
		if seg.Ramp == RampStep && seg.RampWeeks > 0 {
			return invalidf("step ramp takes no ramp_weeks")
		}
		if seg.StartWeek+seg.RampWeeks > seg.EndWeek {
			return invalidf("ramp_weeks %v does not fit before end_week %v", seg.RampWeeks, seg.EndWeek)
		}
	case KindDemandShock:
		// The bullwhip simulation is weekly; fractional shock windows
		// would silently truncate.
		if seg.StartWeek != math.Trunc(seg.StartWeek) || seg.EndWeek != math.Trunc(seg.EndWeek) {
			return invalidf("demand-shock weeks must be whole numbers")
		}
		if seg.Shocks < 0 || seg.Shocks > 16 {
			return invalidf("shocks %d outside [0, 16]", seg.Shocks)
		}
		if seg.Shocks == 0 && seg.Multiplier <= 0 {
			return invalidf("demand-shock needs a positive multiplier")
		}
		if seg.Multiplier < 0 {
			return invalidf("negative multiplier %v", seg.Multiplier)
		}
		if seg.Utilization < 0 || seg.Utilization >= 1 {
			return invalidf("utilization %v outside [0, 1) — at or above 1 the backlog never drains", seg.Utilization)
		}
	case KindQueueDrift:
		if seg.DeltaWeeks == 0 {
			return invalidf("queue-drift needs a non-zero delta_weeks")
		}
	case "":
		return invalidf("missing segment kind (%s, %s, %s)", KindFabOutage, KindDemandShock, KindQueueDrift)
	default:
		return invalidf("unknown segment kind %q (%s, %s, %s)", seg.Kind, KindFabOutage, KindDemandShock, KindQueueDrift)
	}
	return nil
}

// ---- compilation ----------------------------------------------------

const (
	shapeStep = iota
	shapeLinear
	shapeExp
)

// expShapeNorm normalizes the saturating exponential so shape(1) == 1
// exactly (the raw curve only approaches 1), keeping ramp endpoints
// bit-for-bit on target.
const expShapeRate = 5.0

var expShapeNorm = 1 - math.Exp(-expShapeRate)

func rampShape(kind int, u float64) float64 {
	switch kind {
	case shapeLinear:
		return u
	case shapeExp:
		return (1 - math.Exp(-expShapeRate*u)) / expShapeNorm
	default:
		return 1
	}
}

// compiledSeg is a segment resolved for evaluation: nodes parsed,
// shapes numbered, the demand simulation already run.
type compiledSeg struct {
	kind   string
	node   technode.Node
	global bool

	start, end    float64
	depth         float64
	rampW, recovW float64
	shape         int
	delta         float64
	// backlog[w] is the demand simulation's end-of-week backlog in
	// weeks of full capacity (the line is normalized to capacity 1, so
	// wafers and weeks coincide) — the segment's additive queue quote.
	backlog []float64
	// queued indexes, for a queue segment, the nodes it quotes in the
	// timeline's queue table (Timeline.queued): its own node, or every
	// node of the built-in database for a global segment.
	queued []int
}

// capFrac is the capacity multiplier a fab-outage contributes at week t.
func (cs *compiledSeg) capFrac(t float64) float64 {
	switch {
	case t < cs.start:
		return 1
	case t < cs.start+cs.rampW:
		return 1 - cs.depth*rampShape(cs.shape, (t-cs.start)/cs.rampW)
	case t < cs.end:
		return 1 - cs.depth
	case t < cs.end+cs.recovW:
		return 1 - cs.depth*(1-rampShape(cs.shape, (t-cs.end)/cs.recovW))
	default:
		return 1
	}
}

// queueDelta is the queue-weeks a drift contributes at week t.
func (cs *compiledSeg) queueDelta(t float64) float64 {
	switch {
	case t <= cs.start:
		return 0
	case t < cs.end:
		return cs.delta * (t - cs.start) / (cs.end - cs.start)
	default:
		return cs.delta
	}
}

// backlogAt is the demand backlog (in queue-weeks) at week t.
func (cs *compiledSeg) backlogAt(t float64) float64 {
	if len(cs.backlog) == 0 {
		return 0
	}
	idx := int(t)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cs.backlog) {
		idx = len(cs.backlog) - 1
	}
	return cs.backlog[idx]
}

// Timeline is a compiled spec: the base conditions resolved, every
// segment ready for O(segments) conditions queries per step.
type Timeline struct {
	spec     Spec
	baseName string
	base     market.Conditions
	segs     []compiledSeg
	// queued are the nodes any queue segment quotes, in increasing
	// order; each queue segment indexes into it (compiledSeg.queued),
	// so composing a step sums its queue contributions in a flat
	// per-node table instead of a map.
	queued []technode.Node
}

// Compile validates the spec under the limits and resolves it.
func Compile(s Spec, lim Limits) (*Timeline, error) {
	if err := s.Validate(lim); err != nil {
		return nil, err
	}
	sc, ok := market.FindScenario(s.base())
	if !ok {
		return nil, invalidf("unknown base scenario %q", s.base())
	}
	tl := &Timeline{spec: s, baseName: sc.Name, base: sc.Conditions}
	for i, seg := range s.Segments {
		cs := compiledSeg{
			kind:   seg.Kind,
			global: seg.Node == "",
			start:  seg.StartWeek,
			end:    seg.EndWeek,
			depth:  seg.Depth,
			rampW:  seg.RampWeeks,
			recovW: seg.RecoverWeeks,
			delta:  seg.DeltaWeeks,
		}
		if !cs.global {
			n, err := technode.Parse(seg.Node)
			if err != nil {
				return nil, invalidf("segment %d: %v", i, err)
			}
			cs.node = n
		}
		switch seg.Ramp {
		case RampLinear:
			cs.shape = shapeLinear
		case RampExp:
			cs.shape = shapeExp
		default:
			cs.shape = shapeStep
			if seg.Ramp == "" && seg.RampWeeks > 0 {
				cs.shape = shapeLinear
			}
		}
		if seg.Kind == KindDemandShock {
			backlog, err := simulateShock(seg, s.HorizonWeeks)
			if err != nil {
				return nil, fmt.Errorf("segment %d: %w", i, err)
			}
			cs.backlog = backlog
		}
		tl.segs = append(tl.segs, cs)
	}
	tl.indexQueues()
	return tl, nil
}

// indexQueues builds the queue table: the nodes the queue segments
// quote, sorted, and each queue segment's indexes into it.
func (tl *Timeline) indexQueues() {
	for i := range tl.segs {
		tl.queued = append(tl.queued, tl.segs[i].quotedNodes()...)
	}
	slices.Sort(tl.queued)
	tl.queued = slices.Compact(tl.queued)
	for i := range tl.segs {
		cs := &tl.segs[i]
		for _, n := range cs.quotedNodes() {
			k, _ := slices.BinarySearch(tl.queued, n)
			cs.queued = append(cs.queued, k)
		}
	}
}

// quotedNodes are the nodes a queue segment quotes: its own, or for a
// global segment the node set market.Conditions.WithQueueAll quotes,
// the 12 nm variant included, so a global drift that ends at a static
// scenario's WithQueueAll quote reproduces it at every node. A
// fab-outage quotes none.
func (cs *compiledSeg) quotedNodes() []technode.Node {
	switch {
	case cs.kind == KindFabOutage:
		return nil
	case cs.global:
		return globalQueueNodes
	}
	return []technode.Node{cs.node}
}

// simulateShock runs the weekly bullwhip simulation for a demand-shock
// segment on a line normalized to capacity 1 — backlog then reads
// directly in weeks of full-capacity production, the unit of the Eq. 4
// queue quote.
func simulateShock(seg Segment, horizon float64) ([]float64, error) {
	util := seg.Utilization
	if util == 0 {
		util = 0.8
	}
	cfg := demand.Config{
		Capacity:   1,
		BaseDemand: util,
		Hoarding:   seg.Hoarding,
		Weeks:      int(math.Ceil(horizon)) + 1,
	}
	var shocks []demand.Shock
	if seg.Shocks > 0 {
		shocks = demand.GenerateShocks(seg.Seed, seg.Shocks, int(seg.StartWeek), int(seg.EndWeek))
		if seg.Multiplier > 0 {
			for i := range shocks {
				shocks[i].Multiplier = seg.Multiplier
			}
		}
	} else {
		shocks = []demand.Shock{{StartWeek: int(seg.StartWeek), EndWeek: int(seg.EndWeek), Multiplier: seg.Multiplier}}
	}
	res, err := demand.Simulate(cfg, shocks)
	if err != nil {
		return nil, invalidf("demand simulation: %v", err)
	}
	backlog := make([]float64, len(res.Weeks))
	for i, w := range res.Weeks {
		backlog[i] = w.Backlog
	}
	return backlog, nil
}

// StepCount returns the number of evaluated steps.
func (tl *Timeline) StepCount() int { return tl.spec.StepCount() }

// StepWeeks returns the sampling interval.
func (tl *Timeline) StepWeeks() float64 { return tl.spec.stepWeeks() }

// WeekAt returns the week of step i.
func (tl *Timeline) WeekAt(i int) float64 { return float64(i) * tl.spec.stepWeeks() }

// globalQueueNodes are the nodes a global queue segment quotes.
var globalQueueNodes = market.DatabaseNodes()

// ConditionsAt composes the market conditions at step i: the base
// scenario's snapshot with every active fab-outage multiplied into the
// capacity fields and every queue contribution (drift plus demand
// backlog) added to the queue quotes. Segments that contribute nothing
// at i leave the base values untouched, down to which nodes carry an
// entry, which is what keeps the episode endpoint oracles exact. The
// returned conditions are the caller's; the step loop composes into a
// buffer it reuses instead (see composer).
func (tl *Timeline) ConditionsAt(i int) market.Conditions {
	var w composer
	return tl.compose(i, &w)
}

// composer is the scratch of the one conditions composer: the builder
// the step's conditions are written into and the per-node queue sums.
// A step worker owns one and reuses it for every step it composes.
type composer struct {
	b      market.Builder
	dq     []float64
	queued []bool
}

// compose builds the conditions at step i into w (see ConditionsAt).
// The result shares w's storage, so it is valid until w's next
// compose. Queue contributions are summed per node in segment order,
// then added to the base quote and floored at zero.
func (tl *Timeline) compose(i int, w *composer) market.Conditions {
	t := tl.WeekAt(i)
	b := &w.b
	b.Reset(tl.base)
	global := tl.base.GlobalCapacity
	w.dq = append(w.dq[:0], make([]float64, len(tl.queued))...)
	w.queued = append(w.queued[:0], make([]bool, len(tl.queued))...)
	for si := range tl.segs {
		cs := &tl.segs[si]
		var dq float64
		switch cs.kind {
		case KindFabOutage:
			f := cs.capFrac(t)
			if f == 1 {
				continue
			}
			if cs.global {
				if global == 0 {
					global = 1
				}
				global *= f
			} else {
				v := 1.0
				if bv, ok := b.Conditions().NodeCapacity(cs.node); ok {
					v = bv
				}
				b.SetCapacity(cs.node, v*f)
			}
			continue
		case KindQueueDrift:
			dq = cs.queueDelta(t)
		case KindDemandShock:
			dq = cs.backlogAt(t)
		}
		if dq == 0 {
			continue
		}
		for _, k := range cs.queued {
			w.dq[k] += dq
			w.queued[k] = true
		}
	}
	b.SetGlobalCapacity(global)
	for k, n := range tl.queued {
		if !w.queued[k] {
			continue
		}
		q := w.dq[k]
		if bq, ok := tl.base.QueueWeeks(n); ok {
			q += float64(bq)
		}
		if q < 0 {
			q = 0
		}
		b.SetQueue(n, units.Weeks(q))
	}
	return b.Conditions()
}

// FabDisruptions converts the timeline's capacity curve for one node
// into the piecewise-constant schedule internal/fabsim consumes,
// sampled at step boundaries (continuous ramps become stairs at step
// resolution). The base scenario's own capacity is not included — it
// enters the simulation through the initial conditions' rate, exactly
// as core.EvaluateOperational expects.
func (tl *Timeline) FabDisruptions(node technode.Node) []fabsim.Disruption {
	var out []fabsim.Disruption
	last := 1.0
	for i := 0; i < tl.StepCount(); i++ {
		t := tl.WeekAt(i)
		f := 1.0
		for si := range tl.segs {
			cs := &tl.segs[si]
			if cs.kind != KindFabOutage {
				continue
			}
			if cs.global || cs.node == node {
				f *= cs.capFrac(t)
			}
		}
		if f != last {
			out = append(out, fabsim.Disruption{AtWeek: units.Weeks(t), Fraction: f})
			last = f
		}
	}
	return out
}

// DisruptionSchedule builds the full per-node schedule for the nodes
// the design touches.
func (tl *Timeline) DisruptionSchedule(nodes []technode.Node) map[technode.Node][]fabsim.Disruption {
	sched := make(map[technode.Node][]fabsim.Disruption, len(nodes))
	for _, n := range nodes {
		if ds := tl.FabDisruptions(n); len(ds) > 0 {
			sched[n] = ds
		}
	}
	return sched
}
