package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"ttmcas"
	"ttmcas/internal/cachesim"
	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/opt"
	"ttmcas/internal/plan"
	"ttmcas/internal/technode"
	"ttmcas/internal/timeline"
)

// The job kinds: each wraps one of the repo's batch-evaluation engines.
const (
	// KindMCBand is a Monte-Carlo mean curve with ±10% and ±25%
	// confidence bands across global capacity fractions (the shaded
	// plots of Figs. 7/9/11/12), drawn by mc.BandCurveBatchAt over
	// x-position ranges.
	KindMCBand = "mc-band"
	// KindSensitivity is the Sobol first-order and total-effect indices
	// of TTM over the six guarded inputs (Fig. 8): sens.EvalRange over
	// Saltelli evaluation ranges, folded by sens.Reduce.
	KindSensitivity = "sensitivity"
	// KindSweep evaluates TTM, CAS and cost for a design re-targeted
	// across a node × quantity grid.
	KindSweep = "sweep"
	// KindPareto extracts the cache-sizing Pareto front (IPC ↑, TTM ↓,
	// cost ↓) per node × quantity cell (Section 6.1, Figs. 5–6).
	KindPareto = "pareto"
	// KindPlanPortfolio runs the §7 planner across a portfolio of
	// market scenarios, recommending a plan per scenario.
	KindPlanPortfolio = "plan-portfolio"
	// KindTimeline evaluates a composed time-varying scenario — an
	// inline timeline spec or a named historical episode — step by
	// step with the compiled evaluator (TTM/CAS curves plus summary
	// statistics).
	KindTimeline = "timeline"
)

// Kinds lists the supported job kinds.
func Kinds() []string {
	return []string{KindMCBand, KindSensitivity, KindSweep, KindPareto, KindPlanPortfolio, KindTimeline}
}

// ErrInvalidSpec wraps every spec validation failure; the HTTP layer
// maps it to 422.
var ErrInvalidSpec = errors.New("jobs: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Limits clamp client-supplied spec sizes; the zero value selects the
// defaults.
type Limits struct {
	// MaxSamples caps the Monte-Carlo sample count and the Saltelli
	// base N (default 8192).
	MaxSamples int
	// MaxPoints caps the length of every point list — xs, nodes,
	// quantities, scenarios (default 64).
	MaxPoints int
	// MaxEvaluations caps the estimated total model evaluations of a
	// single job (default 2,000,000).
	MaxEvaluations int
}

func (l Limits) withDefaults() Limits {
	if l.MaxSamples <= 0 {
		l.MaxSamples = 8192
	}
	if l.MaxPoints <= 0 {
		l.MaxPoints = 64
	}
	if l.MaxEvaluations <= 0 {
		l.MaxEvaluations = 2_000_000
	}
	return l
}

// Spec describes one batch-evaluation job: which engine to run
// (Kind) and its inputs. Fields outside a kind's section are ignored
// by that kind.
type Spec struct {
	// Kind selects the engine: mc-band, sensitivity, sweep, pareto, or
	// plan-portfolio.
	Kind string `json:"kind"`

	// Design names a built-in design (a11, zen2, ariane16, raven,
	// chipA, chipB); Node optionally re-targets it; N is the chip
	// quantity (default 10e6).
	Design string  `json:"design,omitempty"`
	Node   string  `json:"node,omitempty"`
	N      float64 `json:"n,omitempty"`

	// Scenario / Capacity / QueueWeeks set the market conditions by
	// the same rule as the evaluation routes and the CLI: capacity in
	// [0, 1] with 0 meaning full, queue_weeks at least 0, and a named
	// scenario overriding both once they are validated.
	Scenario   string  `json:"scenario,omitempty"`
	Capacity   float64 `json:"capacity,omitempty"`
	QueueWeeks float64 `json:"queue_weeks,omitempty"`

	// Samples is the Monte-Carlo sample count (mc-band, default 1024)
	// or Saltelli base N (sensitivity, default 512); Variation is the
	// sensitivity half-range (default ±10%); Seed fixes the streams.
	Samples   int     `json:"samples,omitempty"`
	Variation float64 `json:"variation,omitempty"`
	Seed      int64   `json:"seed,omitempty"`

	// Metric selects what an mc-band curve reports: "ttm" (default)
	// or "cas".
	Metric string `json:"metric,omitempty"`
	// Xs are the global capacity fractions of an mc-band curve
	// (default 16 points from 0.25 to 1.0).
	Xs []float64 `json:"xs,omitempty"`

	// Nodes and Quantities span the sweep/pareto grid (defaults:
	// every producing node × [N]).
	Nodes      []string  `json:"nodes,omitempty"`
	Quantities []float64 `json:"quantities,omitempty"`
	// CacheRefs is the pareto kind's cache-simulation reference count
	// (default 200,000).
	CacheRefs int `json:"cache_refs,omitempty"`

	// DeadlineWeeks / BudgetUSD / MinCAS are the plan-portfolio
	// requirements; Scenarios names the portfolio (default every
	// built-in scenario).
	DeadlineWeeks float64  `json:"deadline_weeks,omitempty"`
	BudgetUSD     float64  `json:"budget_usd,omitempty"`
	MinCAS        float64  `json:"min_cas,omitempty"`
	Scenarios     []string `json:"scenarios,omitempty"`

	// Timeline is the timeline kind's inline spec; Episode names a
	// built-in historical episode instead (at most one of the two;
	// neither selects the flagship global-shortage episode). InFlight
	// additionally runs the discrete-event in-flight order study. The
	// base scenario lives inside the timeline spec, so the top-level
	// Scenario field is rejected for this kind.
	Timeline *timeline.Spec `json:"timeline,omitempty"`
	Episode  string         `json:"episode,omitempty"`
	InFlight bool           `json:"in_flight,omitempty"`

	// TimeoutSeconds overrides the manager's default per-job deadline.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

func (s Spec) normalized() Spec {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	s.Metric = strings.ToLower(strings.TrimSpace(s.Metric))
	return s
}

func (s Spec) n() float64 {
	if s.N <= 0 {
		return 10e6
	}
	return s.N
}

func (s Spec) samples(def int) int {
	if s.Samples <= 0 {
		return def
	}
	return s.Samples
}

func (s Spec) xs() []float64 {
	if len(s.Xs) > 0 {
		return s.Xs
	}
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = 0.25 + 0.05*float64(i)
	}
	return xs
}

func (s Spec) cacheRefs() int {
	if s.CacheRefs <= 0 {
		return 200_000
	}
	return s.CacheRefs
}

func (s Spec) timeout(def time.Duration) time.Duration {
	if s.TimeoutSeconds <= 0 {
		return def
	}
	return time.Duration(s.TimeoutSeconds * float64(time.Second))
}

func (s Spec) scenarioNames() []string {
	if len(s.Scenarios) > 0 {
		return s.Scenarios
	}
	all := ttmcas.Scenarios()
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return names
}

func (s Spec) gridNodes() ([]technode.Node, error) {
	if len(s.Nodes) == 0 {
		return technode.Producing(), nil
	}
	out := make([]technode.Node, len(s.Nodes))
	for i, name := range s.Nodes {
		n, err := technode.Parse(name)
		if err != nil {
			return nil, invalidf("nodes[%d]: %v", i, err)
		}
		out[i] = n
	}
	return out, nil
}

// gridCells is the size of the sweep/pareto grid: nodes × quantities.
func (s Spec) gridCells() int {
	nodes := len(s.Nodes)
	if nodes == 0 {
		nodes = len(technode.Producing())
	}
	return nodes * len(s.quantities())
}

func (s Spec) quantities() []float64 {
	if len(s.Quantities) > 0 {
		return s.Quantities
	}
	return []float64{s.n()}
}

// EstimatedEvaluations returns the evaluation-unit total a spec
// implies — the denominator of the progress fraction and the quantity
// Limits.MaxEvaluations bounds.
func (s Spec) EstimatedEvaluations() int {
	switch s.Kind {
	case KindPareto:
		// Each grid cell evaluates the full (I$, D$) cross-product.
		k := len(cachesim.SweepSizesKB)
		return s.gridCells() * k * k
	case KindPlanPortfolio:
		// One planner exploration per scenario; each explores every
		// producing node plus the two-node splits.
		p := len(technode.Producing())
		return len(s.scenarioNames()) * p * p
	default:
		return int(s.shardUnits(0, s.shardSpace()))
	}
}

// timelineSpec resolves the timeline kind's spec: the inline one, the
// named episode's, or — like every other kind's defaults — the
// flagship episode when neither is given.
func (s Spec) timelineSpec() (timeline.Spec, error) {
	episode := s.Episode
	if s.Timeline == nil && episode == "" {
		episode = timeline.EpisodeNames()[0]
	}
	return timeline.Resolve(s.Timeline, episode)
}

// Validate checks a spec against the limits, resolving every name
// eagerly so submission — not the worker — rejects bad requests. All
// failures wrap ErrInvalidSpec.
func (s Spec) Validate(lim Limits) error {
	lim = lim.withDefaults()
	switch s.Kind {
	case KindMCBand, KindSensitivity, KindSweep, KindPareto, KindPlanPortfolio, KindTimeline:
	case "":
		return invalidf("missing kind (one of %s)", strings.Join(Kinds(), ", "))
	default:
		return invalidf("unknown kind %q (one of %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
	if s.Design == "" {
		return invalidf("missing design (one of %s)", strings.Join(ttmcas.DesignNames(), ", "))
	}
	if _, _, err := s.Resolve(); err != nil {
		return err
	}
	if s.N < 0 {
		return invalidf("negative n %v", s.N)
	}
	if s.Samples < 0 || s.Samples > lim.MaxSamples {
		return invalidf("samples %d outside [0, %d]", s.Samples, lim.MaxSamples)
	}
	if s.Variation < 0 || s.Variation >= 1 {
		return invalidf("variation %v outside [0, 1)", s.Variation)
	}
	// A fixed order, so a spec with several lists over the limit always
	// names the same one.
	lists := [...]string{"xs", "nodes", "quantities", "scenarios"}
	for i, n := range [...]int{len(s.Xs), len(s.Nodes), len(s.Quantities), len(s.Scenarios)} {
		if n > lim.MaxPoints {
			return invalidf("%s has %d entries, max %d", lists[i], n, lim.MaxPoints)
		}
	}
	for i, x := range s.Xs {
		if x <= 0 || x > 1 {
			return invalidf("xs[%d] = %v outside (0, 1]", i, x)
		}
	}
	if _, err := s.gridNodes(); err != nil {
		return err
	}
	for i, q := range s.Quantities {
		if q <= 0 {
			return invalidf("quantities[%d] = %v must be positive", i, q)
		}
	}
	if s.Kind == KindMCBand {
		switch s.Metric {
		case "", "ttm", "cas":
		default:
			return invalidf(`metric %q (want "ttm" or "cas")`, s.Metric)
		}
	}
	if s.CacheRefs < 0 || s.CacheRefs > 2_000_000 {
		return invalidf("cache_refs %d outside [0, 2000000]", s.CacheRefs)
	}
	if s.DeadlineWeeks < 0 || s.BudgetUSD < 0 || s.MinCAS < 0 {
		return invalidf("plan constraints must be non-negative")
	}
	for i, name := range s.Scenarios {
		if _, err := (market.Inputs{Scenario: name}).Conditions(); err != nil {
			return invalidf("scenarios[%d]: %v", i, err)
		}
	}
	if s.TimeoutSeconds < 0 {
		return invalidf("negative timeout_seconds %v", s.TimeoutSeconds)
	}
	if s.Kind == KindTimeline {
		ts, err := s.timelineSpec()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
		if s.Scenario != "" {
			return invalidf("timeline jobs set the base scenario inside the timeline spec, not the scenario field")
		}
		// The step budget rides the sample limit: one compiled evaluation
		// per step, same order of work as one Monte-Carlo sample.
		if err := ts.Validate(timeline.Limits{MaxSteps: lim.MaxSamples, MaxSegments: lim.MaxPoints}); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
	} else if s.Timeline != nil || s.Episode != "" {
		return invalidf("timeline/episode fields belong to the %q kind", KindTimeline)
	}
	if est := s.EstimatedEvaluations(); est > lim.MaxEvaluations {
		return invalidf("estimated %d evaluations exceed the limit %d (reduce samples or grid size)",
			est, lim.MaxEvaluations)
	}
	return nil
}

// Resolve returns the design and market conditions the spec evaluates,
// through the same resolvers as the CLI and the HTTP routes. Failures
// wrap ErrInvalidSpec.
func (s Spec) Resolve() (ttmcas.Design, ttmcas.Conditions, error) {
	d, err := ttmcas.DesignAt(s.Design, s.Node)
	if err != nil {
		return d, ttmcas.Conditions{}, invalidf("%v", err)
	}
	c, err := market.Inputs{Scenario: s.Scenario, Capacity: s.Capacity, QueueWeeks: s.QueueWeeks}.Conditions()
	if err != nil {
		return d, c, invalidf("%v", err)
	}
	return d, c, nil
}

// runHook, when non-nil, replaces every spec's runner — the test seam
// for exercising the manager's panic recovery, deadline, and
// cancellation paths with synthetic workloads.
var runHook func(ctx context.Context, s Spec, pr Tracker) (any, error)

// run executes the spec on this node. The returned value must be
// JSON-marshalable; pr receives progress as evaluation units complete.
// A job of a shardable kind is the one-shard plan over its whole shard
// space: the same runShard and merge a distributed run uses.
func (s Spec) run(ctx context.Context, pr Tracker) (any, error) {
	if h := runHook; h != nil {
		return h(ctx, s, pr)
	}
	switch s.Kind {
	case KindPareto:
		return s.runPareto(ctx, pr)
	case KindPlanPortfolio:
		return s.runPlanPortfolio(ctx, pr)
	}
	p, err := s.prepare()
	if err != nil {
		return nil, err
	}
	pr.SetTotal(s.shardUnits(0, p.space))
	res, err := p.runShard(ctx, 0, 0, p.space, pr.Add)
	if err != nil {
		return nil, err
	}
	if res.Err != "" {
		return nil, errors.New(res.Err)
	}
	return p.merge(ctx, []ShardResult{res})
}

// finite returns a pointer to v, or nil when it is not finite —
// stalled TTMs are +Inf, which JSON cannot encode.
func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// ---- mc-band -------------------------------------------------------

// BandPoint is one x-position of an mc-band result. The nil-able
// fields mark positions where production stalls (infinite TTM).
type BandPoint struct {
	X      float64  `json:"x"`
	Mean   *float64 `json:"mean"`
	CI10Lo *float64 `json:"ci10_lo"`
	CI10Hi *float64 `json:"ci10_hi"`
	CI25Lo *float64 `json:"ci25_lo"`
	CI25Hi *float64 `json:"ci25_hi"`
}

// BandResult is the mc-band job result.
type BandResult struct {
	Design  string      `json:"design"`
	Metric  string      `json:"metric"`
	Chips   float64     `json:"chips"`
	Samples int         `json:"samples"`
	Seed    int64       `json:"seed"`
	Points  []BandPoint `json:"points"`
}

// ---- sensitivity ---------------------------------------------------

// SensitivityResult is the sensitivity job result.
type SensitivityResult struct {
	Design      string    `json:"design"`
	Chips       float64   `json:"chips"`
	Inputs      []string  `json:"inputs"`
	TotalEffect []float64 `json:"total_effect"`
	FirstOrder  []float64 `json:"first_order"`
	VarY        float64   `json:"var_y"`
	Evaluations int       `json:"evaluations"`
}

// ---- sweep ---------------------------------------------------------

// SweepCell is one (node, quantity) cell of a sweep result.
type SweepCell struct {
	Node     string   `json:"node"`
	Quantity float64  `json:"quantity"`
	TTMWeeks *float64 `json:"ttm_weeks"`
	Stalled  bool     `json:"stalled,omitempty"`
	CAS      float64  `json:"cas"`
	CostUSD  float64  `json:"cost_usd"`
}

// SweepResult is the sweep job result.
type SweepResult struct {
	Design string      `json:"design"`
	Cells  []SweepCell `json:"cells"`
}

type gridCell struct {
	node technode.Node
	q    float64
}

func (s Spec) grid() ([]gridCell, error) {
	nodes, err := s.gridNodes()
	if err != nil {
		return nil, err
	}
	var cells []gridCell
	for _, n := range nodes {
		for _, q := range s.quantities() {
			cells = append(cells, gridCell{n, q})
		}
	}
	return cells, nil
}

// sweepCellEval returns the per-cell evaluator of the sweep kind:
// retarget the design to the cell's node, compile it once and read TTM,
// CAS and cost at the cell's quantity off the one evaluator.
func sweepCellEval(d ttmcas.Design, c ttmcas.Conditions) func(gridCell) (SweepCell, error) {
	var m core.Model
	var p core.Perturbation
	rates := cost.DefaultRates()
	return func(cell gridCell) (SweepCell, error) {
		ev, err := m.Compile(d.Retarget(cell.node), cell.q, c)
		if err != nil {
			return SweepCell{}, err
		}
		ttm, err := ev.EvalChipsAtCapacity(p, cell.q, c.GlobalCapacity)
		if err != nil {
			return SweepCell{}, err
		}
		cas, err := ev.CASChipsAtCapacity(p, cell.q, c.GlobalCapacity)
		if err != nil {
			return SweepCell{}, err
		}
		b, err := ev.CostChips(rates, cell.q)
		if err != nil {
			return SweepCell{}, err
		}
		w := finite(float64(ttm))
		return SweepCell{
			Node: cell.node.String(), Quantity: cell.q,
			TTMWeeks: w, Stalled: w == nil,
			CAS: cas, CostUSD: float64(b.Total),
		}, nil
	}
}

// ---- pareto --------------------------------------------------------

// ParetoPoint is one non-dominated cache configuration.
type ParetoPoint struct {
	ICacheKB   int      `json:"icache_kb"`
	DCacheKB   int      `json:"dcache_kb"`
	IPC        float64  `json:"ipc"`
	TTMWeeks   *float64 `json:"ttm_weeks"`
	CostUSD    float64  `json:"cost_usd"`
	IPCPerTTM  float64  `json:"ipc_per_ttm"`
	IPCPerCost float64  `json:"ipc_per_cost"`
}

// ParetoCell is the front for one (node, quantity) cell.
type ParetoCell struct {
	Node       string        `json:"node"`
	Quantity   float64       `json:"quantity"`
	Configs    int           `json:"configs"`
	Front      []ParetoPoint `json:"front"`
	BestPerTTM *ParetoPoint  `json:"best_per_ttm,omitempty"`
}

// ParetoResult is the pareto job result.
type ParetoResult struct {
	CacheRefs int          `json:"cache_refs"`
	Cells     []ParetoCell `json:"cells"`
}

func (s Spec) runPareto(ctx context.Context, pr Tracker) (any, error) {
	_, c, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	cells, err := s.grid()
	if err != nil {
		return nil, err
	}
	k := len(cachesim.SweepSizesKB)
	pr.SetTotal(uint64(len(cells) * k * k))
	// The IPC table is node-independent: build it once, share it
	// across every cell.
	tbl, err := cachesim.BuildIPCTable(cachesim.SPECLike(), cachesim.CPUModel{}, cachesim.SweepSizesKB, s.cacheRefs())
	if err != nil {
		return nil, err
	}
	res := ParetoResult{CacheRefs: s.cacheRefs()}
	for _, cell := range cells {
		study := opt.CacheStudy{Table: tbl, Conditions: c}
		pts, err := study.EvaluateCtx(ctx, cell.node, cell.q)
		if err != nil {
			return nil, err
		}
		pr.Add(uint64(k * k))
		front := opt.ParetoFront(pts)
		pc := ParetoCell{Node: cell.node.String(), Quantity: cell.q, Configs: len(pts)}
		for _, p := range front {
			pc.Front = append(pc.Front, paretoPoint(p))
		}
		if best, err := opt.Best(pts, opt.MaxIPCPerTTM); err == nil {
			bp := paretoPoint(best)
			pc.BestPerTTM = &bp
		}
		res.Cells = append(res.Cells, pc)
	}
	return res, nil
}

func paretoPoint(p opt.CachePoint) ParetoPoint {
	return ParetoPoint{
		ICacheKB: p.IKB, DCacheKB: p.DKB, IPC: p.IPC,
		TTMWeeks: finite(float64(p.TTM)), CostUSD: float64(p.Cost),
		IPCPerTTM: p.IPCPerTTM, IPCPerCost: p.IPCPerCost,
	}
}

// ---- plan-portfolio ------------------------------------------------

// PlanScenario is the planner verdict for one scenario.
type PlanScenario struct {
	Scenario    string       `json:"scenario"`
	Feasible    bool         `json:"feasible"`
	Recommended *PlanChoice  `json:"recommended,omitempty"`
	Options     []PlanChoice `json:"options"`
}

// PlanChoice is one evaluated plan.
type PlanChoice struct {
	Name        string   `json:"name"`
	Primary     string   `json:"primary"`
	Secondary   string   `json:"secondary,omitempty"`
	FracPrimary float64  `json:"frac_primary,omitempty"`
	TTMWeeks    *float64 `json:"ttm_weeks,omitempty"`
	CostUSD     float64  `json:"cost_usd"`
	CAS         float64  `json:"cas"`
	Feasible    bool     `json:"feasible"`
	Violations  []string `json:"violations,omitempty"`
}

// PortfolioResult is the plan-portfolio job result.
type PortfolioResult struct {
	Design    string         `json:"design"`
	Chips     float64        `json:"chips"`
	Scenarios []PlanScenario `json:"scenarios"`
}

func (s Spec) runPlanPortfolio(ctx context.Context, pr Tracker) (any, error) {
	d, _, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	n := s.n()
	names := s.scenarioNames()
	pr.SetTotal(uint64(len(names)))
	res := PortfolioResult{Design: d.Name, Chips: n}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := market.Inputs{Scenario: name}.Conditions()
		if err != nil {
			return nil, invalidf("%v", err)
		}
		planner := plan.Planner{
			Factory:      func(node technode.Node) ttmcas.Design { return d.Retarget(node) },
			Conditions:   c,
			MultiProcess: true,
		}
		best, all, err := planner.Recommend(plan.Requirements{
			Volume:   n,
			Deadline: ttmcas.Weeks(s.DeadlineWeeks),
			Budget:   ttmcas.USD(s.BudgetUSD),
			MinCAS:   s.MinCAS,
		})
		ps := PlanScenario{Scenario: name}
		switch {
		case err == nil:
			ps.Feasible = true
			rec := planChoice(best)
			ps.Recommended = &rec
		case errors.Is(err, plan.ErrNoFeasiblePlan):
			// Feasible stays false; the ranked options below show the
			// nearest misses.
		default:
			return nil, err
		}
		for i, o := range all {
			if i >= 5 {
				break
			}
			ps.Options = append(ps.Options, planChoice(o))
		}
		res.Scenarios = append(res.Scenarios, ps)
		pr.Add(1)
	}
	return res, nil
}

func planChoice(o plan.Option) PlanChoice {
	pc := PlanChoice{
		Name:        o.Name,
		Primary:     o.Primary.String(),
		FracPrimary: o.FracPrimary,
		TTMWeeks:    finite(float64(o.TTM)),
		CostUSD:     float64(o.Cost),
		CAS:         o.CAS,
		Feasible:    o.Feasible,
		Violations:  o.Violations,
	}
	if o.Secondary != 0 {
		pc.Secondary = o.Secondary.String()
	}
	return pc
}
