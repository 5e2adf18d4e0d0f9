package ttmcas

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/design"
	"ttmcas/internal/fabsim"
	"ttmcas/internal/figures"
	"ttmcas/internal/market"
	"ttmcas/internal/mc"
	"ttmcas/internal/opt"
	"ttmcas/internal/plan"
	"ttmcas/internal/scenario"
	"ttmcas/internal/sens"
	"ttmcas/internal/technode"
	"ttmcas/internal/timeline"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// Core model types, re-exported so downstream users never import
// internal packages.
type (
	// Node is a process node (marketing feature size in nm).
	Node = technode.Node
	// NodeParams is the per-node supply-side parameter set.
	NodeParams = technode.Params
	// Design is a chip design: die types, transistor counts, nodes.
	Design = design.Design
	// Die is one die type of a design.
	Die = design.Die
	// Block is a reusable design unit inside a die.
	Block = design.Block
	// Conditions is the supply-chain state a design is evaluated under.
	Conditions = market.Conditions
	// ConditionsBuilder composes Conditions field by field in storage
	// it owns, without the per-change copy of the With* methods.
	ConditionsBuilder = market.Builder
	// Scenario is a named market situation.
	Scenario = market.Scenario
	// Model is the time-to-market model (Eqs. 1–7) plus CAS (Eq. 8).
	Model = core.Model
	// Evaluator is a design × conditions pair compiled for repeated
	// evaluation (see Compile); Bind re-binds it to new conditions in
	// place. Not safe for concurrent use — parallel callers evaluate on
	// their own Clone.
	Evaluator = core.Evaluator
	// Result is a full TTM evaluation with per-phase breakdown.
	Result = core.Result
	// CASResult is a Chip Agility Score with per-node derivatives.
	CASResult = core.CASResult
	// CASPoint is one sample of a CAS/TTM-vs-capacity curve.
	CASPoint = core.CASPoint
	// Perturbation scales the six guarded model inputs.
	Perturbation = core.Perturbation
	// CostModel prices designs (Moonwalk-adopted).
	CostModel = cost.Model
	// CostBreakdown decomposes chip-creation cost.
	CostBreakdown = cost.Breakdown
	// MCConfig configures Monte-Carlo uncertainty runs.
	MCConfig = mc.Config
	// MCEstimate is a Monte-Carlo mean with a 95% CI.
	MCEstimate = mc.Estimate
	// SensitivityConfig configures Sobol estimation.
	SensitivityConfig = sens.Config
	// SensitivityResult holds Sobol first-order and total-effect
	// indices.
	SensitivityResult = sens.Result
	// FabLine is a discrete-event fab/packaging pipeline.
	FabLine = fabsim.Config
	// FabDisruption changes a line's capacity mid-run.
	FabDisruption = fabsim.Disruption
	// FabResult reports a simulated order.
	FabResult = fabsim.Result
	// FigureConfig scales figure-regeneration budgets.
	FigureConfig = figures.Config
	// FigureResult is a regenerated figure or table.
	FigureResult = figures.Result
	// Planner automates the §7 design methodology: explore node and
	// split options under deadline/budget/agility constraints.
	Planner = plan.Planner
	// PlanRequirements bounds an acceptable plan.
	PlanRequirements = plan.Requirements
	// PlanOption is one evaluated manufacturing plan.
	PlanOption = plan.Option

	// Weeks, USD, MM2, Transistors and WafersPerWeek are the typed
	// quantities used throughout.
	Weeks         = units.Weeks
	USD           = units.USD
	MM2           = units.MM2
	Transistors   = units.Transistors
	WafersPerWeek = units.WafersPerWeek
)

// The process nodes of the database (Table 2 plus the 12 nm variant).
const (
	N250 = technode.N250
	N180 = technode.N180
	N130 = technode.N130
	N90  = technode.N90
	N65  = technode.N65
	N40  = technode.N40
	N28  = technode.N28
	N20  = technode.N20
	N14  = technode.N14
	N12  = technode.N12
	N10  = technode.N10
	N7   = technode.N7
	N5   = technode.N5
)

// NodeDatabase is a pluggable process-node parameter set; nil means
// the built-in calibrated database. Build one with ReadNodeDatabase or
// DefaultNodeDatabase().With(...), then evaluate through a Model with
// its Nodes field set — the paper's "plug in your values" workflow.
type NodeDatabase = technode.Database

// DefaultNodeDatabase returns a copy of the built-in database.
func DefaultNodeDatabase() *NodeDatabase { return technode.Default() }

// ReadNodeDatabase parses a JSON node database (see WriteNodeDatabase
// for the schema).
func ReadNodeDatabase(r io.Reader) (*NodeDatabase, error) { return technode.ReadJSON(r) }

// WriteNodeDatabase serializes a database (nil = built-in) as JSON.
func WriteNodeDatabase(w io.Writer, db *NodeDatabase) error { return db.WriteJSON(w) }

// Nodes returns the paper's twelve Table 2 nodes, oldest first.
func Nodes() []Node { return technode.All() }

// ProducingNodes returns the nodes with non-zero 2022 capacity.
func ProducingNodes() []Node { return technode.Producing() }

// LookupNode returns a node's database parameters.
func LookupNode(n Node) (NodeParams, error) { return technode.Lookup(n) }

// ParseNode parses "28nm" or "28" into a Node.
func ParseNode(s string) (Node, error) { return technode.Parse(s) }

// FullCapacity returns the baseline market conditions: every node at
// 100% capacity with empty queues.
func FullCapacity() Conditions { return market.Full() }

// Scenarios returns the built-in named market scenarios.
func Scenarios() []Scenario { return market.Scenarios() }

// FindScenario returns a built-in market scenario by name.
func FindScenario(name string) (Scenario, bool) { return market.FindScenario(name) }

// Evaluate computes the time-to-market of producing n final chips of a
// design under market conditions, with the default model (300 mm
// wafers, negative-binomial yield, α = 3).
func Evaluate(d Design, n float64, c Conditions) (Result, error) {
	var m Model
	return m.Evaluate(d, n, c)
}

// TTM returns only the headline time-to-market.
func TTM(d Design, n float64, c Conditions) (Weeks, error) {
	var m Model
	return m.TTM(d, n, c)
}

// Compile resolves a design × conditions pair once — node parameters,
// effort curves, wafer geometry, queue depths — into a reusable
// Evaluator whose evaluations run with zero map operations and zero
// heap allocations, with the default model. Servers and drivers that
// evaluate the same design repeatedly (across perturbations, chip
// counts, capacity fractions or, via Evaluator.Bind, whole new market
// conditions) compile once and clone per worker.
func Compile(d Design, n float64, c Conditions) (*Evaluator, error) {
	var m Model
	return m.Compile(d, n, c)
}

// CAS computes the Chip Agility Score (Eq. 8).
func CAS(d Design, n float64, c Conditions) (CASResult, error) {
	var m Model
	return m.CAS(d, n, c)
}

// CASCurve samples CAS and TTM across global capacity fractions.
func CASCurve(d Design, n float64, c Conditions, fractions []float64) ([]CASPoint, error) {
	var m Model
	return m.CASCurve(d, n, c, fractions)
}

// Cost prices the creation of n chips with the default cost model.
func Cost(d Design, n float64) (CostBreakdown, error) {
	var m CostModel
	return m.Evaluate(d, n)
}

// TTMWithUncertainty runs the paper's Monte-Carlo uncertainty pass
// (±10% on the six guarded inputs, 1024 samples by default) over TTM.
// Cancelling ctx stops the run within one evaluation per worker.
func TTMWithUncertainty(ctx context.Context, d Design, n float64, c Conditions, cfg MCConfig) (MCEstimate, error) {
	var m Model
	return mc.TTM(ctx, m, d, n, c, cfg)
}

// CASWithUncertainty is the Monte-Carlo pass over the agility score.
func CASWithUncertainty(ctx context.Context, d Design, n float64, c Conditions, cfg MCConfig) (MCEstimate, error) {
	var m Model
	return mc.CAS(ctx, m, d, n, c, cfg)
}

// SensitivityInputs names the six guarded inputs in Fig. 8 order.
func SensitivityInputs() []string { return append([]string(nil), core.Inputs...) }

// Sensitivity estimates Sobol total-effect indices of TTM for a design
// and quantity under the given conditions, against model m (the zero
// Model is the default; one with Nodes set carries a custom database).
// The design is compiled once and the Saltelli columns are fed whole
// chunks at a time to per-worker clones of the batch kernel; cancelling
// ctx stops them within one evaluation per worker.
func Sensitivity(ctx context.Context, m Model, d Design, n float64, c Conditions, cfg SensitivityConfig) (SensitivityResult, error) {
	ev, err := m.Compile(d, n, c)
	if err != nil {
		return SensitivityResult{}, err
	}
	return sens.TotalEffectBatch(ctx, core.Inputs, cfg, sens.TTMFactory(ev, nil))
}

// DieYield evaluates the paper's negative-binomial yield model (Eq. 6)
// with the default cluster parameter α = 3.
func DieYield(area MM2, node Node) (float64, error) {
	p, err := technode.Lookup(node)
	if err != nil {
		return 0, err
	}
	return yield.NegBinomial(area, p.DefectDensity), nil
}

// SimulateFab runs the discrete-event fab/packaging pipeline for an
// order of `wafers` wafers behind `queueAhead` wafers of committed
// work, under an optional capacity-disruption schedule.
func SimulateFab(line FabLine, wafers float64, queueAhead float64, disruptions []FabDisruption) (FabResult, error) {
	return fabsim.Run(line, wafers, units.Wafers(queueAhead), disruptions)
}

// FabLineFor builds a FabLine from a node's database parameters at
// full capacity.
func FabLineFor(node Node) (FabLine, error) {
	p, err := technode.Lookup(node)
	if err != nil {
		return FabLine{}, err
	}
	return FabLine{Rate: p.WaferRate, FabLatency: p.FabLatency, TAPLatency: p.TAPLatency}, nil
}

// Figure regenerates one of the paper's figures or tables by id
// ("3".."14" for figures, "t2".."t4" for tables).
func Figure(id string, cfg FigureConfig) (*FigureResult, error) {
	return figures.Generate(id, cfg)
}

// FigureIDs lists the regenerable figures and tables.
func FigureIDs() []string { return figures.IDs() }

// FastFigures returns a reduced-budget figure configuration for quick
// interactive runs.
func FastFigures() FigureConfig { return figures.Fast() }

// Case-study designs (Section 6).

// A11 returns the paper's Apple A11 model (Section 6.2).
func A11() Design { return scenario.A11() }

// A11At returns the A11 re-targeted to a node.
func A11At(node Node) Design { return scenario.A11At(node) }

// Zen2 returns the original mixed-process Zen 2 chiplet design
// (Section 6.5).
func Zen2() Design { return scenario.Zen2() }

// Ariane16 returns the 16-core Ariane with the given per-core cache
// capacities in KiB (Section 6.1).
func Ariane16(icacheKB, dcacheKB int, node Node) Design {
	return scenario.ArianeConfig{Cores: 16, ICacheKB: icacheKB, DCacheKB: dcacheKB, Node: node}.Design()
}

// RavenMCU returns the Raven/PicoRV32-class microcontroller of the
// multi-process study (Section 7).
func RavenMCU(node Node) Design {
	return scenario.RavenConfig{Node: node}.Design()
}

// NewPlanner builds a multi-process planner that re-targets the given
// design per candidate node. ErrNoFeasiblePlan (plan.ErrNoFeasiblePlan)
// is returned by Recommend when every candidate violates a constraint.
func NewPlanner(base Design) Planner {
	return plan.Default(func(n technode.Node) Design { return base.Retarget(n) })
}

// ErrNoFeasiblePlan re-exports the planner's sentinel.
var ErrNoFeasiblePlan = plan.ErrNoFeasiblePlan

// SplitFactory adapts a design to the optimizer/planner factory shape.
func SplitFactory(base Design) opt.Factory {
	return func(n technode.Node) Design { return base.Retarget(n) }
}

// ChipA and ChipB are the two illustrative designs of Fig. 3.
func ChipA() Design { return scenario.ChipA() }

// ChipB is Chip A's smaller, denser-node counterpart.
func ChipB() Design { return scenario.ChipB() }

// designRegistry is the single source of truth for the built-in
// case-study designs addressable by name: the CLI's -design flag, the
// server's "design" request field and a job spec's all resolve through
// it. Each
// design is built once and shared: no caller writes into a design's
// dies or blocks (Retarget and WithInterposer copy the die slice they
// change).
var designRegistry = []struct {
	name   string
	study  string
	design Design
}{
	{"a11", "Section 6.2 (re-release study)", A11()},
	{"zen2", "Section 6.5 (chiplets)", Zen2()},
	{"ariane16", "Section 6.1 (cache sizing)", Ariane16(16, 32, N14)},
	{"raven", "Section 7 (multi-process)", RavenMCU(N180)},
	{"chipA", "Fig. 3", ChipA()},
	{"chipB", "Fig. 3", ChipB()},
}

// DesignNames returns the canonical names DesignByName accepts, in
// presentation order.
func DesignNames() []string {
	names := make([]string, len(designRegistry))
	for i, e := range designRegistry {
		names[i] = e.name
	}
	return names
}

// DesignByName returns a built-in case-study design by its canonical
// name (case-insensitive): a11, zen2, ariane16, raven, chipA, chipB.
// The design shares its dies with every other caller's copy, so it
// must not be written into; Retarget and the other Design methods
// return designs of their own.
func DesignByName(name string) (Design, error) {
	want := strings.TrimSpace(name)
	for _, e := range designRegistry {
		if strings.EqualFold(e.name, want) {
			return e.design, nil
		}
	}
	return Design{}, fmt.Errorf("unknown design %q (%s)", name, strings.Join(DesignNames(), ", "))
}

// DesignAt returns the built-in design name (see DesignByName),
// re-targeted to node ("28nm" or "28") unless node is empty. The CLI,
// the HTTP routes and batch jobs resolve a design and node through it.
func DesignAt(name, node string) (Design, error) {
	d, err := DesignByName(name)
	if err != nil || node == "" {
		return d, err
	}
	n, err := ParseNode(node)
	if err != nil {
		return Design{}, err
	}
	return d.Retarget(n), nil
}

// DesignStudy returns the paper section a built-in design reproduces
// ("Section 6.2 (re-release study)" for a11), or "" for unknown names.
func DesignStudy(name string) string {
	want := strings.TrimSpace(name)
	for _, e := range designRegistry {
		if strings.EqualFold(e.name, want) {
			return e.study
		}
	}
	return ""
}

// ---- timeline (scenario composer) ----------------------------------

// Timeline types, re-exported from internal/timeline: declarative
// time-varying scenarios composed over the static market snapshots.
type (
	// TimelineSpec is a declarative timeline: a base scenario, a
	// horizon, and disruption segments composed over it.
	TimelineSpec = timeline.Spec
	// TimelineSegment is one disruption mechanism on a timeline.
	TimelineSegment = timeline.Segment
	// TimelineLimits bound client-supplied timeline specs.
	TimelineLimits = timeline.Limits
	// TimelineOptions tune a timeline evaluation run.
	TimelineOptions = timeline.Options
	// TimelineResult is a full timeline evaluation: per-step TTM/CAS
	// curves plus summary statistics.
	TimelineResult = timeline.Result
	// TimelineEpisode is a named historical timeline anchored to static
	// scenarios at its endpoints.
	TimelineEpisode = timeline.Episode
)

// ErrInvalidTimelineSpec wraps every timeline spec validation failure.
var ErrInvalidTimelineSpec = timeline.ErrInvalidSpec

// CompileTimeline validates a timeline spec and resolves it for
// evaluation; the zero Limits select the defaults.
func CompileTimeline(s TimelineSpec, lim TimelineLimits) (*timeline.Timeline, error) {
	return timeline.Compile(s, lim)
}

// EvaluateTimeline evaluates a compiled timeline for a design and chip
// count: TTM and CAS at every step, summary statistics, and optionally
// the discrete-event in-flight study.
func EvaluateTimeline(ctx context.Context, d Design, n float64, tl *timeline.Timeline, opt TimelineOptions) (*TimelineResult, error) {
	return timeline.Evaluate(ctx, Model{}, d, n, tl, opt)
}

// TimelineEpisodes lists the built-in historical episodes (the 2020–22
// global shortage, a localized fab loss, an export-control shock, a
// fab-fire recovery arc).
func TimelineEpisodes() []TimelineEpisode { return timeline.Episodes() }

// FindTimelineEpisode returns the named episode, or false.
func FindTimelineEpisode(name string) (TimelineEpisode, bool) { return timeline.FindEpisode(name) }
