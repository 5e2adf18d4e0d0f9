// Package plan automates the design methodology of Section 7: given a
// product requirement (volume, deadline, budget, minimum agility), it
// explores the node-selection space — every producing single-process
// option and, optionally, every CAS-optimal two-process split — and
// recommends the plan that maximizes the Chip Agility Score subject to
// the constraints, exactly the paper's "maximize CAS while minimizing
// time-to-market and chip creation costs" objective with the
// minimization recast as constraints plus tie-breaks.
package plan

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/opt"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// Requirements bounds an acceptable plan. Zero values mean
// unconstrained.
type Requirements struct {
	// Volume is the number of final chips (required, positive).
	Volume float64
	// Deadline is the latest acceptable time-to-market.
	Deadline units.Weeks
	// Budget is the largest acceptable chip-creation cost.
	Budget units.USD
	// MinCAS is the lowest acceptable agility score.
	MinCAS float64
}

// Validate checks the requirements.
func (r Requirements) Validate() error {
	if r.Volume <= 0 {
		return errors.New("plan: volume must be positive")
	}
	if r.Deadline < 0 || r.Budget < 0 || r.MinCAS < 0 {
		return errors.New("plan: negative constraint")
	}
	return nil
}

// Option is one evaluated manufacturing plan.
type Option struct {
	// Name describes the plan ("28nm", "28nm+40nm 58/42").
	Name string
	// Primary and Secondary are the process nodes; Secondary is zero
	// for single-process plans.
	Primary, Secondary technode.Node
	// FracPrimary is the production share on the primary node.
	FracPrimary float64
	TTM         units.Weeks
	Cost        units.USD
	CAS         float64
	// Feasible reports whether every requirement holds; Violations
	// lists the ones that do not.
	Feasible   bool
	Violations []string
}

// Planner explores manufacturing plans for one architecture.
type Planner struct {
	// Factory builds the architecture for a node (as in opt.SplitStudy).
	Factory opt.Factory
	// Model and Conditions mirror the other layers; zero values are the
	// defaults. Cost is priced at cost.DefaultRates on the model's own
	// wafer and yield configuration.
	Model      core.Model
	Conditions market.Conditions
	// MultiProcess also explores CAS-optimal two-node splits.
	MultiProcess bool
	// SplitStep is the split sweep granularity; zero means 0.05.
	SplitStep float64
	// Nodes restricts the candidate set; nil means every producing
	// node of the model's database.
	Nodes []technode.Node
}

func (p Planner) nodes() []technode.Node {
	if len(p.Nodes) > 0 {
		return p.Nodes
	}
	return p.Model.Nodes.Producing()
}

func (p Planner) splitStep() float64 {
	if p.SplitStep <= 0 {
		return 0.05
	}
	return p.SplitStep
}

// Explore evaluates every candidate plan against the requirements,
// sorted by descending CAS (the paper's primary objective), feasible
// plans first.
func (p Planner) Explore(req Requirements) ([]Option, error) {
	if p.Factory == nil {
		return nil, errors.New("plan: Planner.Factory is nil")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	study := opt.SplitStudy{
		Factory:    p.Factory,
		Model:      p.Model,
		Conditions: p.Conditions,
		Step:       p.splitStep(),
	}

	var options []Option
	nodes := p.nodes()
	for _, node := range nodes {
		// Single-process candidates evaluate directly so idle nodes
		// surface as infeasible options instead of search errors.
		o, err := p.single(node, req.Volume)
		if err != nil {
			return nil, fmt.Errorf("plan: %s: %w", node, err)
		}
		options = append(options, p.judge(req, o))
	}
	if p.MultiProcess {
		for _, prim := range nodes {
			for _, sec := range nodes {
				if prim == sec {
					continue
				}
				pt, err := study.BestSplit(prim, sec, req.Volume)
				if errors.Is(err, opt.ErrNoFeasibleSplit) {
					continue // e.g. an out-of-production node in the pair
				}
				if err != nil {
					return nil, fmt.Errorf("plan: %s+%s: %w", prim, sec, err)
				}
				if pt.FracPrimary >= 1 {
					continue // degenerated to single-process
				}
				options = append(options, p.judge(req, Option{
					Name: fmt.Sprintf("%s+%s %.0f/%.0f", prim, sec,
						pt.FracPrimary*100, (1-pt.FracPrimary)*100),
					Primary: prim, Secondary: sec, FracPrimary: pt.FracPrimary,
					TTM: pt.TTM, Cost: pt.Cost, CAS: pt.CAS,
				}))
			}
		}
	}
	sort.SliceStable(options, func(i, j int) bool {
		if options[i].Feasible != options[j].Feasible {
			return options[i].Feasible
		}
		if options[i].CAS != options[j].CAS {
			return options[i].CAS > options[j].CAS
		}
		if options[i].TTM != options[j].TTM {
			return options[i].TTM < options[j].TTM
		}
		return options[i].Cost < options[j].Cost
	})
	return options, nil
}

// single evaluates the single-process plan on node: one compiled
// evaluator serves its TTM, CAS and cost.
func (p Planner) single(node technode.Node, n float64) (Option, error) {
	ev, err := p.Model.Compile(p.Factory(node), n, p.Conditions)
	if err != nil {
		return Option{}, err
	}
	g := p.Conditions.GlobalCapacity
	ttm, err := ev.EvalChipsAtCapacity(p.Model.Perturb, n, g)
	if err != nil {
		return Option{}, err
	}
	cas, err := ev.CASChipsAtCapacity(p.Model.Perturb, n, g)
	if err != nil {
		return Option{}, err
	}
	b, err := ev.CostChips(cost.DefaultRates(), n)
	if err != nil {
		return Option{}, err
	}
	return Option{
		Name: node.String(), Primary: node, FracPrimary: 1,
		TTM: ttm, Cost: b.Total, CAS: cas,
	}, nil
}

// judge fills the feasibility fields.
func (p Planner) judge(req Requirements, o Option) Option {
	o.Feasible = true
	fail := func(format string, args ...interface{}) {
		o.Feasible = false
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
	if math.IsInf(float64(o.TTM), 1) {
		fail("node out of production")
		return o
	}
	if req.Deadline > 0 && o.TTM > req.Deadline {
		fail("TTM %.1f wk exceeds deadline %.1f wk", float64(o.TTM), float64(req.Deadline))
	}
	if req.Budget > 0 && o.Cost > req.Budget {
		fail("cost %s exceeds budget %s", units.FmtUSD(o.Cost), units.FmtUSD(req.Budget))
	}
	if req.MinCAS > 0 && o.CAS < req.MinCAS {
		fail("CAS %.0f below minimum %.0f", o.CAS, req.MinCAS)
	}
	return o
}

// ErrNoFeasiblePlan is returned when every candidate violates a
// requirement; the returned options still describe the search.
var ErrNoFeasiblePlan = errors.New("plan: no feasible plan")

// Recommend returns the highest-CAS feasible plan and the full ranked
// exploration. When nothing is feasible it returns ErrNoFeasiblePlan
// alongside the ranking, so callers can show the nearest misses.
func (p Planner) Recommend(req Requirements) (Option, []Option, error) {
	options, err := p.Explore(req)
	if err != nil {
		return Option{}, nil, err
	}
	if len(options) == 0 || !options[0].Feasible {
		return Option{}, options, ErrNoFeasiblePlan
	}
	return options[0], options, nil
}

// Default is a convenience planner over a node-retargeting factory for
// an existing design, with multi-process search enabled.
func Default(factory opt.Factory) Planner {
	return Planner{Factory: factory, Conditions: market.Full(), MultiProcess: true}
}
