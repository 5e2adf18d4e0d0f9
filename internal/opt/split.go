package opt

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/sweep"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// Section 7: the same architecture is taped out on two process nodes
// in parallel and production is split between them. The two variants
// are independent chips (no packaging synchronization): the order is
// complete when the slower variant's production completes, both
// tapeouts are paid, and the portfolio's agility sums the TTM
// sensitivity to both nodes' wafer rates.

// Factory builds the architecture's design for a given node (e.g. the
// Raven multicore re-targeted per node).
type Factory func(technode.Node) design.Design

// SplitPoint is one production split fully evaluated.
type SplitPoint struct {
	Primary, Secondary technode.Node
	// FracPrimary is the fraction of final chips built on the primary
	// node (1.0 = single-process).
	FracPrimary float64
	TTM         units.Weeks
	Cost        units.USD
	CAS         float64
}

// SplitStudy evaluates two-process manufacturing portfolios. Cost is
// priced at cost.DefaultRates on the model's own wafer and yield
// configuration.
type SplitStudy struct {
	Factory    Factory
	Model      core.Model
	Conditions market.Conditions
	// Step is the split granularity; zero means 0.01 (1%).
	Step float64
}

func (s SplitStudy) step() float64 {
	if s.Step <= 0 {
		return 0.01
	}
	return s.Step
}

// compiledPair holds the two variants of one ordered node pair with
// their compiled evaluators, so a whole split sweep (100 fractions ×
// 1 + 2·nodes portfolio TTMs each) reuses the resolved tables instead
// of re-walking the node database per point.
type compiledPair struct {
	study              SplitStudy
	primary, secondary technode.Node
	pd, sd             design.Design
	pe, se             *core.Evaluator
}

// compilePair builds and compiles both variants once. A degenerate
// pair (primary == secondary) compiles a single variant and aliases it.
func (s SplitStudy) compilePair(primary, secondary technode.Node) (*compiledPair, error) {
	cp := &compiledPair{study: s, primary: primary, secondary: secondary}
	cp.pd = s.Factory(primary)
	pe, err := s.Model.Compile(cp.pd, 0, s.Conditions)
	if err != nil {
		return nil, err
	}
	cp.pe = pe
	if secondary == primary {
		cp.sd, cp.se = cp.pd, pe
		return cp, nil
	}
	cp.sd = s.Factory(secondary)
	se, err := s.Model.Compile(cp.sd, 0, s.Conditions)
	if err != nil {
		return nil, err
	}
	cp.se = se
	return cp, nil
}

// parts returns the per-variant production assignments of a split. A
// degenerate pair (primary == secondary) is a single-process run: the
// node has one production line, so the whole volume lands on it.
func (cp *compiledPair) parts(frac, n float64) []part {
	if cp.primary == cp.secondary {
		return []part{{d: cp.pd, ev: cp.pe, n: n}}
	}
	var out []part
	if frac > 0 {
		out = append(out, part{d: cp.pd, ev: cp.pe, n: frac * n})
	}
	if frac < 1 {
		out = append(out, part{d: cp.sd, ev: cp.se, n: (1 - frac) * n})
	}
	return out
}

// sweepCol is one (variant, capacity-probe) column of a batched
// fraction sweep: the TTM per fraction index plus the per-call error
// of each failing fraction (nil where the evaluation succeeded).
type sweepCol struct {
	vals []units.Weeks
	errs []error
}

// Probe column indices of pairSweep: the baseline TTM and the four CAS
// finite-difference probes, one per (node, direction).
const (
	probeBase = iota
	probePrimaryUp
	probePrimaryDown
	probeSecondaryUp
	probeSecondaryDown
	probeCount
)

// pairSweep holds one compiled pair's whole fraction sweep evaluated
// as structure-of-arrays batches: the fraction-dependent chip counts
// form the Chips column and each CAS probe becomes a Factor-column
// override, so the sweep costs six batch calls instead of up to ten
// evaluations per fraction. point reassembles each SplitPoint from the
// columns.
type pairSweep struct {
	cp    *compiledPair
	n     float64
	steps int
	// p[k-1] and s[k-1] are the variants' results at frac = k/steps;
	// the secondary columns are one short (frac=1 has no secondary
	// part).
	p, s [probeCount]sweepCol
	// probes are the CAS finite-difference capacity factors, indexed
	// like the probe columns.
	probes [probeCount]probe
}

// probe is one CAS finite-difference evaluation: node's capacity
// factor replaced by f.
type probe struct {
	node technode.Node
	f    float64
}

// constCols fills the batch's perturbation columns with the study's
// scalar Model.Perturb, one constant per sample, so every sample sees
// the same or1-resolved factors core.Model applies.
func constCols(b *core.Batch, p core.Perturbation, m int) {
	if p == (core.Perturbation{}) {
		return // nil columns already mean "unperturbed"
	}
	fill := func(v float64) []float64 {
		col := make([]float64, m)
		for i := range col {
			col[i] = v
		}
		return col
	}
	b.NTT = fill(p.NTT)
	b.NUT = fill(p.NUT)
	b.D0 = fill(p.D0)
	b.Rate = fill(p.Rate)
	b.FabLatency = fill(p.FabLatency)
	b.TAPLatency = fill(p.TAPLatency)
}

// runSweepBatch evaluates one variant across the chip-count column,
// under pb's capacity override when pb is non-nil (pb's node must be
// one the variant fabricates on).
func (cp *compiledPair) runSweepBatch(ev *core.Evaluator, chips []float64, pb *probe) (sweepCol, error) {
	m := len(chips)
	col := sweepCol{vals: make([]units.Weeks, m), errs: make([]error, m)}
	if m == 0 {
		return col, nil
	}
	b := core.Batch{Chips: chips}
	constCols(&b, cp.study.Model.Perturb, m)
	if pb != nil {
		b.Factor = make([][]float64, ev.NodeCount())
		fcol := make([]float64, m)
		for i := range fcol {
			fcol[i] = pb.f
		}
		b.Factor[ev.NodeIndex(pb.node)] = fcol
	}
	var be core.BatchErrors
	if err := ev.EvalBatch(&b, col.vals, &be); err != nil {
		return col, err
	}
	for i, s := range be.Idx {
		col.errs[s] = be.Errs[i]
	}
	return col, nil
}

// sweep batch-evaluates every fraction k/steps (k = 1..steps) of the
// pair. Each node is probed around its current capacity factor under
// the study's conditions, f0 ± h with the lower probe floored at f0,
// exactly as core.Model.CAS probes it. Probes on a node a variant does
// not use share the baseline column: the override would leave the
// variant's TTM unchanged, so the values and errors are identical
// either way.
func (cp *compiledPair) sweep(n float64, steps int) (*pairSweep, error) {
	sw := &pairSweep{cp: cp, n: n, steps: steps}
	pChips := make([]float64, steps)
	for k := 1; k <= steps; k++ {
		f := float64(k) / float64(steps)
		pChips[k-1] = f * n
	}
	if cp.primary == cp.secondary {
		// Degenerate pair: one variant at the full volume, primary
		// probes only (point never probes a degenerate pair's
		// secondary).
		for i := range pChips {
			pChips[i] = n
		}
	}
	for i, node := range []technode.Node{cp.primary, cp.secondary} {
		up, down := cp.study.capacityProbes(node)
		sw.probes[probePrimaryUp+2*i] = probe{node, up}
		sw.probes[probePrimaryDown+2*i] = probe{node, down}
	}
	run := func(out *[probeCount]sweepCol, ev *core.Evaluator, chips []float64) error {
		base, err := cp.runSweepBatch(ev, chips, nil)
		if err != nil {
			return err
		}
		out[probeBase] = base
		for cfg := probePrimaryUp; cfg < probeCount; cfg++ {
			if cp.primary == cp.secondary && cfg >= probeSecondaryUp {
				continue
			}
			pb := sw.probes[cfg]
			if ev.NodeIndex(pb.node) < 0 {
				out[cfg] = base
				continue
			}
			col, err := cp.runSweepBatch(ev, chips, &pb)
			if err != nil {
				return err
			}
			out[cfg] = col
		}
		return nil
	}
	if err := run(&sw.p, cp.pe, pChips); err != nil {
		return nil, err
	}
	if cp.primary != cp.secondary {
		sChips := make([]float64, steps-1)
		for k := 1; k < steps; k++ {
			f := float64(k) / float64(steps)
			sChips[k-1] = (1 - f) * n
		}
		if err := run(&sw.s, cp.se, sChips); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// ttmAt is the portfolio TTM read off the precomputed columns: the max
// of the variants' TTM at fraction k/steps, with the primary checked
// before the secondary so its error wins.
func (sw *pairSweep) ttmAt(k, cfg int) (units.Weeks, error) {
	var worst units.Weeks
	p := &sw.p[cfg]
	if err := p.errs[k-1]; err != nil {
		return 0, err
	}
	if t := p.vals[k-1]; t > worst {
		worst = t
	}
	if sw.cp.primary != sw.cp.secondary && k < sw.steps {
		s := &sw.s[cfg]
		if err := s.errs[k-1]; err != nil {
			return 0, err
		}
		if t := s.vals[k-1]; t > worst {
			worst = t
		}
	}
	return worst, nil
}

// point assembles the SplitPoint at fraction k/steps from the batched
// columns: baseline TTM, per-part cost (both variants' full
// chip-creation cost — two tapeouts, two mask sets — on their share of
// the volume), then the portfolio CAS, a finite difference per node on
// the combined TTM mirroring Eq. 8 and core.Model.CAS.
func (sw *pairSweep) point(k int) (SplitPoint, error) {
	cp := sw.cp
	s := cp.study
	frac := float64(k) / float64(sw.steps)
	pt := SplitPoint{Primary: cp.primary, Secondary: cp.secondary, FracPrimary: frac}

	ttm, err := sw.ttmAt(k, probeBase)
	if err != nil {
		return pt, err
	}
	pt.TTM = ttm

	rates := cost.DefaultRates()
	for _, part := range cp.parts(frac, sw.n) {
		b, err := part.ev.CostChips(rates, part.n)
		if err != nil {
			return pt, err
		}
		pt.Cost += b.Total
	}

	nodes := []technode.Node{cp.primary}
	if frac < 1 && cp.secondary != cp.primary {
		nodes = append(nodes, cp.secondary)
	}
	g := s.Conditions.GlobalCapacity
	if g == 0 {
		g = 1
	}
	sum := 0.0
	for ni, node := range nodes {
		p, err := s.Model.Nodes.Lookup(node)
		if err != nil {
			return pt, err
		}
		up, err := sw.ttmAt(k, probePrimaryUp+2*ni)
		if err != nil {
			return pt, err
		}
		down, err := sw.ttmAt(k, probePrimaryDown+2*ni)
		if err != nil {
			return pt, err
		}
		if math.IsInf(float64(up), 0) || math.IsInf(float64(down), 0) {
			sum = math.Inf(1) // a stalled probe: no agility at all
			continue
		}
		fUp, fDown := sw.probes[probePrimaryUp+2*ni].f, sw.probes[probePrimaryDown+2*ni].f
		sum += math.Abs(float64(up-down)) / ((fUp - fDown) * g * float64(p.WaferRate))
	}
	if sum > 0 {
		pt.CAS = 1 / sum
	} else {
		pt.CAS = math.Inf(1)
	}
	return pt, nil
}

// capacityProbes returns the capacity factors core.Model.CAS probes a
// node at under the study's conditions: its current factor (1 when
// unset) ± the default step, the lower probe floored at the current
// factor when it would reach zero.
func (s SplitStudy) capacityProbes(node technode.Node) (up, down float64) {
	f0 := 1.0
	if f, ok := s.Conditions.NodeCapacity(node); ok {
		f0 = f
	}
	const h = core.DefaultDerivativeStep
	up, down = f0+h, f0-h
	if down <= 0 {
		down = f0
	}
	return up, down
}

// part is one variant's share of a split: its design, its compiled
// evaluator and its chip count.
type part struct {
	d  design.Design
	ev *core.Evaluator
	n  float64
}

// BestSplit sweeps the split fraction for a node pair and returns the
// point with the highest CAS (ties broken by lower TTM), as Section 7
// prescribes. frac sweeps from Step to 1.0; frac=1 is the pure
// single-process baseline, included so a pair whose secondary never
// helps degenerates gracefully.
func (s SplitStudy) BestSplit(primary, secondary technode.Node, n float64) (SplitPoint, error) {
	if s.Factory == nil {
		return SplitPoint{}, errors.New("opt: SplitStudy.Factory is nil")
	}
	cp, err := s.compilePair(primary, secondary)
	if err != nil {
		return SplitPoint{}, fmt.Errorf("opt: split %s/%s: %w", primary, secondary, err)
	}
	var best SplitPoint
	found := false
	steps := int(math.Round(1 / s.step()))
	if steps < 1 {
		steps = 1
	}
	sw, err := cp.sweep(n, steps)
	if err != nil {
		return SplitPoint{}, fmt.Errorf("opt: split %s/%s: %w", primary, secondary, err)
	}
	for k := 1; k <= steps; k++ {
		// Integer stepping so the final iteration is exactly the
		// single-process point frac = 1.
		f := float64(k) / float64(steps)
		pt, err := sw.point(k)
		if err != nil {
			return SplitPoint{}, fmt.Errorf("opt: split %s/%s@%.2f: %w", primary, secondary, f, err)
		}
		if math.IsInf(float64(pt.TTM), 1) {
			continue
		}
		if !found || pt.CAS > best.CAS || (pt.CAS == best.CAS && pt.TTM < best.TTM) {
			best, found = pt, true
		}
	}
	if !found {
		return SplitPoint{}, fmt.Errorf("%w for %s/%s", ErrNoFeasibleSplit, primary, secondary)
	}
	return best, nil
}

// singleProcess evaluates the single-process point of node p: the
// degenerate pair's one-step sweep.
func (s SplitStudy) singleProcess(p technode.Node, n float64) (SplitPoint, error) {
	cp, err := s.compilePair(p, p)
	if err != nil {
		return SplitPoint{}, err
	}
	sw, err := cp.sweep(n, 1)
	if err != nil {
		return SplitPoint{}, err
	}
	return sw.point(1)
}

// ErrNoFeasibleSplit is returned when every split point of a pair has
// infinite time-to-market (e.g. an out-of-production node).
var ErrNoFeasibleSplit = errors.New("opt: no feasible split")

// PairMatrix evaluates BestSplit for every ordered pair of producing
// nodes (the Fig. 14 heatmaps); the diagonal holds the single-process
// baselines. The pairs are independent, so they fan out on a worker
// pool; each pair compiles its two variants once and sweeps on the
// compiled evaluators.
func (s SplitStudy) PairMatrix(n float64) (map[technode.Node]map[technode.Node]SplitPoint, error) {
	nodes := s.Model.Nodes.Producing()
	cells := sweep.Grid(len(nodes), len(nodes))
	pts, err := sweep.Map(context.Background(), cells, 0, func(c [2]int) (SplitPoint, error) {
		p, q := nodes[c[0]], nodes[c[1]]
		if p == q {
			return s.singleProcess(p, n)
		}
		return s.BestSplit(p, q, n)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[technode.Node]map[technode.Node]SplitPoint, len(nodes))
	for _, p := range nodes {
		out[p] = make(map[technode.Node]SplitPoint, len(nodes))
	}
	for i, c := range cells {
		out[nodes[c[0]]][nodes[c[1]]] = pts[i]
	}
	return out, nil
}
