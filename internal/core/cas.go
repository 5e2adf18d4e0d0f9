package core

import (
	"fmt"

	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// The Chip Agility Score (Eq. 8) quantifies a design's resilience to
// production-side supply changes:
//
//	CAS = ( Σ_{p_i ∈ d} | ∂TTM/∂μ_W(p_i) | )^(−1)
//
// A higher CAS means the design's time-to-market moves less when wafer
// production rates move, i.e. the architecture is less bottlenecked by
// the chip creation process. CAS is measured in wafers/week² and, as
// Section 4 notes, excludes the design and tapeout phases (they are
// upstream of production); the derivative here therefore acts only on
// the fabrication and packaging phases, which is automatic because the
// upstream phases do not depend on μ_W.

// DefaultDerivativeStep is the relative step (as a fraction of each
// node's full-capacity rate) used by the central-difference derivative.
const DefaultDerivativeStep = 0.01

// CASResult reports the agility score and its per-node composition.
type CASResult struct {
	// CAS is the Chip Agility Score in wafers/week².
	CAS float64
	// Derivatives holds |∂TTM/∂μ_W(p)| per node in weeks per
	// (wafer/week); the score is the inverse of their sum.
	Derivatives map[technode.Node]float64
}

// CAS computes the Chip Agility Score of producing n chips of the
// design under the given conditions, using a central difference with
// the default step. Infinite TTM (a node out of production) yields a
// CAS of zero: the design has no agility at all.
func (m Model) CAS(d design.Design, n float64, c market.Conditions) (CASResult, error) {
	return m.CASWithStep(d, n, c, DefaultDerivativeStep)
}

// CASWithStep is CAS with an explicit relative derivative step,
// exposed for the step-size ablation; a step of zero or below means
// DefaultDerivativeStep. Like Evaluate it compiles the design ×
// conditions pair and runs the kernel's CAS once under the model's
// Perturb: one die phase, then each node's up and down capacity probe
// as a fab phase.
func (m Model) CASWithStep(d design.Design, n float64, c market.Conditions, step float64) (CASResult, error) {
	if step <= 0 {
		step = DefaultDerivativeStep
	}
	ev, err := m.Compile(d, n, c)
	if err != nil {
		return CASResult{}, err
	}
	return ev.casResult(m.Perturb, n, step)
}

// CASPoint is one sample of a CAS-versus-capacity curve.
type CASPoint struct {
	// Capacity is the global capacity fraction in (0, 1].
	Capacity float64
	// CAS is the agility score at that capacity.
	CAS float64
	// TTM is the time-to-market at that capacity, for the paired
	// curves of Fig. 3.
	TTM units.Weeks
}

// CASCurve evaluates CAS and TTM across a sweep of global capacity
// fractions (the x-axis of Figs. 3, 9, 12 and 13c). Fractions must be
// positive; points where production stalls report CAS 0 and infinite
// TTM.
func (m Model) CASCurve(d design.Design, n float64, base market.Conditions, fractions []float64) ([]CASPoint, error) {
	// One compiled evaluator and one batch call per output serve the
	// whole sweep, the fractions riding as the batch's Global column.
	ev, err := m.Compile(d, n, base)
	if err != nil {
		return nil, err
	}
	b := m.Perturb.columns(len(fractions))
	b.Global = fractions
	ttm := make([]units.Weeks, len(fractions))
	cas := make([]float64, len(fractions))
	var errs BatchErrors
	if err := ev.EvalBatch(&b, ttm, &errs); err != nil {
		return nil, err
	}
	// A die fails whatever the capacity, so TTM and CAS fail the same
	// points; report what a point-by-point walk meets first.
	bad, dieErr := errs.First()
	if err := ev.CASBatch(&b, cas, &errs); err != nil {
		return nil, err
	}
	pts := make([]CASPoint, 0, len(fractions))
	for i, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("core: capacity fraction %v must be positive", f)
		}
		if i == bad {
			return nil, dieErr
		}
		pts = append(pts, CASPoint{Capacity: f, CAS: cas[i], TTM: ttm[i]})
	}
	return pts, nil
}

// columns spreads p over n samples as constant batch columns; the
// unperturbed p leaves every column nil, which the kernel reads alike.
func (p Perturbation) columns(n int) Batch {
	if p == (Perturbation{}) {
		return Batch{}
	}
	col := func(v float64) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = v
		}
		return c
	}
	return Batch{
		NTT: col(p.NTT), NUT: col(p.NUT), D0: col(p.D0),
		Rate: col(p.Rate), FabLatency: col(p.FabLatency), TAPLatency: col(p.TAPLatency),
	}
}
