package core

import (
	"fmt"
	"math"

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
// exposed for the step-size ablation.
func (m Model) CASWithStep(d design.Design, n float64, c market.Conditions, step float64) (CASResult, error) {
	if step <= 0 {
		step = DefaultDerivativeStep
	}
	res := CASResult{Derivatives: make(map[technode.Node]float64)}
	g := c.GlobalCapacity
	if g == 0 {
		g = 1
	}
	sum := 0.0
	for _, node := range d.Nodes() {
		p, err := m.Nodes.Lookup(node)
		if err != nil {
			return CASResult{}, err
		}
		// Finite difference on the node's capacity fraction f. The
		// effective rate is μ = g·f·μ_full, so dTTM/dμ =
		// ΔTTM / (Δf · g · μ_full). Central where possible, forward at
		// the capacity floor.
		f0 := nodeFactor(c, node)
		fUp, fDown := f0+step, f0-step
		if fDown <= 0 {
			fDown = f0
		}
		up, err := m.TTM(d, n, c.WithNodeCapacity(node, fUp))
		if err != nil {
			return CASResult{}, err
		}
		down, err := m.TTM(d, n, c.WithNodeCapacity(node, fDown))
		if err != nil {
			return CASResult{}, err
		}
		if math.IsInf(float64(up), 0) || math.IsInf(float64(down), 0) {
			res.Derivatives[node] = math.Inf(1)
			sum = math.Inf(1)
			continue
		}
		der := math.Abs(float64(up-down)) / ((fUp - fDown) * g * float64(p.WaferRate))
		res.Derivatives[node] = der
		sum += der
	}
	if sum <= 0 {
		// TTM is locally flat in every node's rate (e.g. zero chips):
		// the design is perfectly agile; report +Inf explicitly.
		res.CAS = math.Inf(1)
		return res, nil
	}
	res.CAS = 1 / sum
	if math.IsInf(sum, 1) {
		res.CAS = 0
	}
	return res, nil
}

// nodeFactor reports the node-specific capacity multiplier currently in
// c (default 1), so the finite difference perturbs around the actual
// operating point.
func nodeFactor(c market.Conditions, n technode.Node) float64 {
	if f, ok := c.NodeCapacity[n]; ok {
		return f
	}
	return 1
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
	// One compiled evaluator serves the whole sweep: each curve point is
	// 1 + 2·|nodes| evaluations, so the curve rides the zero-allocation
	// kernel instead of re-resolving the design per point.
	ev, err := m.Compile(d, n, base)
	if err != nil {
		return nil, err
	}
	pts := make([]CASPoint, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 {
			return nil, fmt.Errorf("core: capacity fraction %v must be positive", f)
		}
		ttm, err := ev.EvalChipsAtCapacity(m.Perturb, n, f)
		if err != nil {
			return nil, err
		}
		cas, err := ev.CASChipsAtCapacity(m.Perturb, n, f)
		if err != nil {
			return nil, err
		}
		pts = append(pts, CASPoint{Capacity: f, CAS: cas, TTM: ttm})
	}
	return pts, nil
}
