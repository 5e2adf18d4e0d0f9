package opt

import (
	"math"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// This file holds the per-probe portfolio reference the batched split
// sweep is held to: every TTM a fresh core.Model evaluation of the
// pair's designs, every CAS probe a c.WithNodeCapacity override.

// portfolioTTM is the max of the pair's variants' full TTM under c.
func portfolioTTM(cp *compiledPair, frac, n float64, c market.Conditions) (units.Weeks, error) {
	var worst units.Weeks
	for _, part := range cp.parts(frac, n) {
		t, err := cp.study.Model.TTM(part.d, part.n, c)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}

// refPoint evaluates one split point the way core.Model.CAS would if
// the portfolio were one design: baseline TTM, per-part cost, then a
// central difference per node around its current capacity factor.
func refPoint(cp *compiledPair, frac, n float64) (SplitPoint, error) {
	s, primary, secondary := cp.study, cp.primary, cp.secondary
	pt := SplitPoint{Primary: primary, Secondary: secondary, FracPrimary: frac}
	ttm, err := portfolioTTM(cp, frac, n, s.Conditions)
	if err != nil {
		return pt, err
	}
	pt.TTM = ttm
	for _, part := range cp.parts(frac, n) {
		cm := cost.Model{Wafer: s.Model.Wafer, YieldModel: s.Model.YieldModel, Alpha: s.Model.Alpha, Nodes: s.Model.Nodes}
		c, err := cm.Total(part.d, part.n)
		if err != nil {
			return pt, err
		}
		pt.Cost += c
	}
	nodes := []technode.Node{primary}
	if frac < 1 && secondary != primary {
		nodes = append(nodes, secondary)
	}
	g := s.Conditions.GlobalCapacity
	if g == 0 {
		g = 1
	}
	sum := 0.0
	for _, node := range nodes {
		p, err := s.Model.Nodes.Lookup(node)
		if err != nil {
			return pt, err
		}
		fUp, fDown := refProbes(s.Conditions, node)
		up, err := portfolioTTM(cp, frac, n, s.Conditions.WithNodeCapacity(node, fUp))
		if err != nil {
			return pt, err
		}
		down, err := portfolioTTM(cp, frac, n, s.Conditions.WithNodeCapacity(node, fDown))
		if err != nil {
			return pt, err
		}
		if math.IsInf(float64(up), 0) || math.IsInf(float64(down), 0) {
			sum = math.Inf(1)
			continue
		}
		sum += math.Abs(float64(up-down)) / ((fUp - fDown) * g * float64(p.WaferRate))
	}
	if sum > 0 {
		pt.CAS = 1 / sum
	} else {
		pt.CAS = math.Inf(1)
	}
	return pt, nil
}

// refProbes is core.Model.CAS's probe pair for node under c.
func refProbes(c market.Conditions, node technode.Node) (up, down float64) {
	f0, ok := c.NodeCapacity(node)
	if !ok {
		f0 = 1
	}
	const h = core.DefaultDerivativeStep
	up, down = f0+h, f0-h
	if down <= 0 {
		down = f0
	}
	return up, down
}
