package core

import (
	"fmt"
	"math"

	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// This file is the reference the compiled kernel is held to: the
// paper's model (Eqs. 1–8) written as a direct walk over the design and
// the market-condition maps, recomputing every parameter lookup and
// every CAS probe from scratch. Production code never runs it; the
// oracle tests (compile_test.go, batch_test.go, FuzzEvaluateMatchesReference)
// compare Model.Evaluate, Model.TTM, Model.CASWithStep and the
// Evaluator against it bit for bit, error text included.

// referenceEvaluate computes the time-to-market of producing n final
// chips of the design under the given market conditions.
func referenceEvaluate(m Model, d design.Design, n float64, c market.Conditions) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if n < 0 {
		return Result{}, fmt.Errorf("core: negative chip count %v", n)
	}
	res := Result{DesignTime: d.DesignTime}

	// Tapeout phase (Eq. 2): engineering-hours summed over the nodes
	// the design uses, then divided across the tapeout team.
	for _, node := range d.Nodes() {
		p, err := m.Nodes.Lookup(node)
		if err != nil {
			return Result{}, err
		}
		nut := float64(d.UniqueTransistorsAt(node)) * or1(m.Perturb.NUT)
		res.TapeoutHours += units.Hours(nut / 1e6 * p.TapeoutEffort)
	}
	res.Tapeout = res.TapeoutHours.Weeks(d.Team())

	// Fabrication phase (Eqs. 3–5): all dies fabricated at the same
	// node share that node's wafer production rate, so wafer demand
	// aggregates per node; packaging then synchronizes on the slowest
	// node (the max of Eq. 3).
	var testWeeks, packWeeks float64
	var tapLatency units.Weeks
	nodeWafers := map[technode.Node]units.Wafers{}
	for _, die := range d.Dies {
		p, err := m.Nodes.Lookup(die.Node)
		if err != nil {
			return Result{}, err
		}
		if units.Weeks(float64(p.TAPLatency)*or1(m.Perturb.TAPLatency)) > tapLatency {
			tapLatency = units.Weeks(float64(p.TAPLatency) * or1(m.Perturb.TAPLatency))
		}

		ntt := units.Transistors(float64(die.TotalTransistors()) * or1(m.Perturb.NTT))
		area := die.AreaOverride
		if area <= 0 {
			// Derive area from the (possibly perturbed) transistor
			// count so NTT variance propagates through area, yield and
			// wafer count.
			area = p.Area(ntt)
		}
		if area < die.MinArea {
			area = die.MinArea
		}

		y := die.YieldOverride
		if y == 0 {
			yp := yield.Params{
				Area:  area,
				D0:    units.DefectsPerCM2(float64(p.DefectDensity) * or1(m.Perturb.D0)),
				Alpha: m.Alpha,
				Model: m.YieldModel,
			}
			if die.Salvage != nil {
				y, err = yield.SalvageYield(yp, *die.Salvage)
				if err != nil {
					return Result{}, fmt.Errorf("core: die %q: %w", die.Name, err)
				}
			} else {
				y = yield.Yield(yp)
			}
		}

		wafer := m.waferFor(p)
		var gross float64
		if m.NoEdgeCorrection {
			gross = float64(wafer.NaiveDies(area))
		} else {
			gross = wafer.GrossDiesFrac(area)
		}
		if gross < 1 {
			return Result{}, fmt.Errorf("core: die %q (%.0f mm² at %s): %w",
				die.Name, float64(area), die.Node, geometry.ErrDieTooLarge)
		}

		diesNeeded := yield.DiesNeeded(n*float64(die.Count()), y)
		wafers := units.Wafers(diesNeeded / gross)
		nodeWafers[die.Node] += wafers

		res.Dies = append(res.Dies, DieResult{
			Name:          die.Name,
			Node:          die.Node,
			Area:          area,
			Yield:         y,
			GrossPerWafer: gross,
			Wafers:        wafers,
		})

		// Packaging phase contributions (Eq. 7). Testing covers every
		// fabricated die (n/Y of them); assembly covers the n good
		// chips' packaged area.
		if y > 0 {
			testWeeks += n * float64(die.Count()) / y * float64(ntt) * p.TestingEffort
		}
		packWeeks += n * float64(die.Count()) * float64(area) * p.PackageEffort
	}

	// Eqs. 3–5 per node, synchronized at the slowest node.
	first := true
	for _, node := range d.Nodes() {
		p, err := m.Nodes.Lookup(node)
		if err != nil {
			return Result{}, err
		}
		nf := NodeFabResult{Node: node, Wafers: nodeWafers[node]}
		rate := float64(c.Rate(p)) * or1(m.Perturb.Rate)
		lfab := units.Weeks(float64(p.FabLatency) * or1(m.Perturb.FabLatency))
		switch {
		case rate > 0:
			nf.Queue = units.Weeks(float64(c.QueueWafers(p)) / rate)    // Eq. 4
			nf.Production = units.Weeks(float64(nf.Wafers)/rate) + lfab // Eq. 5
			nf.FabTotal = nf.Queue + nf.Production
		case nf.Wafers > 0 || c.QueueWafers(p) > 0:
			// No production at this node: fabrication never finishes.
			nf.Queue = units.Weeks(math.Inf(1))
			nf.Production = units.Weeks(math.Inf(1))
			nf.FabTotal = units.Weeks(math.Inf(1))
		default:
			nf.Production = lfab
			nf.FabTotal = lfab
		}
		res.Nodes = append(res.Nodes, nf)
		if first || nf.FabTotal > res.Fabrication {
			res.Fabrication = nf.FabTotal
			res.CriticalNode = node
			first = false
		}
	}

	res.Packaging = tapLatency + units.Weeks(testWeeks) + units.Weeks(packWeeks)
	res.TTM = res.DesignTime + res.Tapeout + res.Fabrication + res.Packaging
	return res, nil
}

// referenceTTM is referenceEvaluate's headline number.
func referenceTTM(m Model, d design.Design, n float64, c market.Conditions) (units.Weeks, error) {
	r, err := referenceEvaluate(m, d, n, c)
	if err != nil {
		return 0, err
	}
	return r.TTM, nil
}

// referenceCASWithStep computes the Chip Agility Score (Eq. 8) with an
// explicit relative derivative step by re-evaluating the whole model at
// each node's up and down capacity probe.
func referenceCASWithStep(m Model, d design.Design, n float64, c market.Conditions, step float64) (CASResult, error) {
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
		up, err := referenceTTM(m, d, n, c.WithNodeCapacity(node, fUp))
		if err != nil {
			return CASResult{}, err
		}
		down, err := referenceTTM(m, d, n, c.WithNodeCapacity(node, fDown))
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

// nodeFactor is the reference's capacity multiplier for node n in c:
// the node's override, 1 when unset.
func nodeFactor(c market.Conditions, n technode.Node) float64 {
	if f, ok := c.NodeCapacity(n); ok {
		return f
	}
	return 1
}
