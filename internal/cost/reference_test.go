package cost

import (
	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// referenceEvaluate is the cost model as a direct walk of the design:
// per-node NRE, then each die's area, yield, gross dies and wafer
// demand (Eqs. 5–7) priced at its node's wafer cost, then per-chip
// packaging. Model.Evaluate reads the same quantities off the compiled
// kernel's die phase; the tests hold it to this walk bit for bit. The
// one documented divergence: the walk prices a negative chip count,
// which Model.Evaluate rejects as the TTM model does.
func referenceEvaluate(m Model, d design.Design, n float64) (Breakdown, error) {
	if err := d.Validate(); err != nil {
		return Breakdown{}, err
	}
	r := m.rates()

	var b Breakdown

	// NRE per node: one mask set per die taped out at the node plus
	// the labor of Eq. 2.
	for _, node := range d.Nodes() {
		p, err := m.Nodes.Lookup(node)
		if err != nil {
			return Breakdown{}, err
		}
		maskSets := 0
		for _, die := range d.Dies {
			if die.Node == node && !die.SkipTapeout {
				maskSets++
			}
		}
		b.MaskNRE += p.MaskSetCost * units.USD(maskSets)
		hours := float64(d.UniqueTransistorsAt(node)) / 1e6 * p.TapeoutEffort
		b.TapeoutNRE += units.USD(hours) * r.TapeoutLaborPerHour
	}

	// Wafer purchase per die type.
	var packagedArea units.MM2
	for _, die := range d.Dies {
		p, err := m.Nodes.Lookup(die.Node)
		if err != nil {
			return Breakdown{}, err
		}
		area := die.Area(p)
		packagedArea += area * units.MM2(die.Count())
		y := die.YieldOverride
		if y == 0 {
			yp := yield.Params{Area: area, D0: p.DefectDensity, Alpha: m.Alpha, Model: m.YieldModel}
			if die.Salvage != nil {
				y, err = yield.SalvageYield(yp, *die.Salvage)
				if err != nil {
					return Breakdown{}, err
				}
			} else {
				y = yield.Yield(yp)
			}
		}
		wafer := m.Wafer
		switch {
		case wafer.DiameterMM != 0:
			// explicit override
		case p.WaferDiameterMM > 0:
			wafer = geometry.Wafer{DiameterMM: p.WaferDiameterMM}
		default:
			wafer = geometry.Default300()
		}
		gross := wafer.GrossDiesFrac(area)
		if gross < 1 {
			return Breakdown{}, geometry.ErrDieTooLarge
		}
		wafers := units.Wafers(yield.DiesNeeded(n*float64(die.Count()), y) / gross)
		b.WaferCount += wafers
		b.Wafers += units.USD(float64(wafers)) * p.WaferCost
	}

	// Per-unit testing/assembly/packaging.
	perChip := r.PackageBasePerChip +
		r.PackagePerDie*units.USD(d.DiesPerPackage()) +
		r.PackagePerMM2*units.USD(float64(packagedArea))
	b.Packaging = perChip * units.USD(n)

	b.Total = b.MaskNRE + b.TapeoutNRE + b.Wafers + b.Packaging
	if n > 0 {
		b.PerChip = b.Total / units.USD(n)
	}
	return b, nil
}
