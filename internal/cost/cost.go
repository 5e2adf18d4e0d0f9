// Package cost implements the chip-creation cost model the paper adopts
// from Moonwalk (Khazraee et al., ASPLOS '17) and augments with newer
// process nodes, manufacturing packaging costs, and updated mask costs.
//
// Total chip creation cost decomposes into
//
//	C = Σ_p [ C_mask(p) + NUT(d,p)·E_tapeout(p)·r_labor ]   (NRE)
//	  + Σ_die N_W(die)·C_wafer(p(die))                       (wafers)
//	  + n·( c_base + c_die·N_die,pkg + c_area·ΣA_die )       (TAP)
//
// i.e. per-node non-recurring engineering (mask sets plus tapeout
// labor, where labor hours reuse Eq. 2's effort curve), wafer purchase,
// and per-unit testing/assembly/packaging. As in the paper, absolute
// dollar values are representational; comparisons between designs and
// nodes are the deliverable.
//
// The wafer count N_W and the die areas are the TTM model's own
// (Eqs. 5–7): a cost is read from the die phase of the compiled kernel
// (core.Evaluator.CostChips), so TTM, CAS and cost share one walk of
// the design and agree on every wafer.
package cost

import (
	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// Rates are the economy-wide constants of the cost model.
type Rates = core.CostRates

// Breakdown is a full cost evaluation.
type Breakdown = core.CostBreakdown

// DefaultRates returns the calibrated rates. TapeoutLaborPerHour is set
// so the accelerator tapeout costs of the paper's Table 3 are
// reproduced ($385/engineer-hour against the E_tapeout curve plus the
// 5 nm mask set ≈ $3.05 M fixed); the per-unit packaging constants put
// high-volume microcontroller costs near the paper's Fig. 14b scale
// (≈ $6 per packaged chip).
func DefaultRates() Rates {
	return Rates{
		TapeoutLaborPerHour: 385,
		PackageBasePerChip:  2.50,
		PackagePerDie:       3.00,
		PackagePerMM2:       0.005,
	}
}

// Model prices designs. The zero value uses DefaultRates and the
// paper's wafer/yield configuration.
type Model struct {
	Rates Rates
	// Wafer is the wafer geometry; zero means 300 mm.
	Wafer core.Wafer
	// YieldModel and Alpha mirror core.Model so TTM and cost agree on
	// manufacturing quantities.
	YieldModel core.YieldModel
	Alpha      float64
	// Nodes is the process-node database; nil means the built-in one.
	Nodes *technode.Database
}

// rates returns the effective rates.
func (m Model) rates() Rates {
	if m.Rates == (Rates{}) {
		return DefaultRates()
	}
	return m.Rates
}

// compile compiles the design on the TTM model with m's manufacturing
// configuration; cost reads no market conditions.
func (m Model) compile(d design.Design, n float64) (*core.Evaluator, error) {
	tm := core.Model{Wafer: m.Wafer, YieldModel: m.YieldModel, Alpha: m.Alpha, Nodes: m.Nodes}
	return tm.Compile(d, n, market.Conditions{})
}

// Evaluate prices the creation of n final chips of the design.
func (m Model) Evaluate(d design.Design, n float64) (Breakdown, error) {
	ev, err := m.compile(d, n)
	if err != nil {
		return Breakdown{}, err
	}
	return ev.CostChips(m.rates(), n)
}

// Total is a convenience wrapper returning only the total cost.
func (m Model) Total(d design.Design, n float64) (units.USD, error) {
	b, err := m.Evaluate(d, n)
	if err != nil {
		return 0, err
	}
	return b.Total, nil
}

// TapeoutCost prices only the tapeout NRE (mask set + labor) of a
// single die at a node — the C_tapeout column of the paper's Table 3.
func (m Model) TapeoutCost(nut units.Transistors, node technode.Node) (units.USD, error) {
	p, err := m.Nodes.Lookup(node)
	if err != nil {
		return 0, err
	}
	r := m.rates()
	hours := float64(nut) / 1e6 * p.TapeoutEffort
	return p.MaskSetCost + units.USD(hours)*r.TapeoutLaborPerHour, nil
}
