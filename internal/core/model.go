// Package core implements the paper's primary contribution: the chip
// creation time-to-market model (Section 3, Eqs. 1–7) and the Chip
// Agility Score (Section 4, Eq. 8).
//
// The model decomposes time-to-market as
//
//	TTM = T_design+implementation + T_tapeout + T_fabrication + T_package
//
// where T_tapeout is engineering effort proportional to unique,
// unverified transistors per node (Eq. 2); T_fabrication is the
// worst-case die's queue plus pipelined production time (Eqs. 3–5);
// and T_package is the testing/assembly/packaging time with
// negative-binomial die yield (Eqs. 6–7). Packaging is the
// synchronization point: every die type must finish fabrication before
// assembly begins, which is what makes multi-node designs sensitive to
// a disruption on any of their nodes.
package core

import (
	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// Model evaluates designs under market conditions. The zero value is
// the paper's configuration: 300 mm wafers, negative-binomial yield
// with α = 3, and the partial-edge-die correction enabled.
type Model struct {
	// Wafer is the wafer geometry; the zero value means the standard
	// 300 mm wafer.
	Wafer geometry.Wafer
	// YieldModel selects the die-yield family; the zero value is the
	// paper's negative binomial.
	YieldModel yield.Model
	// Alpha is the yield cluster parameter; zero means the paper's 3.
	Alpha float64
	// NoEdgeCorrection disables the partial-edge-die correction in the
	// gross-die count (ablation only).
	NoEdgeCorrection bool
	// Nodes is the process-node parameter database; nil means the
	// built-in calibrated database. Supplying a custom database is the
	// paper's "plug in your values" workflow.
	Nodes *technode.Database
	// Perturb scales the six closely-guarded inputs for Monte-Carlo
	// uncertainty and Sobol sensitivity analysis; the zero value means
	// no perturbation.
	Perturb Perturbation
}

// Wafer and YieldModel name Model's manufacturing field types for
// packages that mirror them (internal/cost's Model).
type (
	Wafer      = geometry.Wafer
	YieldModel = yield.Model
)

// CostRates are the economy-wide constants of the cost model.
type CostRates struct {
	// TapeoutLaborPerHour is the loaded cost of one tapeout
	// engineering hour, including EDA licenses and compute.
	TapeoutLaborPerHour units.USD
	// PackageBasePerChip is the fixed test/assembly cost per final
	// chip.
	PackageBasePerChip units.USD
	// PackagePerDie is the incremental assembly cost per packaged die
	// (chiplet alignment effort).
	PackagePerDie units.USD
	// PackagePerMM2 is the incremental cost per mm² of packaged
	// silicon (substrate, bumping, pins).
	PackagePerMM2 units.USD
}

// CostBreakdown is a full cost evaluation.
type CostBreakdown struct {
	// MaskNRE is the summed mask-set cost over the nodes used.
	MaskNRE units.USD
	// TapeoutNRE is the tapeout engineering labor cost (Eq. 2 hours
	// priced at the labor rate).
	TapeoutNRE units.USD
	// Wafers is the total wafer purchase cost.
	Wafers units.USD
	// Packaging is the total per-unit test/assembly/packaging cost.
	Packaging units.USD
	// Total sums all components; PerChip divides by the chip count.
	Total   units.USD
	PerChip units.USD
	// WaferCount is the total expected wafers purchased across dies.
	WaferCount units.Wafers
}

// Perturbation multiplies the six inputs Section 5 varies (±10%): total
// transistor count, unique transistor count, defect density, wafer
// production rate, foundry latency, and OSAT (testing/assembly/
// packaging) latency. A zero field means a multiplier of 1.
type Perturbation struct {
	NTT, NUT, D0, Rate, FabLatency, TAPLatency float64
}

// or1 returns m if positive, else 1.
func or1(m float64) float64 {
	if m > 0 {
		return m
	}
	return 1
}

// Inputs enumerates the perturbable inputs in the paper's Fig. 8 order.
var Inputs = []string{"NTT", "NUT", "D0", "muW", "Lfab", "LOSAT"}

// DieResult reports the geometry and wafer demand of one die type.
type DieResult struct {
	Name string
	Node technode.Node
	// Area is the (possibly overridden) die area.
	Area units.MM2
	// Yield is the die yield fraction in (0, 1].
	Yield float64
	// GrossPerWafer is the (fractional) gross die sites per wafer.
	GrossPerWafer float64
	// Wafers is this die type's share of N_W.
	Wafers units.Wafers
}

// NodeFabResult decomposes the fabrication phase (Eq. 3) for one
// process node: every die type at the node shares its wafer rate.
type NodeFabResult struct {
	Node technode.Node
	// Wafers is the node's aggregate wafer demand.
	Wafers units.Wafers
	// Queue, Production and FabTotal decompose Eqs. 4–5.
	Queue, Production, FabTotal units.Weeks
}

// Result is a full TTM evaluation.
type Result struct {
	// DesignTime, Tapeout, Fabrication and Packaging are the four
	// phases of Eq. 1; TTM is their sum.
	DesignTime  units.Weeks
	Tapeout     units.Weeks
	Fabrication units.Weeks
	Packaging   units.Weeks
	TTM         units.Weeks
	// TapeoutHours is the engineering-hours form of Eq. 2 before
	// conversion to calendar weeks via the tapeout team size.
	TapeoutHours units.Hours
	// Dies details each die type; Nodes details each process node's
	// fabrication; CriticalNode is the node bounding the phase (the
	// max of Eq. 3).
	Dies         []DieResult
	Nodes        []NodeFabResult
	CriticalNode technode.Node
}

// Evaluate computes the time-to-market of producing n final chips of
// the design under the given market conditions, with the full
// per-phase, per-die and per-node breakdown. It compiles the design ×
// conditions pair and runs the kernel once under the model's Perturb;
// a caller evaluating one design many times keeps the Evaluator from
// Compile instead.
func (m Model) Evaluate(d design.Design, n float64, c market.Conditions) (Result, error) {
	ev, err := m.Compile(d, n, c)
	if err != nil {
		return Result{}, err
	}
	return ev.EvalResultChips(m.Perturb, n)
}

// waferFor resolves the wafer geometry for a node: an explicit model
// override wins, then the node's own line diameter, then the paper's
// 300 mm-equivalent default.
func (m Model) waferFor(p technode.Params) geometry.Wafer {
	switch {
	case m.Wafer.DiameterMM != 0:
		return m.Wafer
	case p.WaferDiameterMM > 0:
		return geometry.Wafer{DiameterMM: p.WaferDiameterMM}
	default:
		return geometry.Default300()
	}
}

// TTM is Evaluate's headline number, computed without the breakdown.
func (m Model) TTM(d design.Design, n float64, c market.Conditions) (units.Weeks, error) {
	ev, err := m.Compile(d, n, c)
	if err != nil {
		return 0, err
	}
	return ev.EvalChipsAtCapacity(m.Perturb, n, c.GlobalCapacity)
}
