// Package technode is the process-node database of the ttm-cas
// framework: for each of the twelve process nodes the paper evaluates
// (250 nm down to 5 nm) it records the supply-side parameters of
// Table 1/Table 2 — wafer production rate, defect density, transistor
// density, foundry latency — and the per-node engineering-effort curves
// E_tapeout, E_testing, E_package that Section 5 derives by regression,
// plus the wafer/mask cost figures used by the Moonwalk-style cost
// model.
//
// Parameter provenance. Wafer production rates are the paper's Table 2
// verbatim. Transistor densities are anchored to the chip-derived
// values the paper reports (A11: 4.3 B transistors in 88 mm² at 10 nm;
// Zen 2 compute/I-O die areas of Table 4; a 4.3 B-transistor die at
// 250 nm sized to ≈43 gross dies per wafer at ≈48% yield). Defect
// densities follow Section 5: "low for legacy nodes ... increase
// starting from 20 nm". Foundry latency ramps from 12 weeks at legacy
// nodes to 20 weeks at 5 nm; packaging latency is 6 weeks everywhere.
// Effort and cost values are representational, as the paper's are; the
// relative per-node progression is what carries the results.
package technode

import (
	"fmt"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"ttmcas/internal/units"
)

// Node identifies a process node by its marketing feature size in
// nanometers (250, 180, ..., 7, 5).
type Node int

// The twelve process nodes of the paper's Table 2, plus the 12 nm
// class used by the Zen 2 I/O die (a GlobalFoundries-style line with
// far less capacity than the Table 2 foundry's 14 nm; it is a variant
// node, not part of the canonical Table 2 set).
const (
	N250 Node = 250
	N180 Node = 180
	N130 Node = 130
	N90  Node = 90
	N65  Node = 65
	N40  Node = 40
	N28  Node = 28
	N20  Node = 20
	N14  Node = 14
	N12  Node = 12
	N10  Node = 10
	N7   Node = 7
	N5   Node = 5
)

// String renders the conventional node name, e.g. "28nm".
func (n Node) String() string {
	var buf [24]byte
	return string(append(strconv.AppendInt(buf[:0], int64(n), 10), "nm"...))
}

// Params holds every per-node model parameter.
type Params struct {
	Node Node

	// WaferRate μ_W(p) is the foundry's full-capacity wafer production
	// rate at this node (Table 2). A zero rate means the node is not
	// currently in production (20 nm and 10 nm in 2022 conditions).
	WaferRate units.WafersPerWeek

	// DefectDensity D0(p) for the negative-binomial yield model.
	DefectDensity units.DefectsPerCM2

	// Density is the achievable logic transistor density.
	Density units.MTrPerMM2

	// FabLatency L_fab(p) is the pipeline latency of a wafer lot
	// through the foundry, independent of order size.
	FabLatency units.Weeks

	// TAPLatency L_TAP is the baseline testing/assembly/packaging
	// latency.
	TAPLatency units.Weeks

	// TapeoutEffort E_tapeout(p) in engineer-hours per million unique,
	// unverified transistors (Eq. 2 is per transistor; the database
	// stores the per-million rate for numeric hygiene).
	TapeoutEffort float64

	// TestingEffort E_testing(p) in calendar weeks per transistor
	// tested, an effective rate that already amortizes the massively
	// parallel ATE floor of the packaging house (Eq. 7, middle term).
	TestingEffort float64

	// PackageEffort E_package(p) in calendar weeks per (chip · mm²) of
	// packaged die, likewise an effective line rate (Eq. 7, last term).
	PackageEffort float64

	// WaferDiameterMM is the wafer size the node's line runs; zero
	// means the paper's 300 mm-equivalent normalization. Some legacy
	// lines physically run 200 mm (the paper's §5 footnote); set this
	// in a custom database to model them un-normalized.
	WaferDiameterMM float64

	// WaferCost is the foundry price of one processed wafer.
	WaferCost units.USD

	// MaskSetCost is the fixed photomask-set NRE for one tapeout.
	MaskSetCost units.USD
}

// InProduction reports whether the node currently has wafer capacity.
// TSMC reported 0% revenue from 20 nm and 10 nm in 2022Q2, which the
// paper interprets as no current production.
func (p Params) InProduction() bool { return p.WaferRate > 0 }

// Area returns the die area for a transistor count at this node's
// density.
func (p Params) Area(t units.Transistors) units.MM2 { return p.Density.Area(t) }

// table is the calibrated database. Node index i (0 = 250 nm ... 11 =
// 5 nm) parameterizes the regression-derived effort curves; see
// curves.go for the fits that generate and validate these columns.
var table = map[Node]Params{
	N250: {Node: N250, WaferRate: units.KWPM(41), DefectDensity: 0.05, Density: 2.6, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 18, TestingEffort: 2.50e-18, PackageEffort: 1.00e-9, WaferCost: 1000, MaskSetCost: 0.03e6},
	N180: {Node: N180, WaferRate: units.KWPM(241), DefectDensity: 0.05, Density: 3.1, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 19, TestingEffort: 3.25e-18, PackageEffort: 6.51e-10, WaferCost: 1100, MaskSetCost: 0.04e6},
	N130: {Node: N130, WaferRate: units.KWPM(120), DefectDensity: 0.05, Density: 3.7, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 21, TestingEffort: 4.00e-18, PackageEffort: 4.23e-10, WaferCost: 1300, MaskSetCost: 0.06e6},
	N90:  {Node: N90, WaferRate: units.KWPM(79), DefectDensity: 0.05, Density: 4.4, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 23, TestingEffort: 4.75e-18, PackageEffort: 2.75e-10, WaferCost: 1650, MaskSetCost: 0.09e6},
	N65:  {Node: N65, WaferRate: units.KWPM(189), DefectDensity: 0.05, Density: 5.1, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 27, TestingEffort: 5.50e-18, PackageEffort: 1.79e-10, WaferCost: 1937, MaskSetCost: 0.14e6},
	N40:  {Node: N40, WaferRate: units.KWPM(284), DefectDensity: 0.05, Density: 6.1, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 33, TestingEffort: 6.25e-18, PackageEffort: 1.16e-10, WaferCost: 2274, MaskSetCost: 0.22e6},
	N28:  {Node: N28, WaferRate: units.KWPM(350), DefectDensity: 0.05, Density: 7.0, FabLatency: 12.0, TAPLatency: 6, TapeoutEffort: 41, TestingEffort: 7.00e-18, PackageEffort: 7.58e-11, WaferCost: 2891, MaskSetCost: 0.34e6},
	N20:  {Node: N20, WaferRate: units.KWPM(0), DefectDensity: 0.07, Density: 10.0, FabLatency: 13.6, TAPLatency: 6, TapeoutEffort: 51, TestingEffort: 7.75e-18, PackageEffort: 4.93e-11, WaferCost: 3677, MaskSetCost: 0.53e6},
	N14:  {Node: N14, WaferRate: units.KWPM(281), DefectDensity: 0.08, Density: 18.4, FabLatency: 15.2, TAPLatency: 6, TapeoutEffort: 65, TestingEffort: 8.50e-18, PackageEffort: 3.21e-11, WaferCost: 3984, MaskSetCost: 0.83e6},
	N12:  {Node: N12, WaferRate: units.KWPM(60), DefectDensity: 0.08, Density: 16.8, FabLatency: 15.2, TAPLatency: 6, TapeoutEffort: 62, TestingEffort: 8.40e-18, PackageEffort: 3.40e-11, WaferCost: 3800, MaskSetCost: 0.80e6},
	N10:  {Node: N10, WaferRate: units.KWPM(0), DefectDensity: 0.09, Density: 48.9, FabLatency: 16.8, TAPLatency: 6, TapeoutEffort: 93, TestingEffort: 9.25e-18, PackageEffort: 2.09e-11, WaferCost: 5992, MaskSetCost: 1.30e6},
	N7:   {Node: N7, WaferRate: units.KWPM(252), DefectDensity: 0.10, Density: 55.3, FabLatency: 18.4, TAPLatency: 6, TapeoutEffort: 144, TestingEffort: 1.00e-17, PackageEffort: 1.36e-11, WaferCost: 9346, MaskSetCost: 2.00e6},
	N5:   {Node: N5, WaferRate: units.KWPM(97), DefectDensity: 0.12, Density: 100.0, FabLatency: 20.0, TAPLatency: 6, TapeoutEffort: 214, TestingEffort: 1.08e-17, PackageEffort: 8.83e-12, WaferCost: 16988, MaskSetCost: 3.05e6},
}

// canonical is the paper's Table 2 node set, oldest first. Variant
// nodes (the 12 nm class) resolve through Lookup but are excluded from
// the canonical sweeps so figures keep the paper's axes.
var canonical = []Node{N250, N180, N130, N90, N65, N40, N28, N20, N14, N10, N7, N5}

// All returns the twelve Table 2 nodes ordered from oldest (250 nm) to
// most advanced (5 nm).
func All() []Node {
	return append([]Node(nil), canonical...)
}

// Variants returns the non-canonical nodes in the database (currently
// only the 12 nm class).
func Variants() []Node {
	var out []Node
	for n := range table {
		in := false
		for _, c := range canonical {
			if c == n {
				in = true
				break
			}
		}
		if !in {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Producing returns the nodes with non-zero wafer capacity, oldest
// first (the ten nodes the paper's figures sweep).
func Producing() []Node {
	var ns []Node
	for _, n := range All() {
		if table[n].InProduction() {
			ns = append(ns, n)
		}
	}
	return ns
}

// Lookup returns the parameters for a node, or an error for a node
// outside the database.
func Lookup(n Node) (Params, error) {
	p, ok := table[n]
	if !ok {
		return Params{}, fmt.Errorf("technode: unknown process node %d", int(n))
	}
	return p, nil
}

// MustLookup is Lookup for known-good constants; it panics on unknown
// nodes and is intended for package-level tables and tests.
func MustLookup(n Node) Params {
	p, err := Lookup(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse converts a textual node name ("28nm", "28", "7") into a Node.
// It reads the leading integer exactly as fmt.Sscanf(s, "%d") does —
// white space other than newlines skipped, an optional sign, decimal
// digits, anything after them ignored — without fmt's reflection-based
// scanner.
func Parse(s string) (Node, error) {
	v, ok := scanInt(s)
	if !ok {
		return 0, fmt.Errorf("technode: cannot parse node %q", s)
	}
	if _, ok := table[Node(v)]; !ok {
		return 0, fmt.Errorf("technode: unknown process node %q", s)
	}
	return Node(v), nil
}

// scanInt is fmt.Sscanf(s, "%d", &v): the white-space runes fmt skips
// are exactly unicode.IsSpace's, and a newline before the number is an
// error there too.
func scanInt(s string) (int, bool) {
	i := 0
	for i < len(s) {
		r, w := utf8.DecodeRuneInString(s[i:])
		if r == '\n' || !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	j := i
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	k := j
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		k++
	}
	if k == j {
		return 0, false
	}
	v, err := strconv.Atoi(s[i:k])
	return v, err == nil
}
