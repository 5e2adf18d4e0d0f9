// Package design represents chip designs the way the paper's model sees
// them: a set of die types, each fabricated at one process node, with a
// total transistor count N_TT (everything that must be tested), a
// unique/unverified transistor count N_UT (everything that must go
// through the tapeout phase), and a per-package die count
// N_die,package. Designs may mix process nodes (chiplets, interposers)
// and may be split across nodes for multi-process manufacturing
// (Section 7).
package design

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// Block is a reusable design unit. A multicore processor's core is one
// block instantiated N times; only one instance contributes unique,
// unverified transistors to the tapeout phase (Section 3.2), while all
// instances contribute to the total count that must be fabricated and
// tested.
type Block struct {
	// Name identifies the block in reports.
	Name string
	// Transistors is the transistor count of a single instance.
	Transistors units.Transistors
	// Instances is how many copies the die integrates (≥ 1).
	Instances int
	// PreVerified marks gate-level soft/hard IP that a vendor has
	// already verified for the node: it contributes zero unique
	// transistors (e.g. the A11's memory macros and third-party IP).
	PreVerified bool
}

// Total returns the block's contribution to N_TT.
func (b Block) Total() units.Transistors {
	inst := b.Instances
	if inst < 1 {
		inst = 1
	}
	return b.Transistors * units.Transistors(inst)
}

// Unique returns the block's contribution to N_UT: one instance, unless
// the block is pre-verified.
func (b Block) Unique() units.Transistors {
	if b.PreVerified {
		return 0
	}
	return b.Transistors
}

// Die is one die type in the final package.
type Die struct {
	// Name identifies the die ("compute", "io", "interposer").
	Name string
	// Node is the process node the die is fabricated at.
	Node technode.Node
	// Blocks is the die's block-level composition. If empty, the
	// explicit NTT/NUT fields below are used instead.
	Blocks []Block
	// NTT and NUT override the block-derived counts when Blocks is
	// empty (used when the paper gives counts directly, e.g. Table 4).
	NTT, NUT units.Transistors
	// CountPerPackage is how many copies of this die each final chip
	// packages (Zen 2: two compute dies, one I/O die). Zero means one.
	CountPerPackage int
	// AreaOverride, when positive, pins the die area instead of
	// deriving it from the node's transistor density (the paper's
	// starred, source-reported areas).
	AreaOverride units.MM2
	// MinArea clamps the derived area from below (pad-ring/IO-limited
	// designs; the Raven study sets 1 mm²).
	MinArea units.MM2
	// YieldOverride, when in (0, 1], bypasses the defect-driven yield
	// model (the paper assumes a passive interposer yields 99.99%).
	YieldOverride float64
	// Salvage, when non-nil, enables defect binning for the die: dies
	// with at least MinGoodCores working core slices are sellable
	// (Section 2.1's "binning"), raising the effective yield.
	Salvage *yield.Salvage
	// SkipTapeout marks a die whose tapeout has already been completed
	// (re-releasing an existing layout on the same node).
	SkipTapeout bool
}

// Count returns the per-package die count, at least 1.
func (d Die) Count() int {
	if d.CountPerPackage < 1 {
		return 1
	}
	return d.CountPerPackage
}

// TotalTransistors returns the die's N_TT.
func (d Die) TotalTransistors() units.Transistors {
	if len(d.Blocks) == 0 {
		return d.NTT
	}
	var t units.Transistors
	for _, b := range d.Blocks {
		t += b.Total()
	}
	return t
}

// UniqueTransistors returns the die's N_UT.
func (d Die) UniqueTransistors() units.Transistors {
	if d.SkipTapeout {
		return 0
	}
	if len(d.Blocks) == 0 {
		return d.NUT
	}
	var t units.Transistors
	for _, b := range d.Blocks {
		t += b.Unique()
	}
	return t
}

// Area returns the die area at its node, honoring the override and the
// minimum-area clamp.
func (d Die) Area(p technode.Params) units.MM2 {
	a := d.AreaOverride
	if a <= 0 {
		a = p.Area(d.TotalTransistors())
	}
	if a < d.MinArea {
		a = d.MinArea
	}
	return a
}

// Design is a complete chip design: the unit the TTM model, CAS, and
// the cost model evaluate.
type Design struct {
	// Name identifies the design in reports.
	Name string
	// Dies lists the die types packaged into one final chip.
	Dies []Die
	// TapeoutTeam is the number of tapeout engineers converting
	// engineering-hours into calendar weeks. Zero means the paper's
	// A11 assumption of 100.
	TapeoutTeam int
	// DesignTime is the per-design constant T_design+implementation of
	// Eq. 1 (Section 3.1). The paper's comparative studies set it to
	// zero since it is identical across the alternatives compared.
	DesignTime units.Weeks
}

// DefaultTapeoutTeam is the engineering team size assumed when a design
// does not specify one (the paper's A11 case study uses 100).
const DefaultTapeoutTeam = 100

// Team returns the effective tapeout team size.
func (d Design) Team() int {
	if d.TapeoutTeam < 1 {
		return DefaultTapeoutTeam
	}
	return d.TapeoutTeam
}

// Validate checks structural invariants: at least one die, known nodes,
// positive transistor counts, sane yield overrides.
func (d Design) Validate() error {
	if len(d.Dies) == 0 {
		return errors.New("design: no dies")
	}
	for i, die := range d.Dies {
		if die.Node <= 0 {
			return fmt.Errorf("design: die %d (%s): missing process node", i, die.Name)
		}
		if die.TotalTransistors() <= 0 && die.AreaOverride <= 0 && die.MinArea <= 0 {
			return fmt.Errorf("design: die %d (%s): no transistors and no explicit area", i, die.Name)
		}
		if die.TotalTransistors() < die.UniqueTransistors() {
			return fmt.Errorf("design: die %d (%s): unique transistors exceed total", i, die.Name)
		}
		if die.YieldOverride < 0 || die.YieldOverride > 1 {
			return fmt.Errorf("design: die %d (%s): yield override %v outside (0,1]", i, die.Name, die.YieldOverride)
		}
		if die.Salvage != nil {
			if err := die.Salvage.Validate(); err != nil {
				return fmt.Errorf("design: die %d (%s): %w", i, die.Name, err)
			}
		}
	}
	return nil
}

// Nodes returns the distinct process nodes the design uses, oldest
// (largest feature size) first.
func (d Design) Nodes() []technode.Node {
	var out []technode.Node
	for _, die := range d.Dies {
		if !slices.Contains(out, die.Node) {
			out = append(out, die.Node)
		}
	}
	slices.SortFunc(out, func(a, b technode.Node) int { return cmp.Compare(b, a) })
	return out
}

// UniqueTransistorsAt sums N_UT(d, p) over the design's dies fabricated
// at node p (the inner term of Eq. 2). Each die type tapes out once
// regardless of its per-package count.
func (d Design) UniqueTransistorsAt(p technode.Node) units.Transistors {
	var t units.Transistors
	for _, die := range d.Dies {
		if die.Node == p {
			t += die.UniqueTransistors()
		}
	}
	return t
}

// DiesPerPackage returns N_die,package: the total number of dies
// assembled into one final chip.
func (d Design) DiesPerPackage() int {
	n := 0
	for _, die := range d.Dies {
		n += die.Count()
	}
	return n
}

// TotalTransistorsPerChip sums N_TT across all dies of one final chip.
func (d Design) TotalTransistorsPerChip() units.Transistors {
	var t units.Transistors
	for _, die := range d.Dies {
		t += die.TotalTransistors() * units.Transistors(die.Count())
	}
	return t
}

// Retarget returns a copy of the design with every die moved to the
// given node and area overrides cleared (areas re-derive from the new
// node's density). This is the "re-release on a different node"
// operation of the A11 case study.
func (d Design) Retarget(node technode.Node) Design {
	out := d
	out.Dies = make([]Die, len(d.Dies))
	for i, die := range d.Dies {
		die.Node = node
		die.AreaOverride = 0
		die.SkipTapeout = false
		out.Dies[i] = die
	}
	out.Name = d.Name + "@" + node.String()
	return out
}

// Monolithic returns a single-die merge of the design at the given
// node: total and unique transistors are summed, the die count becomes
// one. Used by the chiplet-vs-monolithic comparison of Section 6.5.
func (d Design) Monolithic(node technode.Node) Design {
	var ntt, nut units.Transistors
	for _, die := range d.Dies {
		ntt += die.TotalTransistors() * units.Transistors(die.Count())
		nut += die.UniqueTransistors()
	}
	return Design{
		Name:        fmt.Sprintf("%s-monolithic@%s", d.Name, node),
		TapeoutTeam: d.TapeoutTeam,
		DesignTime:  d.DesignTime,
		Dies: []Die{{
			Name: "monolithic",
			Node: node,
			NTT:  ntt,
			NUT:  nut,
		}},
	}
}

// InterposerScale is the paper's interposer sizing: 120% of the summed
// area of the chiplets it carries.
const InterposerScale = 1.2

// PassiveInterposerYield is the paper's optimistic passive-interposer
// yield assumption.
const PassiveInterposerYield = 0.9999

// WithInterposer returns a copy of the design with a passive silicon
// interposer die added at the given node, sized to InterposerScale
// times the summed chiplet area.
func (d Design) WithInterposer(node technode.Node) (Design, error) {
	p, err := technode.Lookup(node)
	if err != nil {
		return Design{}, err
	}
	var area units.MM2
	for _, die := range d.Dies {
		dp, err := technode.Lookup(die.Node)
		if err != nil {
			return Design{}, err
		}
		area += die.Area(dp) * units.MM2(die.Count())
	}
	_ = p
	out := d
	out.Name = d.Name + "+interposer@" + node.String()
	out.Dies = append(append([]Die(nil), d.Dies...), Die{
		Name:          "interposer",
		Node:          node,
		AreaOverride:  area * InterposerScale,
		YieldOverride: PassiveInterposerYield,
		// A passive interposer is routing-only; its "transistor"
		// payload is zero, so it contributes neither tapeout nor
		// testing effort, only fabrication and packaging area.
		NTT: 0, NUT: 0,
	})
	return out, nil
}
