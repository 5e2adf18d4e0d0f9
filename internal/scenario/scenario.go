// Package scenario defines the concrete chip designs the paper's case
// studies evaluate: the Apple A11 (Section 6.2), a 16-core Ariane
// (Section 6.1), the Zen 2 chiplet family (Section 6.5, Table 4), and
// the Raven/PicoRV32-style microcontroller of the multi-process study
// (Section 7), plus the two illustrative chips of Fig. 3.
package scenario

import (
	"ttmcas/internal/design"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// A11 returns the paper's Apple A11 model: 4.3 B total transistors in
// 88 mm² at 10 nm, of which ≈514 M are unique/unverified (the custom
// big/little CPU cores, GPU cores, and NPU); the remainder is
// pre-verified memory and third-party soft IP available at every node.
// The paper assumes a 100-engineer tapeout team with blocks taped out
// in parallel.
func A11() design.Design {
	return design.Design{
		Name:        "A11",
		TapeoutTeam: 100,
		Dies: []design.Die{{
			Name: "soc",
			Node: technode.N10,
			Blocks: []design.Block{
				{Name: "big-cpu", Transistors: 100e6, Instances: 2},
				{Name: "little-cpu", Transistors: 40e6, Instances: 4},
				{Name: "gpu-core", Transistors: 88e6, Instances: 3},
				{Name: "npu", Transistors: 286e6, Instances: 1},
				{Name: "sram+ip", Transistors: 3390e6, Instances: 1, PreVerified: true},
			},
		}},
	}
}

// A11At returns the A11 architecture re-targeted for fabrication at the
// given node, as in the re-release study of Section 6.2: the tapeout
// phase restarts at the new node and the die area re-derives from the
// node's transistor density.
func A11At(node technode.Node) design.Design { return A11().Retarget(node) }

// ArianeConfig parameterizes the cache-sizing study of Section 6.1.
type ArianeConfig struct {
	// Cores is the core count (the paper manufactures 16-core chips).
	Cores int
	// ICacheKB and DCacheKB are the per-core instruction and data
	// cache capacities in KiB, swept from 1 KB to 1 MB.
	ICacheKB, DCacheKB int
	// Node is the fabrication node (the paper's scatter uses 14 nm).
	Node technode.Node
}

// Ariane cache geometry: 6 transistors per SRAM bit plus 20% array
// overhead (decoders, sense amps, tags).
const (
	arianeCoreLogic   units.Transistors = 3.5e6
	arianeUncoreLogic units.Transistors = 30e6
	sramTransPerBit                     = 6.0
	sramOverhead                        = 1.2
)

// CacheTransistors returns the transistor cost of one cache of the
// given capacity in KiB.
func CacheTransistors(kb int) units.Transistors {
	bits := float64(kb) * 1024 * 8
	return units.Transistors(bits * sramTransPerBit * sramOverhead)
}

// Ariane returns the multicore Ariane design for the configuration.
// The core logic is unique (taped out once); caches are pre-verified
// SRAM macros; the uncore (NoC, IO) is unique top-level logic.
func (c ArianeConfig) Design() design.Design {
	cores := c.Cores
	if cores < 1 {
		cores = 16
	}
	node := c.Node
	if node == 0 {
		node = technode.N14
	}
	cache := CacheTransistors(c.ICacheKB) + CacheTransistors(c.DCacheKB)
	return design.Design{
		Name:        "ariane16",
		TapeoutTeam: 100,
		Dies: []design.Die{{
			Name: "cpu",
			Node: node,
			Blocks: []design.Block{
				{Name: "core", Transistors: arianeCoreLogic, Instances: cores},
				{Name: "caches", Transistors: cache, Instances: cores, PreVerified: true},
				{Name: "uncore", Transistors: arianeUncoreLogic, Instances: 1},
			},
		}},
	}
}

// Zen 2 die parameters (Table 4). Starred values in the paper come
// directly from AMD's ISSCC papers; the others derive from the
// density model. The 12 nm GlobalFoundries I/O node maps to the
// database's 14 nm class.
const (
	Zen2ComputeNTT units.Transistors = 3.8e9
	Zen2ComputeNUT units.Transistors = 475e6
	Zen2IONTT      units.Transistors = 2.1e9
	Zen2IONUT      units.Transistors = 523e6
)

// Zen2 returns the original Zen 2 chiplet design: two 7 nm compute dies
// (74 mm², source-reported) and one 12 nm I/O die (125 mm²,
// source-reported) per package, no interposer. The I/O die's 12 nm
// line is a GlobalFoundries-class variant node with far less capacity
// than the Table 2 foundry, which is what exposes the design to
// I/O-side production disruptions (Fig. 13c).
func Zen2() design.Design {
	return design.Design{
		Name:        "zen2",
		TapeoutTeam: 100,
		Dies: []design.Die{
			{
				Name: "compute", Node: technode.N7,
				NTT: Zen2ComputeNTT, NUT: Zen2ComputeNUT,
				CountPerPackage: 2, AreaOverride: 74,
			},
			{
				Name: "io", Node: technode.N12,
				NTT: Zen2IONTT, NUT: Zen2IONUT,
				CountPerPackage: 1, AreaOverride: 125,
			},
		},
	}
}

// Zen2Chiplet returns the Zen 2 chiplet design with every die moved to
// one node (the "all 7 nm" and "all 12 nm" hypotheticals of Fig. 13);
// die areas re-derive from the node's density.
func Zen2Chiplet(node technode.Node) design.Design {
	d := Zen2().Retarget(node)
	d.Name = "zen2-chiplet@" + node.String()
	return d
}

// Zen2Monolithic returns the single-die merge of Zen 2 at the node.
func Zen2Monolithic(node technode.Node) design.Design {
	d := Zen2().Monolithic(node)
	d.Name = "zen2-monolithic@" + node.String()
	return d
}

// InterposerNode is the legacy node the paper fabricates silicon
// interposers at.
const InterposerNode = technode.N65

// RavenConfig parameterizes the multi-process microcontroller study of
// Section 7.
type RavenConfig struct {
	// Cores is the PicoRV32 core count of the multicore tile.
	Cores int
	// Node is the fabrication node.
	Node technode.Node
}

// Raven returns a Raven/PicoRV32-inspired multicore microcontroller: a
// small RISC-V core, SRAM, and peripherals, clamped to the paper's
// 1 mm² minimum die area. Performance and area are akin to a low-end
// Cortex-M-class automotive microcontroller.
func (c RavenConfig) Design() design.Design {
	cores := c.Cores
	if cores < 1 {
		cores = 32
	}
	node := c.Node
	if node == 0 {
		node = technode.N180
	}
	return design.Design{
		Name:        "raven",
		TapeoutTeam: 20,
		Dies: []design.Die{{
			Name:    "mcu",
			Node:    node,
			MinArea: 1,
			Blocks: []design.Block{
				{Name: "picorv32", Transistors: 0.5e6, Instances: cores},
				{Name: "sram", Transistors: 12e6, Instances: 1, PreVerified: true},
				{Name: "uncore+io", Transistors: 2.0e6, Instances: 1},
			},
		}},
	}
}

// ChipA and ChipB are the two illustrative designs of Fig. 3: same
// final chip count, but Chip A needs many more wafers (large die on a
// slower node), so its TTM reacts more steeply to production-rate
// changes and its CAS is lower.
func ChipA() design.Design {
	return design.Design{
		Name:        "chip-A",
		TapeoutTeam: 100,
		Dies: []design.Die{{
			Name: "big-die", Node: technode.N90,
			NTT: 2.0e9, NUT: 150e6,
		}},
	}
}

// ChipB is the smaller, denser-node counterpart of ChipA.
func ChipB() design.Design {
	return design.Design{
		Name:        "chip-B",
		TapeoutTeam: 100,
		Dies: []design.Die{{
			Name: "small-die", Node: technode.N28,
			NTT: 2.0e9, NUT: 150e6,
		}},
	}
}
