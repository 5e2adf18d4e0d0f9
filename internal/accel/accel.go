// Package accel is the substrate for the cost-of-specialization case
// study (Section 6.4, Table 3). The paper benchmarks SPIRAL-generated
// fixed-point sorting and floating-point FFT accelerators against an
// Ariane core on 2048-element blocks, taking cycle counts and unique
// transistor counts from commercial EDA synthesis. Without those tools,
// this package substitutes first-principles structural models:
//
//   - a scalar in-order core model (cycles per comparison / butterfly,
//     including the load/store and branch overhead an Ariane-class
//     pipeline pays per element);
//   - a streaming-reuse accelerator model: hardware implements f of the
//     algorithm's S network stages at w elements per cycle; a dataset
//     makes ⌈S/f⌉ passes, each costing n·stall/w + fill cycles.
//
// Speed-ups come out of these models; unique transistor counts are the
// paper's published synthesis figures (Table 3), carried as data the
// same way the Zen 2 die parameters are.
package accel

import (
	"math"

	"ttmcas/internal/units"
)

// BlockSize is the dataset size of the case study.
const BlockSize = 2048

// ScalarCore models an Ariane-class in-order core executing the
// kernels in software.
type ScalarCore struct {
	// CyclesPerCompare is the per-comparison cost of merge sort
	// (loads, compare, branch, store, index update); zero means 10.
	CyclesPerCompare float64
	// CyclesPerButterfly is the per-butterfly cost of a radix-2 FFT
	// (10 dependent single-precision flops plus memory); zero means 60.
	CyclesPerButterfly float64
}

// Default scalar-core costs.
const (
	DefaultCyclesPerCompare   = 10
	DefaultCyclesPerButterfly = 60
)

func (c ScalarCore) withDefaults() ScalarCore {
	if c.CyclesPerCompare == 0 {
		c.CyclesPerCompare = DefaultCyclesPerCompare
	}
	if c.CyclesPerButterfly == 0 {
		c.CyclesPerButterfly = DefaultCyclesPerButterfly
	}
	return c
}

// SortCycles returns the scalar cycles to merge-sort n elements:
// n·log2(n) comparisons at the per-comparison cost.
func (c ScalarCore) SortCycles(n int) float64 {
	c = c.withDefaults()
	return float64(n) * math.Log2(float64(n)) * c.CyclesPerCompare
}

// FFTCycles returns the scalar cycles for an n-point radix-2 FFT:
// (n/2)·log2(n) butterflies at the per-butterfly cost.
func (c ScalarCore) FFTCycles(n int) float64 {
	c = c.withDefaults()
	return float64(n) / 2 * math.Log2(float64(n)) * c.CyclesPerButterfly
}

// Accelerator is the streaming-reuse machine model.
type Accelerator struct {
	// Name labels the design.
	Name string
	// TotalStages is the algorithm's network depth S (bitonic sort:
	// log2(n)·(log2(n)+1)/2; radix-2 FFT: log2(n)).
	TotalStages int
	// HWStages is f: how many stages are instantiated in hardware.
	HWStages int
	// Width is w: elements accepted per cycle.
	Width int
	// StallFactor inflates the initiation interval for memory-bank
	// conflicts; zero means 1.
	StallFactor float64
	// FillLatency is the pipeline fill cost per pass in cycles.
	FillLatency int
	// UniqueTransistors is the design's synthesized N_UT (the paper's
	// published Table 3 figures; non-memory transistors are unique).
	UniqueTransistors units.Transistors
}

// Passes returns how many trips a dataset makes through the hardware.
func (a Accelerator) Passes() int {
	return (a.TotalStages + a.HWStages - 1) / a.HWStages
}

// Cycles returns the cycles to process one n-element dataset.
func (a Accelerator) Cycles(n int) float64 {
	stall := a.StallFactor
	if stall == 0 {
		stall = 1
	}
	perPass := float64(n)*stall/float64(a.Width) + float64(a.FillLatency)
	return float64(a.Passes()) * perPass
}

// SpeedUp returns scalarCycles / acceleratorCycles for the kernel.
func SpeedUp(scalar float64, a Accelerator, n int) float64 {
	return scalar / a.Cycles(n)
}

// bitonicStages returns the comparator-stage depth of an n-input
// bitonic sorting network: log2(n)·(log2(n)+1)/2.
func bitonicStages(n int) int {
	l := int(math.Round(math.Log2(float64(n))))
	return l * (l + 1) / 2
}

// fftStages returns the butterfly-stage depth of an n-point radix-2
// FFT: log2(n).
func fftStages(n int) int {
	return int(math.Round(math.Log2(float64(n))))
}

// ArianeNUT is the unique transistor count of the reference Ariane
// core, the denominator of Table 3's "area relative to Ariane" column
// (the paper's NTT ratios are uniformly 2.51 M per Ariane).
const ArianeNUT units.Transistors = 2.51e6

// The four generated designs of Table 3. Hardware shape parameters are
// chosen so the structural cycle model lands on the paper's measured
// speed-up band; unique transistor counts are the paper's synthesis
// results.
func SortingStream() Accelerator {
	return Accelerator{
		Name:        "sorting-stream",
		TotalStages: bitonicStages(BlockSize),
		HWStages:    6, Width: 2,
		FillLatency:       12,
		UniqueTransistors: 45.62e6,
	}
}

// SortingIterative is the single-stage, reused sorting design.
func SortingIterative() Accelerator {
	return Accelerator{
		Name:        "sorting-iterative",
		TotalStages: bitonicStages(BlockSize),
		HWStages:    1, Width: 2,
		FillLatency:       2,
		UniqueTransistors: 18.90e6,
	}
}

// DFTStream is the streaming FFT design.
func DFTStream() Accelerator {
	return Accelerator{
		Name:        "dft-stream",
		TotalStages: fftStages(BlockSize),
		HWStages:    1, Width: 2,
		FillLatency:       2,
		UniqueTransistors: 37.31e6,
	}
}

// DFTIterative is the narrow, memory-bound FFT design.
func DFTIterative() Accelerator {
	return Accelerator{
		Name:        "dft-iterative",
		TotalStages: fftStages(BlockSize),
		HWStages:    1, Width: 1,
		StallFactor: 1.4, FillLatency: 4,
		UniqueTransistors: 18.18e6,
	}
}

// All returns the four Table 3 designs in the paper's row order.
func All() []Accelerator {
	return []Accelerator{SortingStream(), SortingIterative(), DFTStream(), DFTIterative()}
}

// IsSort reports whether the accelerator runs the sorting kernel (by
// network depth).
func (a Accelerator) IsSort() bool { return a.TotalStages == bitonicStages(BlockSize) }

// KernelSpeedUp evaluates the design's speed-up over the scalar core
// on the case study's 2048-element blocks.
func (a Accelerator) KernelSpeedUp(core ScalarCore) float64 {
	var scalar float64
	if a.IsSort() {
		scalar = core.SortCycles(BlockSize)
	} else {
		scalar = core.FFTCycles(BlockSize)
	}
	return SpeedUp(scalar, a, BlockSize)
}

// AreaRelativeToAriane returns the Table 3 area-ratio column.
func (a Accelerator) AreaRelativeToAriane() float64 {
	return float64(a.UniqueTransistors) / float64(ArianeNUT)
}
