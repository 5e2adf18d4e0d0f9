// Package geometry models wafer and die geometry: how many die sites a
// circular wafer of a given diameter provides for a rectangular die of a
// given area.
//
// The paper's Section 5 computes the number of wafers N_W from the final
// chip count, the die area, and the wafer area, "also account[ing] for
// partial edge dies"; all results use 300 mm-diameter-equivalent wafers.
// This package implements the standard gross-die-per-wafer estimate
//
//	GDPW = π(d/2)²/A − π·d/√(2A)
//
// (wafer area divided by die area, minus the ring of partial dies lost
// at the wafer edge), together with a naive area-ratio estimate used by
// the edge-correction ablation.
package geometry

import (
	"errors"
	"math"

	"ttmcas/internal/units"
)

// DefaultWaferDiameterMM is the industry-standard 300 mm wafer used for
// every evaluation in the paper (legacy 200 mm lines are folded into
// 300 mm equivalents).
const DefaultWaferDiameterMM = 300.0

// ErrDieTooLarge is returned when a die cannot fit on the wafer at all.
var ErrDieTooLarge = errors.New("geometry: die area exceeds usable wafer area")

// Wafer describes a circular silicon wafer.
type Wafer struct {
	// DiameterMM is the wafer diameter in millimeters.
	DiameterMM float64
}

// Default300 returns the standard 300 mm wafer.
func Default300() Wafer { return Wafer{DiameterMM: DefaultWaferDiameterMM} }

// Area returns the full circular area of the wafer.
func (w Wafer) Area() units.MM2 {
	r := w.DiameterMM / 2
	return units.MM2(math.Pi * r * r)
}

// GrossDiesFrac returns the estimated number of complete die sites for
// a die of the given area, applying the partial-edge-die correction. It
// is zero when the die does not fit, and fractional: the model works in
// expectations, and integer steps would put artificial plateaus into
// smooth sweeps.
func (w Wafer) GrossDiesFrac(die units.MM2) float64 {
	if die <= 0 {
		return 0
	}
	a := float64(die)
	n := float64(w.Area())/a - math.Pi*w.DiameterMM/math.Sqrt(2*a)
	if n < 0 || math.IsNaN(n) {
		return 0
	}
	return n
}

// NaiveDies returns the uncorrected wafer-area / die-area estimate. It
// systematically over-counts by ignoring partial dies at the wafer edge
// and exists for the edge-correction ablation benchmark.
func (w Wafer) NaiveDies(die units.MM2) int {
	if die <= 0 {
		return 0
	}
	n := float64(w.Area()) / float64(die)
	if n < 1 {
		return 0
	}
	return int(n)
}
