package cost

import (
	"errors"
	"math"

	"ttmcas/internal/design"
	"ttmcas/internal/units"
)

// Break-even analysis. Chip-creation cost is affine in the chip count —
// C(n) = NRE + v·n, with NRE the mask sets plus tapeout labor and v the
// per-chip wafer and packaging cost — so two alternatives cross at a
// single volume. Section 7 argues multi-process tapeout is "economically
// feasible" for mass-produced chips exactly because the denser second
// node's lower v amortizes the extra NRE; BreakEven computes the volume
// where that happens.

// Affine decomposes a design's cost into its fixed NRE and per-chip
// variable components.
func (m Model) Affine(d design.Design) (fixed, perChip units.USD, err error) {
	// Two volumes read off one compiled evaluator pin the line; a third
	// point is asserted equal by the linearity unit test, not here.
	const n1, n2 = 1e6, 3e6
	ev, err := m.compile(d, n1)
	if err != nil {
		return 0, 0, err
	}
	r := m.rates()
	b1, err := ev.CostChips(r, n1)
	if err != nil {
		return 0, 0, err
	}
	b2, err := ev.CostChips(r, n2)
	if err != nil {
		return 0, 0, err
	}
	perChip = (b2.Total - b1.Total) / units.USD(n2-n1)
	fixed = b1.Total - perChip*units.USD(n1)
	return fixed, perChip, nil
}

// ErrNoBreakEven is returned when one alternative dominates at every
// volume (same or worse on both components).
var ErrNoBreakEven = errors.New("cost: no break-even volume: one design dominates")

// BreakEven returns the chip count at which designs a and b cost the
// same. Below the returned volume the design with the lower NRE wins;
// above it, the one with the lower per-chip cost wins. It returns
// ErrNoBreakEven when the lines never cross at a positive volume.
func (m Model) BreakEven(a, b design.Design) (float64, error) {
	fa, va, err := m.Affine(a)
	if err != nil {
		return 0, err
	}
	fb, vb, err := m.Affine(b)
	if err != nil {
		return 0, err
	}
	dv := float64(va - vb)
	df := float64(fb - fa)
	if dv == 0 || math.Signbit(dv) != math.Signbit(df) {
		return 0, ErrNoBreakEven
	}
	n := df / dv
	if n <= 0 || math.IsInf(n, 0) || math.IsNaN(n) {
		return 0, ErrNoBreakEven
	}
	return n, nil
}
