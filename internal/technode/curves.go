package technode

import (
	"fmt"

	"ttmcas/internal/stats"
)

// Section 5 of the paper derives the engineering-effort columns of the
// node database by regression: tapeout and packaging effort are
// exponential fits through published cost anchors, and testing effort
// is a linear fit through validation-cost and test-data-volume
// projections. This file extrapolates the tapeout curve to nodes
// outside the table (3 nm, 2 nm) for speculative studies; the tests fit
// each shipped column to check that it follows the stated form.

// EffortCurve identifies one of the three per-node effort columns.
type EffortCurve int

const (
	// TapeoutCurve is E_tapeout(p): exponential in node generation.
	TapeoutCurve EffortCurve = iota
	// TestingCurve is E_testing(p): linear in node generation.
	TestingCurve
	// PackageCurve is E_package(p): exponential (decaying) in node
	// generation — newer packaging flows move more area per week.
	PackageCurve
)

// String implements fmt.Stringer.
func (c EffortCurve) String() string {
	switch c {
	case TapeoutCurve:
		return "E_tapeout"
	case TestingCurve:
		return "E_testing"
	case PackageCurve:
		return "E_package"
	default:
		return fmt.Sprintf("technode.EffortCurve(%d)", int(c))
	}
}

// column extracts the curve's y values in node-index order.
func (c EffortCurve) column() []float64 {
	nodes := All()
	ys := make([]float64, len(nodes))
	for i, n := range nodes {
		p := table[n]
		switch c {
		case TapeoutCurve:
			ys[i] = p.TapeoutEffort
		case TestingCurve:
			ys[i] = p.TestingEffort
		case PackageCurve:
			ys[i] = p.PackageEffort
		}
	}
	return ys
}

// FitTapeoutTail fits the exponential over only the advanced half of
// the table (28 nm onward). Tapeout effort accelerates at leading-edge
// nodes, so extrapolation beyond 5 nm must be anchored on the tail, not
// the legacy plateau.
func FitTapeoutTail() (stats.ExpFit, error) {
	ys := TapeoutCurve.column()
	const tailStart = 6 // 28 nm
	xs := make([]float64, 0, len(ys)-tailStart)
	tail := make([]float64, 0, len(ys)-tailStart)
	for i := tailStart; i < len(ys); i++ {
		xs = append(xs, float64(i))
		tail = append(tail, ys[i])
	}
	return stats.FitExponential(xs, tail)
}

// ExtrapolateTapeout evaluates the tail-fitted tapeout-effort
// exponential at a fractional node index beyond the table (index 12 ≈
// "3 nm", 13 ≈ "2 nm"), supporting the paper's observation that
// verification cost "grow[s] exponentially with more advanced process
// nodes".
func ExtrapolateTapeout(index float64) (float64, error) {
	fit, err := FitTapeoutTail()
	if err != nil {
		return 0, err
	}
	return fit.Eval(index), nil
}
