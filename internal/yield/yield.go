// Package yield implements die-yield models. The paper (Eq. 6) uses the
// negative-binomial yield model
//
//	Y(A, p) = (1 + A·D0(p)/α)^(−α)
//
// with defect density D0 per process node and cluster parameter α = 3
// ("average defect clustering", after Cunningham [26] and Stow et
// al. [111]). Poisson and Murphy models are provided as ablation
// alternatives; all three agree as A·D0 → 0 and diverge for large,
// defect-prone dies.
package yield

import (
	"fmt"
	"math"

	"ttmcas/internal/units"
)

// DefaultAlpha is the cluster parameter the paper fixes for its entire
// evaluation.
const DefaultAlpha = 3.0

// Model identifies a die-yield model family.
type Model int

const (
	// NegativeBinomial is the paper's model (Eq. 6).
	NegativeBinomial Model = iota
	// Poisson is the classical Y = exp(−A·D0) model, the α → ∞ limit
	// of the negative binomial.
	Poisson
	// Murphy is Murphy's yield integral Y = ((1 − e^(−A·D0))/(A·D0))².
	Murphy
)

// String implements fmt.Stringer for reporting.
func (m Model) String() string {
	switch m {
	case NegativeBinomial:
		return "negative-binomial"
	case Poisson:
		return "poisson"
	case Murphy:
		return "murphy"
	default:
		return fmt.Sprintf("yield.Model(%d)", int(m))
	}
}

// Params bundles a yield computation's inputs.
type Params struct {
	// Area is the die area.
	Area units.MM2
	// D0 is the process node's defect density.
	D0 units.DefectsPerCM2
	// Alpha is the clustering parameter for the negative-binomial
	// model; zero means DefaultAlpha.
	Alpha float64
	// Model selects the family; the zero value is the paper's
	// negative binomial.
	Model Model
}

// Yield returns the fraction of functional dies in [0, 1]. Non-positive
// areas or defect densities yield 1 (a zero-area or defect-free die
// always works), matching the model limits.
func Yield(p Params) float64 {
	ad := float64(p.Area) * p.D0.PerMM2() // expected defects per die
	if ad <= 0 {
		return 1
	}
	switch p.Model {
	case Poisson:
		return math.Exp(-ad)
	case Murphy:
		f := (1 - math.Exp(-ad)) / ad
		return f * f
	default:
		alpha := p.Alpha
		if alpha <= 0 {
			alpha = DefaultAlpha
		}
		return powNeg(1+ad/alpha, alpha)
	}
}

// powNeg returns math.Pow(x, -alpha), bit for bit. For the paper's
// α = 3, and any integer α in 1…8, it skips math.Pow's special-case
// dispatch and Frexp/Ldexp bookkeeping and runs the square-and-multiply
// math.Pow runs internally, on x itself instead of on x's mantissa.
// With 1 ≤ x < 2^64 every product it uses is a normal float below
// 2^512, so scaling by a power of two changes no rounding, and 1/x^α is
// normal too: the result is the same bits. Anything else (a fractional
// α, NaN, x ≥ 2^64, +Inf) goes to math.Pow.
func powNeg(x, alpha float64) float64 {
	if n := int(alpha); alpha >= 1 && alpha <= 8 && float64(n) == alpha && x >= 1 && x < 0x1p64 {
		a, x1 := 1.0, x
		for i := n; i != 0; i >>= 1 {
			if i&1 == 1 {
				a *= x1
			}
			x1 *= x1
		}
		return 1 / a
	}
	return math.Pow(x, -alpha)
}

// NegBinomial is shorthand for the paper's Eq. 6 with the default α.
func NegBinomial(area units.MM2, d0 units.DefectsPerCM2) float64 {
	return Yield(Params{Area: area, D0: d0})
}

// DiesNeeded returns the expected number of dies that must be fabricated
// so that `good` dies pass, given the yield fraction y. A yield of zero
// returns +Inf: the design is unmanufacturable.
func DiesNeeded(good float64, y float64) float64 {
	if good <= 0 {
		return 0
	}
	if y <= 0 {
		return math.Inf(1)
	}
	return good / y
}
