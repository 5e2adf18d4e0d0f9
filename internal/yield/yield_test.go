package yield

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ttmcas/internal/units"
)

func TestNegBinomialKnownValue(t *testing.T) {
	// A·D0 = 0.83, α = 3 → Y = (1 + 0.83/3)^-3 ≈ 0.48, the paper's
	// 250 nm A11 anchor.
	y := NegBinomial(1660, 0.05)
	if math.Abs(y-0.48) > 0.01 {
		t.Errorf("Y(1660mm², 0.05/cm²) = %v, want ~0.48", y)
	}
}

func TestYieldLimits(t *testing.T) {
	if y := NegBinomial(0, 0.1); y != 1 {
		t.Errorf("zero-area yield = %v, want 1", y)
	}
	if y := NegBinomial(100, 0); y != 1 {
		t.Errorf("zero-defect yield = %v, want 1", y)
	}
	if y := NegBinomial(-5, 0.1); y != 1 {
		t.Errorf("negative-area yield = %v, want 1", y)
	}
}

func TestYieldBoundsAndMonotonicity(t *testing.T) {
	// Properties: Y ∈ (0, 1]; monotone non-increasing in area and in
	// defect density, for all three model families.
	f := func(rawArea, rawD0 uint16, modelSel uint8) bool {
		area := units.MM2(float64(rawArea%5000) + 1)
		d0 := units.DefectsPerCM2(float64(rawD0%500)/1000 + 0.001)
		model := Model(modelSel % 3)
		y := Yield(Params{Area: area, D0: d0, Model: model})
		if y <= 0 || y > 1 || math.IsNaN(y) {
			return false
		}
		y2 := Yield(Params{Area: area * 2, D0: d0, Model: model})
		if y2 > y {
			return false
		}
		y3 := Yield(Params{Area: area, D0: d0 * 2, Model: model})
		return y3 <= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelsAgreeForSmallDefects(t *testing.T) {
	// All three families converge to 1 − A·D0 as A·D0 → 0.
	area, d0 := units.MM2(1), units.DefectsPerCM2(0.01) // A·D0 = 1e-4
	nb := Yield(Params{Area: area, D0: d0, Model: NegativeBinomial})
	po := Yield(Params{Area: area, D0: d0, Model: Poisson})
	mu := Yield(Params{Area: area, D0: d0, Model: Murphy})
	if math.Abs(nb-po) > 1e-6 || math.Abs(nb-mu) > 1e-6 {
		t.Errorf("models diverge at small A·D0: nb=%v po=%v murphy=%v", nb, po, mu)
	}
}

func TestModelOrderingForLargeDefects(t *testing.T) {
	// With clustering, negative binomial is more optimistic than
	// Poisson for large A·D0 (defects bunch on fewer dies).
	area, d0 := units.MM2(1000), units.DefectsPerCM2(0.2) // A·D0 = 2
	nb := Yield(Params{Area: area, D0: d0, Model: NegativeBinomial})
	po := Yield(Params{Area: area, D0: d0, Model: Poisson})
	if nb <= po {
		t.Errorf("negative binomial (%v) should exceed Poisson (%v) at A·D0=2", nb, po)
	}
}

func TestAlphaLimitApproachesPoisson(t *testing.T) {
	area, d0 := units.MM2(500), units.DefectsPerCM2(0.1)
	nb := Yield(Params{Area: area, D0: d0, Alpha: 1e7})
	po := Yield(Params{Area: area, D0: d0, Model: Poisson})
	if math.Abs(nb-po) > 1e-4 {
		t.Errorf("α→∞ limit: nb=%v, poisson=%v", nb, po)
	}
}

func TestDiesNeeded(t *testing.T) {
	if got := DiesNeeded(100, 0.5); got != 200 {
		t.Errorf("DiesNeeded = %v, want 200", got)
	}
	if got := DiesNeeded(0, 0.5); got != 0 {
		t.Errorf("DiesNeeded(0 good) = %v, want 0", got)
	}
	if got := DiesNeeded(100, 0); !math.IsInf(got, 1) {
		t.Errorf("DiesNeeded(yield 0) = %v, want +Inf", got)
	}
}

func TestModelString(t *testing.T) {
	if NegativeBinomial.String() != "negative-binomial" ||
		Poisson.String() != "poisson" || Murphy.String() != "murphy" {
		t.Error("model names wrong")
	}
	if Model(99).String() == "" {
		t.Error("unknown model should still render")
	}
}

// negBinomialRef is Eq. 6 as math.Pow computes it: the reference the
// integer-α fast path of Yield must reproduce bit for bit.
func negBinomialRef(p Params) float64 {
	ad := float64(p.Area) * p.D0.PerMM2()
	if ad <= 0 {
		return 1
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	return math.Pow(1+ad/alpha, -alpha)
}

func sameNegBinomial(t *testing.T, p Params) {
	t.Helper()
	got, want := Yield(p), negBinomialRef(p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Yield(%+v) = %v (%#x), math.Pow gives %v (%#x)",
			p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNegBinomialMatchesPow draws expected-defect counts from three
// distributions (uniform, exponential over many decades, raw bit
// patterns) for every α the fast path takes and two it leaves to
// math.Pow, and requires Yield to equal math.Pow bit for bit.
func TestNegBinomialMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphas := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 2.5, 3 + 1e-12, 9, 16}
	for _, alpha := range alphas {
		for i := 0; i < 20000; i++ {
			var ad float64
			switch i % 3 {
			case 0:
				ad = rng.Float64() * 10
			case 1:
				ad = math.Exp(rng.NormFloat64() * 30)
			default:
				ad = math.Float64frombits(rng.Uint64() &^ (1 << 63))
			}
			// D0 = 100 defects/cm² is 1 defect/mm², so Area carries ad.
			sameNegBinomial(t, Params{Area: units.MM2(ad), D0: 100, Alpha: alpha})
		}
	}
}

// FuzzNegBinomialMatchesPow holds Yield under the negative binomial to
// math.Pow(1+A·D0/α, −α) bit for bit for any area, defect density and
// α: the integer-α fast path, its math.Pow fallback and the A·D0 ≤ 0
// limit. The seeds run in tier-1; CI's fuzz-smoke job explores further.
func FuzzNegBinomialMatchesPow(f *testing.F) {
	// With D0 = 100/cm² (1/mm²), x = 1 + area/α.
	for _, alpha := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 2.5, 3 + 1e-12} {
		for _, area := range []float64{
			1e-300,                    // x = 1
			alpha * 0x1p-52,           // x = Nextafter(1, 2)
			alpha * (0x1p64 - 0x1p12), // x just below 2^64
			alpha * (0x1p64 + 0x1p13), // x just above 2^64
		} {
			f.Add(area, 100.0, alpha)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(v, 0.1, 3.0)
		f.Add(100.0, v, 3.0)
		f.Add(100.0, 0.1, v)
	}
	f.Add(1660.0, 0.05, 3.0) // the paper's 250 nm A11 anchor
	f.Add(-5.0, 0.1, 3.0)
	f.Add(100.0, 0.1, 0.0)
	f.Fuzz(func(t *testing.T, area, d0, alpha float64) {
		sameNegBinomial(t, Params{Area: units.MM2(area), D0: units.DefectsPerCM2(d0), Alpha: alpha})
	})
}
