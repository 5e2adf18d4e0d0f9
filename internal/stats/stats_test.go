package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1: Σ(d²)=32, /7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSortedCI95MatchesCI95BitForBit(t *testing.T) {
	// SortedCI95 is the sort-based oracle of the selection CI95 uses:
	// on a pre-sorted copy it must return exactly the bits CI95 returns
	// on the unsorted original, for every sample size including the
	// len-1 and len-2 edge ranks. select_test.go widens this to NaN,
	// ±Inf, ties and fuzzed inputs.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 7, 64, 1024} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		want := CI95(xs)
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		got := SortedCI95(cp)
		if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
			t.Errorf("n=%d: SortedCI95 = %+v, CI95 = %+v", n, got, want)
		}
	}
	empty := SortedCI95(nil)
	if !math.IsNaN(empty.Lo) || !math.IsNaN(empty.Hi) {
		t.Errorf("SortedCI95(nil) = %+v, want NaN bounds", empty)
	}
}

func TestCI95CoversBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	ci := CI95(xs)
	if !almost(ci.Lo, -1.96, 0.1) || !almost(ci.Hi, 1.96, 0.1) {
		t.Errorf("CI95 of standard normal = [%v, %v], want ~[-1.96, 1.96]", ci.Lo, ci.Hi)
	}
	if !(ci.Lo <= 0 && 0 <= ci.Hi) {
		t.Error("CI95 should contain 0")
	}
	if ci.Width() <= 0 {
		t.Error("CI width should be positive")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 + 1.5*x
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Intercept, 2.5, 1e-9) || !almost(f.Slope, 1.5, 1e-9) || !almost(f.R2, 1, 1e-9) {
		t.Errorf("fit = %+v", f)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("vertical line should error")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{3}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestFitExponentialRoundTrip(t *testing.T) {
	// Property: an exact exponential is recovered for random positive
	// coefficients.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.1 + 10*rng.Float64()
		b := -1 + 2*rng.Float64()
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a * math.Exp(b*x)
		}
		fit, err := FitExponential(xs, ys)
		if err != nil {
			return false
		}
		return almost(fit.A, a, 1e-6*a) && almost(fit.B, b, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitExponentialDomain(t *testing.T) {
	if _, err := FitExponential([]float64{0, 1}, []float64{1, -2}); err == nil {
		t.Error("negative y should error")
	}
}

func TestR2PenalizesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3 + 2*xs[i] + 40*rng.NormFloat64()
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if f.R2 >= 1 || f.R2 < 0.5 {
		t.Errorf("noisy R2 = %v, want in [0.5, 1)", f.R2)
	}
}
