package technode

import (
	"testing"

	"ttmcas/internal/stats"
)

// indices returns 0..len(nodes)-1 as float64 x coordinates.
func indices(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// FitTapeout fits the exponential E_tapeout(i) = A·exp(B·i) through the
// database column, mirroring the paper's "curve fit to an exponential
// regression".
func FitTapeout() (stats.ExpFit, error) {
	ys := TapeoutCurve.column()
	return stats.FitExponential(indices(len(ys)), ys)
}

// FitTesting fits the linear E_testing(i) = a + b·i through the
// database column, mirroring the paper's linear regression over test
// data volume projections.
func FitTesting() (stats.LinearFit, error) {
	ys := TestingCurve.column()
	return stats.FitLinear(indices(len(ys)), ys)
}

// FitPackage fits the (decaying) exponential E_package(i) = A·exp(B·i)
// through the database column.
func FitPackage() (stats.ExpFit, error) {
	ys := PackageCurve.column()
	return stats.FitExponential(indices(len(ys)), ys)
}

func TestTapeoutCurveIsExponential(t *testing.T) {
	// Section 5 fits tapeout effort to an exponential regression; the
	// shipped column must be well described by one.
	fit, err := FitTapeout()
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.90 {
		t.Errorf("tapeout effort column R² = %v, want >= 0.90 (approximately exponential)", fit.R2)
	}
	if fit.B <= 0 {
		t.Errorf("tapeout effort should grow toward advanced nodes, B = %v", fit.B)
	}
	tail, err := FitTapeoutTail()
	if err != nil {
		t.Fatal(err)
	}
	if tail.R2 < 0.97 {
		t.Errorf("advanced-node tapeout effort R² = %v, want >= 0.97", tail.R2)
	}
}

func TestTestingCurveIsLinear(t *testing.T) {
	fit, err := FitTesting()
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.99 {
		t.Errorf("testing effort column R² = %v, want >= 0.99 (linear form)", fit.R2)
	}
	if fit.Slope <= 0 {
		t.Errorf("testing effort should grow toward advanced nodes, slope = %v", fit.Slope)
	}
}

func TestPackageCurveIsDecayingExponential(t *testing.T) {
	fit, err := FitPackage()
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.97 {
		t.Errorf("package effort column R² = %v, want >= 0.97", fit.R2)
	}
	if fit.B >= 0 {
		t.Errorf("package effort should decay toward advanced nodes, B = %v", fit.B)
	}
}

func TestExtrapolateTapeout(t *testing.T) {
	// "Big Trouble At 3nm": the extrapolated next-node effort must
	// exceed 5 nm's.
	e5 := MustLookup(N5).TapeoutEffort
	e3, err := ExtrapolateTapeout(12)
	if err != nil {
		t.Fatal(err)
	}
	if e3 <= e5 {
		t.Errorf("extrapolated 3nm effort %v should exceed 5nm's %v", e3, e5)
	}
}

func TestCurveString(t *testing.T) {
	if TapeoutCurve.String() != "E_tapeout" || TestingCurve.String() != "E_testing" ||
		PackageCurve.String() != "E_package" {
		t.Error("curve names wrong")
	}
	if EffortCurve(9).String() == "" {
		t.Error("unknown curve should still render")
	}
}
