package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"ttmcas/internal/units"
)

func TestWaferArea(t *testing.T) {
	w := Default300()
	want := math.Pi * 150 * 150
	if got := float64(w.Area()); math.Abs(got-want) > 1e-9 {
		t.Errorf("Area = %v, want %v", got, want)
	}
}

func TestGrossDiesKnownValues(t *testing.T) {
	w := Default300()
	// ~100 mm² die: 70686/100 − 942.48/√200 ≈ 706.9 − 66.6 ≈ 640.
	if got := w.GrossDiesFrac(100); got < 630 || got > 650 {
		t.Errorf("GrossDiesFrac(100mm²) = %v, want ~640", got)
	}
	// A die the size of the wafer cannot fit once edge loss applies.
	if got := w.GrossDiesFrac(w.Area()); got != 0 {
		t.Errorf("GrossDiesFrac(wafer-sized) = %v, want 0", got)
	}
	if got := w.GrossDiesFrac(0); got != 0 {
		t.Errorf("GrossDiesFrac(0) = %v, want 0", got)
	}
	if got := w.GrossDiesFrac(-5); got != 0 {
		t.Errorf("GrossDiesFrac(-5) = %v, want 0", got)
	}
}

func TestNaiveExceedsCorrected(t *testing.T) {
	// Property: the naive estimate is always >= the edge-corrected one,
	// and both are monotone non-increasing in die area.
	w := Default300()
	f := func(raw uint16) bool {
		area := units.MM2(1 + float64(raw%2000))
		naive := w.NaiveDies(area)
		corr := w.GrossDiesFrac(area)
		if float64(naive) < corr {
			return false
		}
		bigger := area * 2
		return w.GrossDiesFrac(bigger) <= corr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrossDiesFracContinuity(t *testing.T) {
	// The fractional count should decrease smoothly: no jumps bigger
	// than expected between adjacent areas.
	w := Default300()
	prev := w.GrossDiesFrac(50)
	for a := units.MM2(51); a <= 1000; a++ {
		cur := w.GrossDiesFrac(a)
		if cur > prev {
			t.Fatalf("GrossDiesFrac not monotone at %v mm²: %v > %v", float64(a), cur, prev)
		}
		prev = cur
	}
}
