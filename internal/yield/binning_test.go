package yield

import (
	"math"
	"testing"
	"testing/quick"

	"ttmcas/internal/units"
)

func bigDie() Params {
	return Params{Area: 400, D0: 0.1} // A·D0 = 0.4: yield matters
}

func TestSalvageValidate(t *testing.T) {
	bad := []Salvage{
		{Cores: 0, MinGoodCores: 1, CoreAreaFraction: 0.5},
		{Cores: 8, MinGoodCores: 0, CoreAreaFraction: 0.5},
		{Cores: 8, MinGoodCores: 9, CoreAreaFraction: 0.5},
		{Cores: 8, MinGoodCores: 4, CoreAreaFraction: 0},
		{Cores: 8, MinGoodCores: 4, CoreAreaFraction: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v should be invalid", s)
		}
		if _, err := SalvageYield(bigDie(), s); err == nil {
			t.Errorf("SalvageYield(%+v) should error", s)
		}
	}
}

func TestSalvageImprovesYield(t *testing.T) {
	p := bigDie()
	plain := Yield(p)
	full := Salvage{Cores: 8, MinGoodCores: 8, CoreAreaFraction: 0.7}
	salv := Salvage{Cores: 8, MinGoodCores: 6, CoreAreaFraction: 0.7}
	yFull, err := SalvageYield(p, full)
	if err != nil {
		t.Fatal(err)
	}
	ySalv, err := SalvageYield(p, salv)
	if err != nil {
		t.Fatal(err)
	}
	if ySalv <= yFull {
		t.Errorf("salvage (%v) should beat all-cores-required (%v)", ySalv, yFull)
	}
	// Requiring all regions good is (approximately) the plain die
	// yield; independence makes it slightly optimistic under
	// clustering but within a few percent here.
	if math.Abs(yFull-plain) > 0.05 {
		t.Errorf("all-cores yield %v far from plain die yield %v", yFull, plain)
	}
}

func TestSalvageMonotoneInMinCores(t *testing.T) {
	p := bigDie()
	prev := 1.1
	for m := 1; m <= 8; m++ {
		y, err := SalvageYield(p, Salvage{Cores: 8, MinGoodCores: m, CoreAreaFraction: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if y > prev {
			t.Errorf("yield should fall as the bin floor rises: m=%d gives %v > %v", m, y, prev)
		}
		prev = y
	}
}

func TestSalvageBounds(t *testing.T) {
	// Property: salvage yield is a probability and never exceeds the
	// shared-region yield.
	f := func(rawArea uint16, rawFrac uint8, rawM uint8) bool {
		area := units.MM2(float64(rawArea%800) + 10)
		frac := 0.1 + 0.8*float64(rawFrac)/255
		cores := 8
		m := int(rawM%8) + 1
		p := Params{Area: area, D0: 0.1}
		y, err := SalvageYield(p, Salvage{Cores: cores, MinGoodCores: m, CoreAreaFraction: frac})
		if err != nil {
			return false
		}
		sharedArea := units.MM2(float64(area) * (1 - frac))
		shared := Yield(Params{Area: sharedArea, D0: 0.1})
		return y >= 0 && y <= shared+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if got := binomialPMF(8, 0, 0); got != 1 {
		t.Errorf("PMF(k=0, p=0) = %v", got)
	}
	if got := binomialPMF(8, 3, 0); got != 0 {
		t.Errorf("PMF(k=3, p=0) = %v", got)
	}
	if got := binomialPMF(8, 8, 1); got != 1 {
		t.Errorf("PMF(k=n, p=1) = %v", got)
	}
	if got := binomialPMF(8, 3, 1); got != 0 {
		t.Errorf("PMF(k<n, p=1) = %v", got)
	}
	// Symmetric fair case: C(4,2)/16 = 0.375.
	if got := binomialPMF(4, 2, 0.5); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("PMF(4,2,0.5) = %v", got)
	}
}
