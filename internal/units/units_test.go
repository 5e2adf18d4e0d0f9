package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHoursToWeeks(t *testing.T) {
	cases := []struct {
		hours   Hours
		workers int
		want    Weeks
	}{
		{40, 1, 1},
		{400, 10, 1},
		{80, 1, 2},
		{40, 0, 1},  // non-positive workers default to one
		{40, -3, 1}, // ditto
	}
	for _, c := range cases {
		if got := c.hours.Weeks(c.workers); math.Abs(float64(got-c.want)) > 1e-12 {
			t.Errorf("(%v h).Weeks(%d) = %v, want %v", float64(c.hours), c.workers, got, c.want)
		}
	}
}

func TestKWPMRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		kw := float64(raw) / 100
		r := KWPM(kw)
		return math.Abs(r.KWPMValue()-kw) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 350 kW/month ≈ 80.5k wafers/week (365.25/12/7 weeks per month).
	r := KWPM(350)
	if float64(r) < 80_000 || float64(r) > 81_000 {
		t.Errorf("350 kW/mo = %v wafers/week", float64(r))
	}
}

func TestAreaConversions(t *testing.T) {
	if got := DefectsPerCM2(0.1).PerMM2(); got != 0.001 {
		t.Errorf("0.1/cm² = %v/mm²", got)
	}
}

func TestDensityArea(t *testing.T) {
	if got := MTrPerMM2(50).Area(5e9); math.Abs(float64(got)-100) > 1e-9 {
		t.Errorf("5B at 50 MTr/mm² = %v mm²", float64(got))
	}
	if got := MTrPerMM2(0).Area(1e9); !math.IsInf(float64(got), 1) {
		t.Errorf("zero density area = %v, want +Inf", float64(got))
	}
	if got := MTrPerMM2(-1).Area(1e9); !math.IsInf(float64(got), 1) {
		t.Errorf("negative density area = %v, want +Inf", float64(got))
	}
}

func TestScaleHelpers(t *testing.T) {
	if USD(2.5e9).Billions() != 2.5 || USD(3e6).Millions() != 3 {
		t.Error("USD scaling wrong")
	}
	if Transistors(4.3e9).Billions() != 4.3 || Transistors(514e6).Millions() != 514 {
		t.Error("transistor scaling wrong")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		2.5e9: "$2.50B",
		6.8e6: "$6.8M",
		42e3:  "$42K",
		17:    "$17",
		-3e6:  "$-3.0M",
	}
	for v, want := range cases {
		if got := FmtUSD(USD(v)); got != want {
			t.Errorf("FmtUSD(%v) = %q, want %q", v, got, want)
		}
	}
}
