package opt

import (
	"testing"
	"testing/quick"

	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// OnFront reports whether the point is non-dominated within points.
func OnFront(p CachePoint, points []CachePoint) bool {
	for _, q := range points {
		if q != p && dominates(q, p) {
			return false
		}
	}
	return true
}

func pt(ipc, ttm, cost float64) CachePoint {
	return CachePoint{IPC: ipc, TTM: wk(ttm), Cost: usd(cost)}
}

func TestDominates(t *testing.T) {
	a := pt(0.2, 20, 1)
	cases := []struct {
		name string
		b    CachePoint
		want bool
	}{
		{"strictly worse everywhere", pt(0.1, 30, 2), true},
		{"equal", pt(0.2, 20, 1), false},
		{"better ipc", pt(0.3, 20, 1), false},
		{"worse ipc only", pt(0.1, 20, 1), true},
		{"tradeoff", pt(0.3, 10, 0.5), false},
	}
	for _, c := range cases {
		if got := dominates(a, c.b); got != c.want {
			t.Errorf("%s: dominates = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParetoFrontSmall(t *testing.T) {
	points := []CachePoint{
		pt(0.10, 20, 0.5), // cheapest+fastest, lowest IPC: on front
		pt(0.20, 22, 0.7), // middle: on front
		pt(0.25, 25, 1.0), // highest IPC: on front
		pt(0.15, 23, 0.9), // dominated by the middle point
		pt(0.20, 23, 0.8), // dominated by the middle point
	}
	front := ParetoFront(points)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	for _, p := range front[:3] {
		if !OnFront(p, points) {
			t.Errorf("front member %v reported dominated", p)
		}
	}
	if OnFront(points[3], points) {
		t.Error("dominated point reported on front")
	}
}

func TestParetoFrontProperties(t *testing.T) {
	// Properties: front is non-empty for non-empty input; every input
	// point is dominated by some front member or is itself on the
	// front; front members never dominate each other.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return ParetoFront(nil) == nil
		}
		if len(raw) > 60 {
			raw = raw[:60]
		}
		points := make([]CachePoint, len(raw))
		for i, r := range raw {
			points[i] = pt(float64(r%17)/17, float64(r%13), float64(r%7))
		}
		front := ParetoFront(points)
		if len(front) == 0 {
			return false
		}
		for _, p := range points {
			covered := false
			for _, q := range front {
				if q == p || dominates(q, p) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		for i, a := range front {
			for j, b := range front {
				if i != j && dominates(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParetoOnRealStudy(t *testing.T) {
	study := CacheStudy{Table: smallTable(t)}
	points, err := study.Evaluate(ttmcasN14(), 100e6)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(points)
	if len(front) == 0 || len(front) >= len(points) {
		t.Fatalf("front size %d of %d implausible", len(front), len(points))
	}
	// Both ratio optima must sit on the three-objective front.
	byTTM, err := Best(points, MaxIPCPerTTM)
	if err != nil {
		t.Fatal(err)
	}
	byCost, err := Best(points, MaxIPCPerCost)
	if err != nil {
		t.Fatal(err)
	}
	if !OnFront(byTTM, points) || !OnFront(byCost, points) {
		t.Error("ratio optima must be Pareto-efficient")
	}
}

// Small helpers keeping the table-driven tests terse.
func wk(v float64) units.Weeks { return units.Weeks(v) }
func usd(v float64) units.USD  { return units.USD(v) }
func ttmcasN14() technode.Node { return technode.N14 }
