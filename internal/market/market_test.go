package market

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

func TestFullConditions(t *testing.T) {
	c := Full()
	p := technode.MustLookup(technode.N28)
	if got := c.Rate(p); got != p.WaferRate {
		t.Errorf("full rate = %v, want %v", float64(got), float64(p.WaferRate))
	}
	if c.QueueWafers(p) != 0 {
		t.Error("full conditions should have empty queue")
	}
}

func TestZeroValueMeansFull(t *testing.T) {
	var c Conditions
	p := technode.MustLookup(technode.N7)
	if got := c.Rate(p); got != p.WaferRate {
		t.Errorf("zero-value rate = %v, want full", float64(got))
	}
}

func TestCapacityScaling(t *testing.T) {
	p := technode.MustLookup(technode.N28)
	c := Full().AtCapacity(0.5)
	if got := c.Rate(p); math.Abs(float64(got)-0.5*float64(p.WaferRate)) > 1e-9 {
		t.Errorf("50%% rate = %v", float64(got))
	}
	c = c.WithNodeCapacity(technode.N28, 0.5)
	if got := c.Rate(p); math.Abs(float64(got)-0.25*float64(p.WaferRate)) > 1e-9 {
		t.Errorf("stacked rate = %v, want 25%% of full", float64(got))
	}
	neg := Full().AtCapacity(-1)
	if got := neg.Rate(p); got != 0 {
		t.Errorf("negative capacity should clamp to 0, got %v", float64(got))
	}
}

func TestQueueWafersFixedAtQuote(t *testing.T) {
	// The quote fixes the wafer count against the FULL rate: dropping
	// capacity must not shrink the queue (that asymmetry is the point
	// of Section 6.3).
	p := technode.MustLookup(technode.N7)
	c := Full().WithQueue(technode.N7, 2)
	qFull := c.QueueWafers(p)
	qHalf := c.AtCapacity(0.5).QueueWafers(p)
	if qFull != qHalf {
		t.Errorf("queue wafers changed with capacity: %v vs %v", float64(qFull), float64(qHalf))
	}
	if math.Abs(float64(qFull)-2*float64(p.WaferRate)) > 1e-9 {
		t.Errorf("queue wafers = %v, want 2 weeks of full production", float64(qFull))
	}
}

func TestWithQueueDoesNotMutate(t *testing.T) {
	base := Full().WithQueue(technode.N7, 1)
	mod := base.WithQueue(technode.N7, 4)
	p := technode.MustLookup(technode.N7)
	if base.QueueWafers(p) == mod.QueueWafers(p) {
		t.Error("WithQueue should not alias the base map")
	}
	base2 := Full().WithNodeCapacity(technode.N7, 0.5)
	mod2 := base2.WithNodeCapacity(technode.N7, 0.9)
	if base2.Rate(p) == mod2.Rate(p) {
		t.Error("WithNodeCapacity should not alias the base map")
	}
}

func TestWithQueueAll(t *testing.T) {
	// Every node the database resolves gets the quote, the 12 nm variant
	// included.
	c := Full().WithQueueAll(3)
	resolved := 0
	for n := technode.Node(1); n <= 1000; n++ {
		p, err := technode.Lookup(n)
		if err != nil {
			continue
		}
		resolved++
		want := 3 * float64(p.WaferRate)
		if w, _ := c.QueueWeeks(n); math.Abs(float64(c.QueueWafers(p))-want) > 1e-9 || w != 3 {
			t.Errorf("queue at %s = %v wafers (%v weeks), want %v", n, float64(c.QueueWafers(p)), float64(w), want)
		}
	}
	if want := len(technode.All()) + len(technode.Variants()); resolved != want || c.Len() != want {
		t.Errorf("resolved %d nodes, quoted %d, want %d", resolved, c.Len(), want)
	}
}

func TestCapacitySweep(t *testing.T) {
	s := CapacitySweep(0.1, 1.0, 10)
	if len(s) != 10 || s[0] != 0.1 || s[9] != 1.0 {
		t.Errorf("sweep = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Error("sweep not increasing")
		}
	}
	if got := CapacitySweep(0, 1, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("degenerate sweep = %v", got)
	}
}

func TestScenarios(t *testing.T) {
	ss := Scenarios()
	if len(ss) < 5 {
		t.Fatalf("expected >= 5 scenarios, got %d", len(ss))
	}
	names := map[string]bool{}
	for _, s := range ss {
		if s.Name == "" || s.Description == "" {
			t.Errorf("scenario missing name/description: %+v", s)
		}
		if names[s.Name] {
			t.Errorf("duplicate scenario %q", s.Name)
		}
		names[s.Name] = true
	}
	if _, ok := FindScenario("baseline"); !ok {
		t.Error("baseline scenario missing")
	}
	if _, ok := FindScenario("nope"); ok {
		t.Error("unknown scenario should not resolve")
	}
}

func TestConditionsString(t *testing.T) {
	s := Full().WithQueue(technode.N7, 2).AtCapacity(0.8).String()
	if !strings.Contains(s, "80%") || !strings.Contains(s, "7nm:2wk") {
		t.Errorf("String() = %q", s)
	}
}

// sprintfString is the fmt-based Conditions.String that the appending
// implementation replaced, kept as its oracle.
func sprintfString(c Conditions) string {
	s := fmt.Sprintf("capacity=%.0f%%", c.capacity0()*100)
	overrides := 0
	var keys []int
	queue := map[technode.Node]units.Weeks{}
	for i := 0; i < c.Len(); i++ {
		nc := c.At(i)
		if nc.HasCapacity {
			overrides++
		}
		if nc.HasQueue {
			keys = append(keys, int(nc.Node))
			queue[nc.Node] = nc.Queue
		}
	}
	if overrides > 0 {
		s += fmt.Sprintf(" node-overrides=%d", overrides)
	}
	if len(keys) > 0 {
		sort.Ints(keys)
		s += " queue={"
		for i, k := range keys {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%dnm:%.0fwk", k, float64(queue[technode.Node(k)]))
		}
		s += "}"
	}
	return s
}

// TestConditionsStringMatchesSprintf holds String byte-equal to the fmt
// oracle over random conditions: zero, negative, huge and above-one
// global capacity; x.5 ties in both roundings; negative, signed-zero,
// huge, infinite and NaN queue weeks; node overrides; and more queued
// nodes than the database has.
func TestConditionsStringMatchesSprintf(t *testing.T) {
	capacities := []float64{0, 1, -0.5, -0.004, 0.005, 0.015, 0.125, 0.5, 0.8, 1.5, 2.5e13, 1e300, math.Inf(-1), math.NaN()}
	weeks := []float64{0, 0.5, 1.5, 2.5, -0.4, -0.5, -1.5, math.Copysign(0, -1), 1e20, 1<<53 - 0.5, 1 << 53, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	nodes := append(technode.All(), technode.Variants()...)
	for i := 0; i < 2000; i++ {
		var c Conditions
		switch rng.Intn(3) {
		case 0:
			c.GlobalCapacity = capacities[rng.Intn(len(capacities))]
		case 1:
			c.GlobalCapacity = (rng.Float64() - 0.2) * 1.5
		default:
			c.GlobalCapacity = float64(rng.Intn(400)) / 200 // x.5 percent ties
		}
		for _, n := range nodes {
			if rng.Intn(4) == 0 {
				c = c.WithNodeCapacity(n, rng.Float64())
			}
		}
		queued := rng.Intn(len(nodes) + 8)
		for j := 0; j < queued; j++ {
			n := nodes[rng.Intn(len(nodes))]
			if j >= len(nodes) {
				n = technode.Node(rng.Intn(2000) - 500)
			}
			w := weeks[rng.Intn(len(weeks))]
			if rng.Intn(2) == 0 {
				w = float64(rng.Intn(40)) / 2 * float64(1-2*rng.Intn(2))
			}
			c = c.WithQueue(n, units.Weeks(w))
		}
		if got, want := c.String(), sprintfString(c); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}
