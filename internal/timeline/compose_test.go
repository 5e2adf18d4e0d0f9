package timeline

import (
	"math"
	"math/rand"
	"testing"

	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// mapConditionsAt is the composer the flat queue table replaced, kept
// as its reference: it rebuilds the conditions per step through the
// copying With* methods and sums the queue contributions in a map.
func mapConditionsAt(tl *Timeline, i int) market.Conditions {
	t := tl.WeekAt(i)
	c := tl.base
	var qdelta map[technode.Node]float64
	addQueue := func(n technode.Node, v float64) {
		if qdelta == nil {
			qdelta = make(map[technode.Node]float64)
		}
		qdelta[n] += v
	}
	for si := range tl.segs {
		cs := &tl.segs[si]
		switch cs.kind {
		case KindFabOutage:
			f := cs.capFrac(t)
			if f == 1 {
				continue
			}
			if cs.global {
				g := c.GlobalCapacity
				if g == 0 {
					g = 1
				}
				c.GlobalCapacity = g * f
			} else {
				v := 1.0
				if bv, ok := c.NodeCapacity(cs.node); ok {
					v = bv
				}
				c = c.WithNodeCapacity(cs.node, v*f)
			}
		case KindQueueDrift, KindDemandShock:
			dq := cs.queueDelta(t)
			if cs.kind == KindDemandShock {
				dq = cs.backlogAt(t)
			}
			if dq == 0 {
				continue
			}
			if cs.global {
				for _, n := range market.DatabaseNodes() {
					addQueue(n, dq)
				}
			} else {
				addQueue(cs.node, dq)
			}
		}
	}
	for n, dq := range qdelta {
		q := dq
		if bq, ok := c.QueueWeeks(n); ok {
			q += float64(bq)
		}
		if q < 0 {
			q = 0
		}
		c = c.WithQueue(n, units.Weeks(q))
	}
	return c
}

// TestComposerMatchesMapReference holds the one composer to the map
// reference at every step of every episode and of random specs over
// every base scenario: the same node entries, values and summary
// string, whether composed fresh (ConditionsAt) or into a reused
// composer, as the step loop does.
func TestComposerMatchesMapReference(t *testing.T) {
	var specs []Spec
	for _, ep := range Episodes() {
		specs = append(specs, ep.Spec)
	}
	rng := rand.New(rand.NewSource(3))
	nodes := []string{"", "", "7nm", "12nm", "40nm", "250nm"}
	kinds := []string{KindFabOutage, KindDemandShock, KindQueueDrift}
	for i := 0; i < 60; i++ {
		sc := market.Scenarios()[i%len(market.Scenarios())]
		s := Spec{Base: sc.Name, HorizonWeeks: 30, StepWeeks: 0.5}
		for j, k := 0, 1+rng.Intn(6); j < k; j++ {
			start := float64(rng.Intn(20))
			seg := Segment{Kind: kinds[rng.Intn(len(kinds))], Node: nodes[rng.Intn(len(nodes))],
				StartWeek: start, EndWeek: start + 1 + float64(rng.Intn(12))}
			switch seg.Kind {
			case KindFabOutage:
				seg.Depth, seg.Ramp, seg.RampWeeks, seg.RecoverWeeks = 0.1+0.9*rng.Float64(), RampLinear, 0.5, float64(rng.Intn(4))
			case KindDemandShock:
				seg.Multiplier, seg.Utilization, seg.Hoarding = 1+2*rng.Float64(), 0.5, rng.Intn(2) == 0
			case KindQueueDrift:
				seg.DeltaWeeks = 6*rng.Float64() - 3
			}
			s.Segments = append(s.Segments, seg)
		}
		if s.Validate(Limits{}) == nil {
			specs = append(specs, s)
		}
	}
	if len(specs) < 30 {
		t.Fatalf("only %d valid specs", len(specs))
	}
	for _, s := range specs {
		tl, err := Compile(s, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		var w composer
		for i := 0; i < tl.StepCount(); i++ {
			want := mapConditionsAt(tl, i)
			fresh, reused := tl.ConditionsAt(i), tl.compose(i, &w)
			if !sameConditions(fresh, want) || !sameConditions(reused, want) || reused.String() != want.String() {
				t.Fatalf("%+v step %d: composed %s / %s, reference %s", s, i, fresh, reused, want)
			}
		}
	}
}

// sameConditions reports whether a and b hold the same global capacity
// and node entries, floats by their bits.
func sameConditions(a, b market.Conditions) bool {
	if math.Float64bits(a.GlobalCapacity) != math.Float64bits(b.GlobalCapacity) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.At(i), b.At(i)
		if x.Node != y.Node || x.HasCapacity != y.HasCapacity || x.HasQueue != y.HasQueue ||
			math.Float64bits(x.Capacity) != math.Float64bits(y.Capacity) ||
			math.Float64bits(float64(x.Queue)) != math.Float64bits(float64(y.Queue)) {
			return false
		}
	}
	return true
}
