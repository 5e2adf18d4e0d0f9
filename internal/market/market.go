// Package market models supply-chain conditions: the per-node
// production-capacity fraction and the foundry queue (lead time) that
// Eq. 4 turns into waiting weeks. The Chip Agility Score is defined as
// the sensitivity of time-to-market to exactly these conditions, so the
// package also provides the capacity sweeps the CAS curves are drawn
// over and a set of named disruption scenarios for the case studies.
package market

import (
	"math"
	"slices"
	"strconv"

	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// Conditions captures the state of the supply chain a design is
// evaluated under. The zero value is the paper's optimistic baseline:
// every node at full capacity with an empty queue.
type Conditions struct {
	// GlobalCapacity scales every node's wafer production rate; zero
	// means 1.0 (full capacity). The CAS curves sweep this from 0 to 1.
	GlobalCapacity float64

	// NodeCapacity optionally scales individual nodes on top of
	// GlobalCapacity (e.g. "the 12 nm line is at 60%").
	NodeCapacity map[technode.Node]float64

	// QueueWeeks is the foundry-quoted lead time per node, expressed in
	// weeks of full-capacity production. Following Section 6.3, the
	// quote fixes the *number of wafers ahead* (N_W,ahead = quote ×
	// μ_W,full); if capacity then drops, those wafers take longer than
	// the quote, which is what makes queues punish inflexible designs.
	QueueWeeks map[technode.Node]units.Weeks
}

// Full returns the baseline conditions: 100% capacity, no queue.
func Full() Conditions { return Conditions{GlobalCapacity: 1} }

// AtCapacity returns a copy of c with GlobalCapacity set to f.
func (c Conditions) AtCapacity(f float64) Conditions {
	c.GlobalCapacity = f
	return c
}

// WithQueue returns a copy of c with the queue for node n set to the
// given full-capacity weeks. The map is copied; c is not mutated.
func (c Conditions) WithQueue(n technode.Node, w units.Weeks) Conditions {
	q := make(map[technode.Node]units.Weeks, len(c.QueueWeeks)+1)
	for k, v := range c.QueueWeeks {
		q[k] = v
	}
	q[n] = w
	c.QueueWeeks = q
	return c
}

// databaseNodes is every node of the built-in database: the Table 2
// set and its variants.
var databaseNodes = append(technode.All(), technode.Variants()...)

// WithQueueAll returns a copy of c quoting the same lead time at every
// node of the built-in database, variants included (the aggregate
// lead-time reporting the paper describes).
func (c Conditions) WithQueueAll(w units.Weeks) Conditions {
	q := make(map[technode.Node]units.Weeks, len(databaseNodes))
	for _, n := range databaseNodes {
		q[n] = w
	}
	c.QueueWeeks = q
	return c
}

// WithNodeCapacity returns a copy of c with node n's capacity fraction
// set to f (stacked multiplicatively with GlobalCapacity).
func (c Conditions) WithNodeCapacity(n technode.Node, f float64) Conditions {
	m := make(map[technode.Node]float64, len(c.NodeCapacity)+1)
	for k, v := range c.NodeCapacity {
		m[k] = v
	}
	m[n] = f
	c.NodeCapacity = m
	return c
}

// capacity returns the effective capacity fraction for node n.
func (c Conditions) capacity(n technode.Node) float64 {
	g := c.GlobalCapacity
	if g == 0 {
		g = 1
	}
	if f, ok := c.NodeCapacity[n]; ok {
		g *= f
	}
	if g < 0 {
		g = 0
	}
	return g
}

// Rate returns the effective wafer production rate μ_W(c, p) for the
// node under these conditions.
func (c Conditions) Rate(p technode.Params) units.WafersPerWeek {
	return units.WafersPerWeek(float64(p.WaferRate) * c.capacity(p.Node))
}

// QueueWafers returns N_W,ahead(c, p): the number of wafers queued
// ahead of the design at the node, fixed at quote time against the
// full-capacity rate.
func (c Conditions) QueueWafers(p technode.Params) units.Wafers {
	w, ok := c.QueueWeeks[p.Node]
	if !ok || w <= 0 {
		return 0
	}
	return units.Wafers(float64(w) * float64(p.WaferRate))
}

// String summarizes non-default conditions for logs and reports, e.g.
// "capacity=80% node-overrides=1 queue={7nm:2wk,28nm:4wk}". It is on the
// request path of every evaluation response, so it appends into one
// stack buffer rather than formatting through fmt.
func (c Conditions) String() string {
	var buf [256]byte
	b := append(buf[:0], "capacity="...)
	b = appendFixed0(b, c.capacity0()*100)
	b = append(b, '%')
	if len(c.NodeCapacity) > 0 {
		b = append(b, " node-overrides="...)
		b = strconv.AppendInt(b, int64(len(c.NodeCapacity)), 10)
	}
	if len(c.QueueWeeks) > 0 {
		var arr [16]technode.Node
		keys := arr[:0]
		for k := range c.QueueWeeks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, " queue={"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(k), 10)
			b = append(b, "nm:"...)
			b = appendFixed0(b, float64(c.QueueWeeks[k]))
			b = append(b, "wk"...)
		}
		b = append(b, '}')
	}
	return string(b)
}

// appendFixed0 appends v formatted exactly as fmt's %.0f. Below 2⁵³
// every float64 rounds half-to-even to an exact integer, which is what
// %.0f prints, so that range skips strconv's arbitrary-precision 'f'
// path; the sign bit is printed as %.0f does ("-0" for -0.4 and -0).
// NaN, ±Inf and larger magnitudes take strconv.AppendFloat, which is
// what fmt itself calls.
func appendFixed0(b []byte, v float64) []byte {
	a := math.Abs(v)
	if !(a < 1<<53) {
		return strconv.AppendFloat(b, v, 'f', 0, 64)
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	return strconv.AppendUint(b, uint64(math.RoundToEven(a)), 10)
}

func (c Conditions) capacity0() float64 {
	if c.GlobalCapacity == 0 {
		return 1
	}
	return c.GlobalCapacity
}

// CapacitySweep returns n evenly spaced capacity fractions from lo to
// hi inclusive, the x-axis of every CAS figure.
func CapacitySweep(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Scenario is a named market situation used by the CLI and examples.
type Scenario struct {
	Name        string
	Description string
	Conditions  Conditions
}

// Scenarios returns the built-in market scenarios: the paper's baseline
// plus stylized versions of the disruptions its introduction surveys.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "baseline",
			Description: "full capacity, empty queues (the paper's optimistic default)",
			Conditions:  Full(),
		},
		{
			Name:        "shortage-2021",
			Description: "demand shock: 4-week quoted lead time at every node",
			Conditions:  Full().WithQueueAll(4),
		},
		{
			Name:        "legacy-crunch",
			Description: "200 mm-era capacity crunch: legacy nodes (>= 90 nm) at 60%",
			Conditions: Full().
				WithNodeCapacity(technode.N250, 0.6).
				WithNodeCapacity(technode.N180, 0.6).
				WithNodeCapacity(technode.N130, 0.6).
				WithNodeCapacity(technode.N90, 0.6),
		},
		{
			Name:        "advanced-drought",
			Description: "water/power constraints at leading-edge fabs: <= 7 nm at 50%",
			Conditions: Full().
				WithNodeCapacity(technode.N7, 0.5).
				WithNodeCapacity(technode.N5, 0.5),
		},
		{
			Name:        "fab-fire",
			Description: "single-fab outage: 40 nm at 25% with a 2-week queue",
			Conditions: Full().
				WithNodeCapacity(technode.N40, 0.25).
				WithQueue(technode.N40, 2),
		},
	}
}

// FindScenario returns the named scenario, or false.
func FindScenario(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
