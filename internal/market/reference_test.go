package market_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// refConditions is the map-based Conditions that the dense node table
// replaced, kept as its reference: two maps, copied whole by every
// With* call.
type refConditions struct {
	GlobalCapacity float64
	NodeCapacity   map[technode.Node]float64
	QueueWeeks     map[technode.Node]units.Weeks
}

func refFull() refConditions { return refConditions{GlobalCapacity: 1} }

func (c refConditions) AtCapacity(f float64) refConditions {
	c.GlobalCapacity = f
	return c
}

func (c refConditions) WithQueue(n technode.Node, w units.Weeks) refConditions {
	q := make(map[technode.Node]units.Weeks, len(c.QueueWeeks)+1)
	for k, v := range c.QueueWeeks {
		q[k] = v
	}
	q[n] = w
	c.QueueWeeks = q
	return c
}

func (c refConditions) WithQueueAll(w units.Weeks) refConditions {
	nodes := append(technode.All(), technode.Variants()...)
	q := make(map[technode.Node]units.Weeks, len(nodes))
	for _, n := range nodes {
		q[n] = w
	}
	c.QueueWeeks = q
	return c
}

func (c refConditions) WithNodeCapacity(n technode.Node, f float64) refConditions {
	m := make(map[technode.Node]float64, len(c.NodeCapacity)+1)
	for k, v := range c.NodeCapacity {
		m[k] = v
	}
	m[n] = f
	c.NodeCapacity = m
	return c
}

func (c refConditions) capacity(n technode.Node) float64 {
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

func (c refConditions) Rate(p technode.Params) units.WafersPerWeek {
	return units.WafersPerWeek(float64(p.WaferRate) * c.capacity(p.Node))
}

func (c refConditions) QueueWafers(p technode.Params) units.Wafers {
	w, ok := c.QueueWeeks[p.Node]
	if !ok || w <= 0 {
		return 0
	}
	return units.Wafers(float64(w) * float64(p.WaferRate))
}

func (c refConditions) String() string {
	g := c.GlobalCapacity
	if g == 0 {
		g = 1
	}
	s := fmt.Sprintf("capacity=%.0f%%", g*100)
	if len(c.NodeCapacity) > 0 {
		s += fmt.Sprintf(" node-overrides=%d", len(c.NodeCapacity))
	}
	if len(c.QueueWeeks) > 0 {
		keys := make([]int, 0, len(c.QueueWeeks))
		for k := range c.QueueWeeks {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		s += " queue={"
		for i, k := range keys {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%dnm:%.0fwk", k, float64(c.QueueWeeks[technode.Node(k)]))
		}
		s += "}"
	}
	return s
}

// customNodes are two speculative nodes of a custom database, below
// every built-in node.
var customNodes = []technode.Params{
	{Node: 3, WaferRate: units.KWPM(55), DefectDensity: 0.15, Density: 180, FabLatency: 22, TAPLatency: 6,
		TapeoutEffort: 900, TestingEffort: 1.2e-17, PackageEffort: 7e-12, WaferCost: 25000, MaskSetCost: 5e6},
	{Node: 2, WaferRate: units.KWPM(30), DefectDensity: 0.2, Density: 250, FabLatency: 24, TAPLatency: 7,
		TapeoutEffort: 1100, TestingEffort: 1.4e-17, PackageEffort: 8e-12, WaferCost: 30000, MaskSetCost: 6e6},
}

// fuzzNodes are the nodes the fuzz chains touch: every built-in node,
// the 12 nm variant among them, the two custom nodes, and three nodes
// no database holds.
func fuzzNodes() []technode.Params {
	var ps []technode.Params
	for _, n := range market.DatabaseNodes() {
		ps = append(ps, technode.MustLookup(n))
	}
	ps = append(ps, customNodes...)
	for _, n := range []technode.Node{0, -7, 1000} {
		ps = append(ps, technode.Params{Node: n, WaferRate: 1000})
	}
	return ps
}

// fuzzValues are the values a chain byte can pick besides a raw
// float64: zero of both signs, the capacity bounds, x.5 percent and
// week ties, negatives, huge values, infinities and NaN.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, 0.5, 0.125, 0.005, 2.5, -0.4, -1.5, 1e20, 1 << 53, math.Inf(1), math.Inf(-1), math.NaN()}

// fuzzEvaluator compiles a design with a die at 7 nm, 12 nm, 28 nm and
// both custom nodes against a database holding them, so core's
// resolution of the conditions is checked at a built-in, a variant and
// a custom node.
func fuzzEvaluator(t testing.TB) *core.Evaluator {
	db := (*technode.Database)(nil)
	for _, p := range customNodes {
		var err error
		if db, err = db.With(p); err != nil {
			t.Fatal(err)
		}
	}
	var d design.Design
	for _, n := range []technode.Node{technode.N7, technode.N12, technode.N28, 3, 2} {
		d.Dies = append(d.Dies, design.Die{Name: n.String(), Node: n, NTT: 1e9, NUT: 1e8})
	}
	ev, err := core.Model{Nodes: db}.Compile(d, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// FuzzConditionsMatchesReference runs random chains of AtCapacity and
// the With* methods on the dense Conditions and on the map reference,
// and holds them bit for bit equal after every step: String, Rate and
// QueueWafers at every node, the per-node accessors, and core's
// resolved capacity factor and queued wafers (SetConditions, which
// shares its resolution with Compile and Bind). It also checks value
// semantics: every intermediate Conditions still prints as it did when
// it was built, so no With* wrote into a receiver's storage.
func FuzzConditionsMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 1, 2, 9, 2, 5, 4, 3, 0, 0})
	f.Add([]byte{2, 4, 1, 2, 4, 130, 1, 9, 7, 3, 1, 1, 0, 2, 2})
	f.Add([]byte{3, 16, 0, 3, 17, 13, 1, 20, 10, 2, 21, 0, 2, 5, 1, 1, 17, 0})
	f.Add([]byte{1, 13, 3, 3, 14, 2, 2, 0, 8, 1, 10, 13, 1, 12, 1})
	nodes := fuzzNodes()
	ev := fuzzEvaluator(f)
	f.Fuzz(func(t *testing.T, chain []byte) {
		c, ref := market.Full(), refFull()
		type built struct {
			c    market.Conditions
			text string
		}
		var history []built
		for len(chain) >= 3 {
			op, node, v := chain[0]%4, nodes[int(chain[1])%len(nodes)], chain[2]
			chain = chain[3:]
			val := fuzzValues[int(v)%len(fuzzValues)]
			if v >= 128 && len(chain) >= 8 {
				val = math.Float64frombits(binary.LittleEndian.Uint64(chain))
				chain = chain[8:]
			}
			switch op {
			case 0:
				c, ref = c.AtCapacity(val), ref.AtCapacity(val)
			case 1:
				c, ref = c.WithQueue(node.Node, units.Weeks(val)), ref.WithQueue(node.Node, units.Weeks(val))
			case 2:
				c, ref = c.WithQueueAll(units.Weeks(val)), ref.WithQueueAll(units.Weeks(val))
			case 3:
				c, ref = c.WithNodeCapacity(node.Node, val), ref.WithNodeCapacity(node.Node, val)
			}
			compareConditions(t, c, ref, nodes, ev)
			history = append(history, built{c, c.String()})
		}
		for i, h := range history {
			if got := h.c.String(); got != h.text {
				t.Fatalf("conditions %d changed after later With* calls: %q, built as %q", i, got, h.text)
			}
		}
	})
}

func compareConditions(t *testing.T, c market.Conditions, ref refConditions, nodes []technode.Params, ev *core.Evaluator) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got, want := c.String(), ref.String(); got != want {
		t.Fatalf("String() = %q, reference %q", got, want)
	}
	if !same(c.GlobalCapacity, ref.GlobalCapacity) {
		t.Fatalf("GlobalCapacity = %v, reference %v", c.GlobalCapacity, ref.GlobalCapacity)
	}
	entries := 0
	for _, p := range nodes {
		if got, want := c.Rate(p), ref.Rate(p); !same(float64(got), float64(want)) {
			t.Fatalf("%s: Rate = %v, reference %v (%s)", p.Node, float64(got), float64(want), ref)
		}
		if got, want := c.QueueWafers(p), ref.QueueWafers(p); !same(float64(got), float64(want)) {
			t.Fatalf("%s: QueueWafers = %v, reference %v (%s)", p.Node, float64(got), float64(want), ref)
		}
		f, fok := c.NodeCapacity(p.Node)
		rf, rfok := ref.NodeCapacity[p.Node]
		w, wok := c.QueueWeeks(p.Node)
		rw, rwok := ref.QueueWeeks[p.Node]
		if fok != rfok || !same(f, rf) || wok != rwok || !same(float64(w), float64(rw)) {
			t.Fatalf("%s: capacity %v,%v queue %v,%v; reference %v,%v and %v,%v", p.Node, f, fok, w, wok, rf, rfok, rw, rwok)
		}
		if fok || wok {
			entries++
		}
	}
	if c.Len() != entries {
		t.Fatalf("Len() = %d, %d nodes carry an entry", c.Len(), entries)
	}
	for i := 1; i < c.Len(); i++ {
		if c.At(i-1).Node >= c.At(i).Node {
			t.Fatalf("entries out of order: %s before %s", c.At(i-1).Node, c.At(i).Node)
		}
	}

	var b core.Batch
	ev.ResizeConditions(&b, 1)
	ev.SetConditions(&b, 0, c)
	if !same(b.Global[0], ref.GlobalCapacity) {
		t.Fatalf("resolved global capacity %v, reference %v", b.Global[0], ref.GlobalCapacity)
	}
	resolved := 0
	for _, p := range nodes {
		n, i := p.Node, ev.NodeIndex(p.Node)
		if i < 0 {
			continue
		}
		resolved++
		factor, ok := ref.NodeCapacity[n]
		if !ok {
			factor = 1
		}
		queue := 0.0
		if w, ok := ref.QueueWeeks[n]; ok && !(w <= 0) {
			queue = float64(w) * float64(p.WaferRate)
		}
		if !same(b.Factor[i][0], factor) || !same(b.Queue[i][0], queue) {
			t.Fatalf("%s: resolved factor %v queue %v, reference %v and %v", n, b.Factor[i][0], b.Queue[i][0], factor, queue)
		}
	}
	if resolved != len(b.Factor) {
		t.Fatalf("%d of the evaluator's %d nodes checked", resolved, len(b.Factor))
	}
}
