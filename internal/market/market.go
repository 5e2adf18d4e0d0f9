// Package market models supply-chain conditions: the per-node
// production-capacity fraction and the foundry queue (lead time) that
// Eq. 4 turns into waiting weeks. The Chip Agility Score is defined as
// the sensitivity of time-to-market to exactly these conditions, so the
// package also provides the capacity sweeps the CAS curves are drawn
// over and a set of named disruption scenarios for the case studies.
package market

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// Conditions captures the state of the supply chain a design is
// evaluated under. The zero value is the paper's optimistic baseline:
// every node at full capacity with an empty queue.
//
// The per-node state is a small dense table rather than maps: one
// NodeConditions entry per node that carries a capacity override or a
// queue quote, sorted by node. It holds any technode.Node, custom
// database nodes included, and any number of them. A Conditions value
// never writes into its table after it is built: AtCapacity and the
// With* methods return copies, so values may be shared freely across
// goroutines (the built-in scenarios are built once and shared). A
// caller that composes many conditions in a loop uses a Builder, which
// writes into storage it owns instead of copying per change.
type Conditions struct {
	// GlobalCapacity scales every node's wafer production rate; zero
	// means 1.0 (full capacity). The CAS curves sweep this from 0 to 1.
	GlobalCapacity float64

	// nodes are the per-node entries, sorted by Node, one per node,
	// each with at least one field set.
	nodes []NodeConditions
}

// NodeConditions is one node's entry in Conditions. Whether a field
// was set is recorded apart from its value: a capacity of 1 set
// explicitly still counts as a node override, and a queue of 0 weeks
// set explicitly is still quoted.
type NodeConditions struct {
	Node technode.Node

	// Capacity scales the node's rate on top of GlobalCapacity (e.g.
	// "the 12 nm line is at 60%"); it applies when HasCapacity is set.
	Capacity float64

	// Queue is the foundry-quoted lead time at the node, in weeks of
	// full-capacity production; it applies when HasQueue is set.
	// Following Section 6.3, the quote fixes the *number of wafers
	// ahead* (N_W,ahead = quote × μ_W,full); if capacity then drops,
	// those wafers take longer than the quote, which is what makes
	// queues punish inflexible designs.
	Queue units.Weeks

	// HasCapacity and HasQueue record whether Capacity and Queue were
	// set.
	HasCapacity, HasQueue bool
}

// Full returns the baseline conditions: 100% capacity, no queue.
func Full() Conditions { return Conditions{GlobalCapacity: 1} }

// AtCapacity returns a copy of c with GlobalCapacity set to f.
func (c Conditions) AtCapacity(f float64) Conditions {
	c.GlobalCapacity = f
	return c
}

// WithQueue returns a copy of c with the queue for node n set to the
// given full-capacity weeks. The node table is copied; c is not
// mutated.
func (c Conditions) WithQueue(n technode.Node, w units.Weeks) Conditions {
	b := c.edit(1)
	b.SetQueue(n, w)
	return b.c
}

// databaseNodes is every node of the built-in database, the Table 2
// set and its variants, in increasing order, so SetQueueAll appends
// where the table has no entry.
var databaseNodes = func() []technode.Node {
	nodes := append(technode.All(), technode.Variants()...)
	slices.Sort(nodes)
	return nodes
}()

// DatabaseNodes returns every node of the built-in database, variants
// included, in increasing order: the node set WithQueueAll quotes.
func DatabaseNodes() []technode.Node { return slices.Clone(databaseNodes) }

// WithQueueAll returns a copy of c quoting the same lead time at every
// node of the built-in database, variants included (the aggregate
// lead-time reporting the paper describes). The quote replaces every
// queue c held, custom nodes' included.
func (c Conditions) WithQueueAll(w units.Weeks) Conditions {
	b := c.edit(len(databaseNodes))
	b.SetQueueAll(w)
	return b.c
}

// WithNodeCapacity returns a copy of c with node n's capacity fraction
// set to f (stacked multiplicatively with GlobalCapacity).
func (c Conditions) WithNodeCapacity(n technode.Node, f float64) Conditions {
	b := c.edit(1)
	b.SetCapacity(n, f)
	return b.c
}

// edit returns a Builder holding a copy of c with room for extra more
// nodes: the With* methods' one allocation.
func (c Conditions) edit(extra int) Builder {
	nodes := make([]NodeConditions, len(c.nodes), len(c.nodes)+extra)
	copy(nodes, c.nodes)
	return Builder{c: Conditions{GlobalCapacity: c.GlobalCapacity, nodes: nodes}}
}

// Len returns the number of nodes with a capacity override or a queue
// quote.
func (c Conditions) Len() int { return len(c.nodes) }

// At returns the i-th node entry, in increasing node order.
func (c Conditions) At(i int) NodeConditions { return c.nodes[i] }

// entry returns node n's entry, the zero entry when n carries neither
// a capacity override nor a queue quote.
func (c Conditions) entry(n technode.Node) NodeConditions {
	if i, ok := search(c.nodes, n); ok {
		return c.nodes[i]
	}
	return NodeConditions{}
}

// NodeCapacity returns node n's capacity override, or false when none
// was set.
func (c Conditions) NodeCapacity(n technode.Node) (float64, bool) {
	s := c.entry(n)
	return s.Capacity, s.HasCapacity
}

// QueueWeeks returns node n's quoted queue, or false when none was
// set.
func (c Conditions) QueueWeeks(n technode.Node) (units.Weeks, bool) {
	s := c.entry(n)
	return s.Queue, s.HasQueue
}

// search finds node n in the sorted table: its index, or the index it
// would be inserted at.
func search(nodes []NodeConditions, n technode.Node) (int, bool) {
	lo, hi := 0, len(nodes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nodes[m].Node < n {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(nodes) && nodes[lo].Node == n
}

// capacity returns the effective capacity fraction for node n.
func (c Conditions) capacity(n technode.Node) float64 {
	g := c.GlobalCapacity
	if g == 0 {
		g = 1
	}
	if f, ok := c.NodeCapacity(n); ok {
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
	w, ok := c.QueueWeeks(p.Node)
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
	overrides, queued := 0, false
	for i := range c.nodes {
		if c.nodes[i].HasCapacity {
			overrides++
		}
		queued = queued || c.nodes[i].HasQueue
	}
	if overrides > 0 {
		b = append(b, " node-overrides="...)
		b = strconv.AppendInt(b, int64(overrides), 10)
	}
	if queued {
		b = append(b, " queue={"...)
		sep := false
		for i := range c.nodes {
			s := &c.nodes[i]
			if !s.HasQueue {
				continue
			}
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = strconv.AppendInt(b, int64(s.Node), 10)
			b = append(b, "nm:"...)
			b = appendFixed0(b, float64(s.Queue))
			b = append(b, "wk"...)
		}
		b = append(b, '}')
	}
	return string(b)
}

// Inputs are the market-condition fields every front end takes: the
// HTTP evaluation routes' body, a batch job's spec and the CLI's flags.
// Conditions is the one rule that turns them into Conditions.
type Inputs struct {
	// Scenario names a built-in scenario (see FindScenario). It
	// overrides every other field, once they have been validated.
	Scenario string
	// Capacity is the global capacity fraction in [0, 1]; 0 means full.
	Capacity float64
	// QueueWeeks, at least 0, quotes one lead time at every database
	// node.
	QueueWeeks float64
	// NodeCapacity scales nodes ("12nm" or "12") by a fraction in
	// [0, 1] on top of Capacity; 0 is a line that is down.
	NodeCapacity map[string]float64
	// NodeQueueWeeks quotes per-node lead times of at least 0 weeks.
	NodeQueueWeeks map[string]float64
}

// Conditions validates every field, NaN failing each range, and then
// returns the named scenario's conditions or the fields composed in one
// Builder. The fields cost one allocation, the node table: a quote at
// every node sizes it for the whole database, whose nodes are the only
// ones the maps can name.
func (in Inputs) Conditions() (Conditions, error) {
	var b Builder
	b.SetGlobalCapacity(1)
	if !(in.Capacity >= 0 && in.Capacity <= 1) {
		return Conditions{}, fmt.Errorf("capacity %v outside [0, 1]", in.Capacity)
	}
	if in.Capacity != 0 {
		b.SetGlobalCapacity(in.Capacity)
	}
	if !(in.QueueWeeks >= 0) {
		return Conditions{}, fmt.Errorf("negative queue_weeks %v", in.QueueWeeks)
	}
	if in.QueueWeeks > 0 {
		b.SetQueueAll(units.Weeks(in.QueueWeeks))
	} else {
		b.Grow(len(in.NodeCapacity) + len(in.NodeQueueWeeks))
	}
	err := eachNode("node_capacity", in.NodeCapacity, func(n technode.Node, name string, f float64) error {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("node_capacity[%s] = %v outside [0, 1]", name, f)
		}
		b.SetCapacity(n, f)
		return nil
	})
	if err != nil {
		return Conditions{}, err
	}
	err = eachNode("node_queue_weeks", in.NodeQueueWeeks, func(n technode.Node, name string, w float64) error {
		if !(w >= 0) {
			return fmt.Errorf("node_queue_weeks[%s] = %v is negative", name, w)
		}
		b.SetQueue(n, units.Weeks(w))
		return nil
	})
	if err != nil {
		return Conditions{}, err
	}
	if in.Scenario != "" {
		s, ok := FindScenario(in.Scenario)
		if !ok {
			return Conditions{}, fmt.Errorf("unknown scenario %q", in.Scenario)
		}
		return s.Conditions, nil
	}
	return b.Conditions(), nil
}

// eachNode calls fn on the entries of the per-node map field in key
// order, so inputs with several bad entries always name the same one.
// Two keys that spell one node ("7" and "7nm") are an error: applied in
// map order, either could win, and one input would have two answers.
func eachNode(field string, m map[string]float64, fn func(n technode.Node, name string, v float64) error) error {
	var buf [8]string
	names := buf[:0]
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	nodes := make([]technode.Node, 0, 8)
	for _, name := range names {
		n, err := technode.Parse(name)
		if err != nil {
			return fmt.Errorf("%s: %v", field, err)
		}
		if j := slices.Index(nodes, n); j >= 0 {
			return fmt.Errorf("%s: node %v given twice (%q, %q)", field, n, names[j], name)
		}
		nodes = append(nodes, n)
		if err := fn(n, name, m[name]); err != nil {
			return err
		}
	}
	return nil
}

// Builder composes Conditions in storage it owns, for callers that
// build conditions field by field or once per step of a loop: where
// each With* call copies the node table, a Builder writes into its own
// and reuses it across Resets. The zero Builder holds the zero
// Conditions.
type Builder struct {
	c Conditions
}

// Reset sets the builder to a copy of c, reusing its storage.
func (b *Builder) Reset(c Conditions) {
	b.c.GlobalCapacity = c.GlobalCapacity
	b.c.nodes = append(b.c.nodes[:0], c.nodes...)
}

// Grow makes room for n more nodes, so the next n that are added
// allocate nothing.
func (b *Builder) Grow(n int) {
	if cap(b.c.nodes)-len(b.c.nodes) < n {
		nodes := make([]NodeConditions, len(b.c.nodes), len(b.c.nodes)+n)
		copy(nodes, b.c.nodes)
		b.c.nodes = nodes
	}
}

// SetGlobalCapacity sets the global capacity fraction, as AtCapacity.
func (b *Builder) SetGlobalCapacity(f float64) { b.c.GlobalCapacity = f }

// SetCapacity sets node n's capacity fraction, as WithNodeCapacity.
func (b *Builder) SetCapacity(n technode.Node, f float64) {
	s := b.node(n)
	s.Capacity, s.HasCapacity = f, true
}

// SetQueue sets node n's queue quote, as WithQueue.
func (b *Builder) SetQueue(n technode.Node, w units.Weeks) {
	s := b.node(n)
	s.Queue, s.HasQueue = w, true
}

// SetQueueAll replaces every queue quote with w at every node of the
// built-in database, as WithQueueAll.
func (b *Builder) SetQueueAll(w units.Weeks) {
	kept := b.c.nodes[:0]
	for _, s := range b.c.nodes {
		if s.HasCapacity {
			s.Queue, s.HasQueue = 0, false
			kept = append(kept, s)
		}
	}
	b.c.nodes = kept
	b.Grow(len(databaseNodes))
	for _, n := range databaseNodes {
		b.SetQueue(n, w)
	}
}

// node returns node n's entry, inserting an empty one in order when n
// has none.
func (b *Builder) node(n technode.Node) *NodeConditions {
	i, ok := search(b.c.nodes, n)
	if !ok {
		b.c.nodes = slices.Insert(b.c.nodes, i, NodeConditions{Node: n})
	}
	return &b.c.nodes[i]
}

// Conditions returns the composed conditions. They share the builder's
// storage: they stay valid, and unchanged, until the builder is next
// Reset or set, and a caller that keeps them longer must not change
// the builder again.
func (b *Builder) Conditions() Conditions { return b.c }

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

// scenarios are the built-in market scenarios, built once: their
// conditions are immutable values, so every caller shares them.
var scenarios = []Scenario{
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

// Scenarios returns the built-in market scenarios: the paper's baseline
// plus stylized versions of the disruptions its introduction surveys.
// The slice is the caller's; the conditions are shared, immutable
// values.
func Scenarios() []Scenario { return slices.Clone(scenarios) }

// FindScenario returns the named scenario, or false.
func FindScenario(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
