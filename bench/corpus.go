package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ttmcas"
	"ttmcas/internal/jobs"
)

// The evaluation routes the request workloads drive, as the server
// labels them.
const (
	routeTTM  = "POST /v1/ttm"
	routeCAS  = "POST /v1/cas"
	routeCost = "POST /v1/cost"
)

// exploreQueries is how many distinct queries explore warms and then
// draws from. Their 6 designs × 4 node choices × 5 scenarios compile at
// most 120 distinct evaluators, below the server's default
// evaluator-cache size of 256, so a fresh chip count always finds its
// evaluator compiled.
const exploreQueries = 4096

// retargetNodes are the node choices of explore and cluster-fwd; ""
// keeps the design's own nodes.
var retargetNodes = []string{"", "28nm", "14nm", "7nm"}

// casCurve is the what-if workload's 8-point CAS/TTM curve.
var casCurve = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// evaluatorRoutes are the routes that resolve a compiled evaluator; cost
// has none.
var evaluatorRoutes = []string{routeTTM, routeCAS}

// evaluatorRoute draws the route mix of what-if and cluster-fwd: 70%
// ttm, 30% cas.
func evaluatorRoute(rng *rand.Rand) string {
	if rng.Intn(10) < 7 {
		return routeTTM
	}
	return routeCAS
}

// nodeValue is one per-node market override of a what-if query.
type nodeValue struct {
	node  string
	value float64
}

// query is one evaluation request kept as its parameters: the client
// writes the body straight into a reused buffer, and the oracle derives
// the expected answer from the same parameters.
type query struct {
	route    string
	design   string
	node     string // re-target node; "" keeps the design's own nodes
	scenario string
	capacity float64
	queue    float64
	nodeCaps []nodeValue
	curve    bool
	n        float64
}

func (q *query) path() string { return q.route[len("POST "):] }

// appendBody appends q's JSON request body to b.
func (q *query) appendBody(b []byte) []byte {
	b = append(b, `{"design":`...)
	b = strconv.AppendQuote(b, q.design)
	if q.node != "" {
		b = append(b, `,"node":`...)
		b = strconv.AppendQuote(b, q.node)
	}
	if q.scenario != "" {
		b = append(b, `,"scenario":`...)
		b = strconv.AppendQuote(b, q.scenario)
	}
	if q.capacity != 0 {
		b = append(b, `,"capacity":`...)
		b = appendFloat(b, q.capacity)
	}
	if q.queue != 0 {
		b = append(b, `,"queue_weeks":`...)
		b = appendFloat(b, q.queue)
	}
	if len(q.nodeCaps) > 0 {
		b = append(b, `,"node_capacity":{`...)
		for i, nv := range q.nodeCaps {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, nv.node)
			b = append(b, ':')
			b = appendFloat(b, nv.value)
		}
		b = append(b, '}')
	}
	if q.curve {
		b = append(b, `,"curve":[`...)
		for i, f := range casCurve {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, f)
		}
		b = append(b, ']')
	}
	b = append(b, `,"n":`...)
	b = appendFloat(b, q.n)
	return append(b, '}')
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// resolve derives q's design and market conditions through the ttmcas
// facade, the way the API documents the request fields.
func (q *query) resolve() (ttmcas.Design, ttmcas.Conditions, error) {
	d, err := ttmcas.DesignByName(q.design)
	if err != nil {
		return d, ttmcas.Conditions{}, err
	}
	if q.node != "" {
		n, err := ttmcas.ParseNode(q.node)
		if err != nil {
			return d, ttmcas.Conditions{}, err
		}
		d = d.Retarget(n)
	}
	if q.scenario != "" {
		sc, ok := ttmcas.FindScenario(q.scenario)
		if !ok {
			return d, ttmcas.Conditions{}, fmt.Errorf("unknown scenario %q", q.scenario)
		}
		return d, sc.Conditions, nil
	}
	c := ttmcas.FullCapacity()
	if q.capacity != 0 {
		c = c.AtCapacity(q.capacity)
	}
	if q.queue > 0 {
		c = c.WithQueueAll(ttmcas.Weeks(q.queue))
	}
	for _, nv := range q.nodeCaps {
		n, err := ttmcas.ParseNode(nv.node)
		if err != nil {
			return d, c, err
		}
		c = c.WithNodeCapacity(n, nv.value)
	}
	return d, c, nil
}

func scenarioNames() []string {
	var names []string
	for _, sc := range ttmcas.Scenarios() {
		names = append(names, sc.Name)
	}
	return names
}

// logUniform draws from [lo, hi) uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// roundSig rounds v to three significant digits, so explore's chip
// counts read like the round volumes an architect types.
func roundSig(v float64) float64 {
	p := math.Pow(10, math.Floor(math.Log10(v))-2)
	return math.Round(v/p) * p
}

// exploreRoutePattern lays explore's route mix over every ten corpus
// entries: 5 ttm, 3 cas, 2 cost.
var exploreRoutePattern = []string{routeTTM, routeCAS, routeTTM, routeCost, routeTTM, routeCAS, routeTTM, routeCost, routeTTM, routeCAS}

// exploreCorpus builds explore's distinct warmed queries. Entry i takes
// its route from exploreRoutePattern and its design × node × scenario
// from a fixed rotation over combos; the seed draws the chip counts. The
// Zipf draw ranks queries by index, so the hot set has the same route
// and design mix under every seed, and a seed changes what is asked,
// not how much work it is.
func exploreCorpus(seed int64, combos []query) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	out := make([]query, 0, exploreQueries)
	for i := 0; len(out) < exploreQueries; {
		if len(seen) > 100*exploreQueries {
			return nil, fmt.Errorf("explore corpus: only %d distinct queries", len(out))
		}
		q := combos[i%len(combos)]
		q.route = exploreRoutePattern[i%len(exploreRoutePattern)]
		q.n = roundSig(logUniform(rng, 1e4, 1e8))
		key := q.route + string(q.appendBody(nil))
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
		i++
	}
	return out, nil
}

// servable reports whether the API can answer q: the model accepts it
// and the answer encodes as JSON. The second condition excludes CAS
// queries on a design whose node has no capacity (a11 at its native
// 10nm): the model's +Inf derivative makes the server answer 500. That
// is a server bug for a separate fix; the generators skip such queries
// so that every request the benchmark sends can succeed.
func servable(q *query) bool {
	want, err := expected(q)
	if err != nil {
		return false
	}
	_, err = json.Marshal(want)
	return err == nil
}

// evaluatorCombos lists every design × re-target node × scenario the
// API can answer on both evaluator routes: the rotation explore's corpus
// is laid over, and cluster-fwd's base queries, to which each request
// adds a fresh chip count.
func evaluatorCombos() ([]query, error) {
	var out []query
	for _, d := range ttmcas.DesignNames() {
		for _, node := range retargetNodes {
			for _, sc := range scenarioNames() {
				q := query{design: d, node: node, scenario: sc, n: 1e6}
				ok := true
				for _, r := range evaluatorRoutes {
					q.route = r
					ok = ok && servable(&q)
				}
				if ok {
					out = append(out, q)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no valid evaluator combination")
	}
	return out, nil
}

// freshChips returns a chip count no other request of the run carries:
// base plus an offset unique to (client, seq), with a fractional part
// no rounded corpus volume has.
func freshChips(base float64, client int, seq int64) float64 {
	return base + float64(2*seq+int64(client)) + 0.5
}

// designNodes is a design and the nodes its dies use, for what-if's
// per-node capacities.
type designNodes struct {
	name  string
	nodes []string
}

// producingDesigns lists the built-in designs whose native nodes all
// have production capacity. The others (a11, at the non-producing 10nm)
// stall under any conditions, so what-if and the job workloads, which
// evaluate designs at their own nodes, leave them out.
func producingDesigns() []designNodes {
	producing := make(map[string]bool)
	for _, n := range ttmcas.ProducingNodes() {
		producing[n.String()] = true
	}
	var out []designNodes
	for _, name := range ttmcas.DesignNames() {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			continue
		}
		dn := designNodes{name: name}
		ok := true
		for _, n := range d.Nodes() {
			dn.nodes = append(dn.nodes, n.String())
			ok = ok && producing[n.String()]
		}
		if ok {
			out = append(out, dn)
		}
	}
	return out
}

// nextWhatIf fills q with new market conditions: a global capacity in
// [0.5, 1), a capacity in [0.4, 1) for each of the design's nodes and a
// uniform queue of up to 8 weeks. Every draw is new, so each request
// misses both the response cache and the evaluator cache; no node ever
// reaches zero capacity, so none stalls.
func nextWhatIf(rng *rand.Rand, designs []designNodes, q *query) {
	d := designs[rng.Intn(len(designs))]
	q.route = evaluatorRoute(rng)
	q.design = d.name
	q.capacity = 0.5 + 0.5*rng.Float64()
	q.queue = 8 * rng.Float64()
	q.nodeCaps = q.nodeCaps[:0]
	for _, node := range d.nodes {
		q.nodeCaps = append(q.nodeCaps, nodeValue{node, 0.4 + 0.6*rng.Float64()})
	}
	q.curve = q.route == routeCAS
	q.n = logUniform(rng, 1e5, 1e8)
}

// jobSlot is one job of a workload's mix cycle.
type jobSlot struct {
	kind, metric, design string
}

// studiesCycle is one cycle of the studies mix: 8 mc-band (ttm and cas
// alternating), 6 sensitivity, 3 sweep and 3 timeline jobs, i.e.
// 40/30/15/15%. Designs rotate through the slots, so every cycle costs
// the same and the mix is exact, not just expected.
func studiesCycle() []jobSlot {
	designs := producingDesigns()
	var slots []jobSlot
	add := func(kind, metric string, count int) {
		for i := 0; i < count; i++ {
			slots = append(slots, jobSlot{kind, metric, designs[len(slots)%len(designs)].name})
		}
	}
	add(jobs.KindMCBand, "ttm", 4)
	add(jobs.KindMCBand, "cas", 4)
	add(jobs.KindSensitivity, "", 6)
	add(jobs.KindSweep, "", 3)
	add(jobs.KindTimeline, "", 3)
	return slots
}

// distCycle is one cycle of cluster-dist: an mc-band and a sensitivity
// job per design.
func distCycle() []jobSlot {
	var slots []jobSlot
	for _, d := range producingDesigns() {
		slots = append(slots, jobSlot{jobs.KindMCBand, "ttm", d.name}, jobSlot{jobs.KindSensitivity, "", d.name})
	}
	return slots
}

// jobGen draws a client's job specs: the workload's cycle in a seeded
// order per cycle, with a seed no other job of the run uses.
type jobGen struct {
	rng      *rand.Rand
	cycle    []jobSlot
	order    []int
	pos      int
	samples  map[string]int // per kind
	seedBase int64
	seq      int64
	episodes []string
	episode  int
}

func newJobGen(rng *rand.Rand, seed int64, client int, cycle []jobSlot, samples map[string]int) *jobGen {
	var episodes []string
	for _, ep := range ttmcas.TimelineEpisodes() {
		episodes = append(episodes, ep.Name)
	}
	return &jobGen{
		rng:      rng,
		cycle:    cycle,
		samples:  samples,
		seedBase: (seed*64 + int64(client) + 1) << 24,
		episodes: episodes,
	}
}

func (g *jobGen) next() jobs.Spec {
	if g.pos%len(g.cycle) == 0 {
		g.order = g.rng.Perm(len(g.cycle))
	}
	slot := g.cycle[g.order[g.pos%len(g.cycle)]]
	g.pos++
	g.seq++
	episode := ""
	if slot.kind == jobs.KindTimeline {
		episode = g.episodes[g.episode%len(g.episodes)]
		g.episode++
	}
	return slotSpec(slot, g.samples, g.seedBase+g.seq, episode)
}

// slotSpec is the job spec of one cycle slot. Sweeps span every
// producing node × four quantities; a timeline job evaluates the named
// episode ("" selects the jobs manager's default one).
func slotSpec(slot jobSlot, samples map[string]int, seed int64, episode string) jobs.Spec {
	spec := jobs.Spec{
		Kind:    slot.kind,
		Design:  slot.design,
		Metric:  slot.metric,
		Samples: samples[slot.kind],
		Seed:    seed,
	}
	switch slot.kind {
	case jobs.KindSweep:
		spec.Quantities = []float64{1e5, 1e6, 1e7, 1e8}
	case jobs.KindTimeline:
		spec.Episode = episode
	}
	return spec
}

// clientRand is client's private, seeded random stream.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
}
