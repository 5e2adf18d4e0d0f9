package core

import (
	"fmt"

	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// This file compiles the evaluation kernel and holds its per-call
// methods. Compile resolves everything the equations read from the
// design, the node database and the market conditions — node
// parameters, effort curves, wafer geometry, queue depths, capacity
// factors — into flat slices indexed by a dense node index, so the
// kernel runs the model with zero map operations and zero heap
// allocations however many perturbations it is asked about. The kernel
// is batch.go's, the one implementation of Eqs. 1–8 in production
// code. The per-call methods below (Model.Evaluate, TTM, CAS and the
// cost model run them after a Compile) load one sample into a
// one-sample batch the Evaluator owns, run the batch phases at n = 1
// and read sample 0; the detail only they report comes from the
// phases' optional sinks.
//
// The tests hold the kernel bit for bit, error text included, to a
// map-based reference that walks the design and the market conditions
// directly and re-evaluates the whole model per CAS probe
// (reference_test.go): the property tests in compile_test.go over
// every registered design × scenario, and
// FuzzEvaluateMatchesReference; internal/cost's FuzzCostMatchesReference
// holds CostChips to its cost walk.

// Evaluator is a design × conditions pair compiled for repeated
// evaluation under varying perturbations. The batch entry points
// (EvalBatch, CASBatch) take their scratch from a package pool per
// call, so one Evaluator serves batch calls from any number of
// goroutines at once. The per-call methods (EvalResultChips,
// EvalChipsAtCapacity, CASChipsAtCapacity, CASResultChips, CostChips)
// run the batch kernel on a one-sample batch owned by the Evaluator,
// and Bind rewrites its bound conditions, so those are NOT safe for
// concurrent use; callers that run them in parallel give each
// goroutine its own Clone (cheap: the compiled die tables are shared
// and immutable, only the small node table is copied, and each clone
// holds its own one-sample batch).
type Evaluator struct {
	// chips is the compiled final-chip count n.
	chips float64
	// global is the raw GlobalCapacity of the bound conditions (zero
	// meaning "default to 1", resolved at eval time exactly as
	// market.Conditions.capacity does).
	global float64

	designTime     units.Weeks
	team           float64 // float64(d.Team())
	diesPerPackage float64 // float64(d.DiesPerPackage())

	alpha      float64
	yieldModel yield.Model
	noEdge     bool

	nodes []evalNode
	dies  []evalDie

	// one is the per-call methods' one-sample batch, held in the
	// Evaluator's own allocation; with the bound conditions it is the
	// Evaluator's only mutable state.
	one single
}

// evalNode is one distinct process node of the design with every
// map-resolved parameter flattened. factor and queueWafers are the
// bound market conditions (see resolve); the rest is fixed at compile
// time.
type evalNode struct {
	node          technode.Node
	nutBase       float64 // float64(d.UniqueTransistorsAt(node))
	tapeoutEffort float64
	waferRate     float64   // float64(p.WaferRate), full capacity
	factor        float64   // node capacity multiplier (1 when unset)
	queueWafers   float64   // float64(c.QueueWafers(p)), fixed at quote time
	fabLatency    float64   // float64(p.FabLatency)
	maskNRE       units.USD // p.MaskSetCost × the dies taped out here
}

// resolve is the one definition of "market conditions → node columns"
// that Compile, Bind and SetConditions share. It walks the evaluator's
// nodes in increasing node order (the reverse of their compiled order,
// Design.Nodes' oldest first) alongside c's node entries, which market
// keeps sorted the same way, so each node finds its entry by a merge,
// with no lookup. For each node it calls set with the node's compiled
// index, its capacity factor (1 when unset) and its queued-wafer count,
// fixed at quote time as weeks × the full-capacity rate unless the
// quote is missing or non-positive — exactly
// market.Conditions.QueueWafers, so a NaN quote queues NaN wafers there
// and here alike.
func (e *Evaluator) resolve(c market.Conditions, set func(i int, factor, queueWafers float64)) {
	j, n := 0, c.Len()
	for i := len(e.nodes) - 1; i >= 0; i-- {
		nd := &e.nodes[i]
		for j < n && c.At(j).Node < nd.node {
			j++
		}
		factor, queueWafers := 1.0, 0.0
		if j < n {
			if s := c.At(j); s.Node == nd.node {
				if s.HasCapacity {
					factor = s.Capacity
				}
				if s.HasQueue && !(s.Queue <= 0) {
					queueWafers = float64(s.Queue) * nd.waferRate
				}
			}
		}
		set(i, factor, queueWafers)
	}
}

// evalDie is one die type with its node parameters resolved.
type evalDie struct {
	name          string
	node          technode.Node
	nodeIdx       int
	tapLatency    float64 // float64(p.TAPLatency)
	nttBase       float64 // float64(die.TotalTransistors())
	areaOverride  units.MM2
	minArea       units.MM2
	density       units.MTrPerMM2
	d0Base        float64 // float64(p.DefectDensity)
	yieldOverride float64
	salvage       *yield.Salvage
	wafer         geometry.Wafer
	countF        float64 // float64(die.Count())
	testingEffort float64
	packageEffort float64
	waferCost     units.USD // p.WaferCost
}

// Compile resolves the design and market conditions against the
// model's node database into an Evaluator. The model's own Perturb
// field is ignored: the perturbation is an argument of every evaluation so
// one compiled kernel serves a whole Monte-Carlo or Sobol stream.
// Structural errors (invalid design, negative chip count, unknown
// node, invalid salvage scheme) surface here; data-dependent errors
// (a die too large for the wafer under a perturbed transistor count)
// surface from evaluation.
func (m Model) Compile(d design.Design, n float64, c market.Conditions) (*Evaluator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("core: negative chip count %v", n)
	}
	e := &Evaluator{
		chips:          n,
		designTime:     d.DesignTime,
		team:           float64(d.Team()),
		diesPerPackage: float64(d.DiesPerPackage()),
		alpha:          m.Alpha,
		yieldModel:     m.YieldModel,
		noEdge:         m.NoEdgeCorrection,
	}
	// One lookup per node serves the node and every die made there.
	nodes := d.Nodes()
	e.nodes = make([]evalNode, len(nodes))
	e.dies = make([]evalDie, len(d.Dies))
	for k, node := range nodes {
		p, err := m.Nodes.Lookup(node)
		if err != nil {
			return nil, err
		}
		maskSets := 0
		for i, die := range d.Dies {
			if die.Node != node {
				continue
			}
			if !die.SkipTapeout {
				maskSets++
			}
			e.dies[i] = evalDie{
				name:          die.Name,
				node:          node,
				nodeIdx:       k,
				tapLatency:    float64(p.TAPLatency),
				nttBase:       float64(die.TotalTransistors()),
				areaOverride:  die.AreaOverride,
				minArea:       die.MinArea,
				density:       p.Density,
				d0Base:        float64(p.DefectDensity),
				yieldOverride: die.YieldOverride,
				salvage:       die.Salvage,
				wafer:         m.waferFor(p),
				countF:        float64(die.Count()),
				testingEffort: p.TestingEffort,
				packageEffort: p.PackageEffort,
				waferCost:     p.WaferCost,
			}
		}
		e.nodes[k] = evalNode{
			node:          node,
			nutBase:       float64(d.UniqueTransistorsAt(node)),
			tapeoutEffort: p.TapeoutEffort,
			waferRate:     float64(p.WaferRate),
			fabLatency:    float64(p.FabLatency),
			maskNRE:       p.MaskSetCost * units.USD(maskSets),
		}
	}
	e.Bind(c)
	return e, nil
}

// Clone returns an Evaluator sharing the compiled die tables but owning
// a copy of the node table and its own one-sample batch, for one
// goroutine of a parallel caller of the per-call methods. Binding the
// clone never writes into e.
func (e *Evaluator) Clone() *Evaluator {
	out := *e
	out.nodes = append([]evalNode(nil), e.nodes...)
	out.one.wafers = nil
	return &out
}

// Bind re-binds the evaluator to market conditions c in place: the raw
// global capacity, and each node's capacity factor and queued wafers,
// resolved exactly as Compile resolves them, so a bound evaluator is
// bit-for-bit an evaluator compiled at c. Each node finds its entry
// in c's sorted node table by a merge with the evaluator's own sorted
// nodes (see resolve), with no map or lookup, and Bind allocates
// nothing, which lets a cached compiled design serve each request's
// conditions on a borrowed Clone instead of compiling again.
func (e *Evaluator) Bind(c market.Conditions) {
	e.global = c.GlobalCapacity
	e.resolve(c, func(i int, factor, queueWafers float64) {
		e.nodes[i].factor, e.nodes[i].queueWafers = factor, queueWafers
	})
}

// single is the per-call methods' one-sample batch: the perturbation
// and the columns of a batch scratch sized for one sample, the CAS
// probe outputs included. It lives in the Evaluator and the scratch's
// slice headers are built on the stack for each call, so it costs the
// Evaluator under two hundred bytes and one allocation, the per-node
// wafer column, made on the first per-call method.
type single struct {
	pert   [6]float64  // NTT, NUT, D0, Rate, FabLatency, TAPLatency
	cols   [12]float64 // the scratch's per-sample columns
	failed [1]byte
	up     [1]units.Weeks
	down   [1]units.Weeks
	wafers []float64
}

// die makes sample 0 of the one-sample batch perturbation p at chips
// final chips and raw global capacity global, points b's and sc's
// columns at it, and runs the die phase on it with the given sinks,
// returning the sample's failure. A negative chip count fails as in
// batchSetup.
func (e *Evaluator) die(sc *batchScratch, b *Batch, p Perturbation, chips, global float64, detail *Result, cost *costSums) error {
	if chips < 0 {
		return negativeChips(chips)
	}
	o := &e.one
	if o.wafers == nil {
		o.wafers = make([]float64, len(e.nodes))
	}
	c := &o.cols
	sc.chips, sc.global, sc.failed = c[0:1], c[1:2], o.failed[:]
	sc.tapH, sc.tapLat, sc.testW, sc.packW = c[2:3], c[3:4], c[4:5], c[5:6]
	sc.head, sc.pack, sc.wafers, sc.fab = c[6:7], c[7:8], o.wafers, c[8:9]
	sc.fUp, sc.fDown, sc.up, sc.down, sc.sum = c[9:10], c[10:11], o.up[:], o.down[:], c[11:12]
	q := &o.pert
	q[0], q[1], q[2], q[3], q[4], q[5] = p.NTT, p.NUT, p.D0, p.Rate, p.FabLatency, p.TAPLatency
	b.NTT, b.NUT, b.D0 = q[0:1], q[1:2], q[2:3]
	b.Rate, b.FabLatency, b.TAPLatency = q[3:4], q[4:5], q[5:6]
	o.failed[0] = 0
	c[0], c[1] = chips, global
	var errs BatchErrors
	e.dieBatchInto(sc, b, 1, &errs, detail, cost)
	if errs.Len() != 0 {
		return errs.Errs[0]
	}
	return nil
}

// EvalResultChips computes TTM under the perturbation for n final
// chips with the full per-phase, per-die and per-node breakdown, the
// Result Model.Evaluate reports for the compiled design × conditions
// pair at that chip count, so one compiled evaluator serves detailed
// evaluations across request volumes. It allocates the result
// slices, so it belongs on request paths that need the detail once, not
// in Monte-Carlo inner loops.
func (e *Evaluator) EvalResultChips(p Perturbation, n float64) (Result, error) {
	var res Result
	if _, err := e.evalOne(p, n, e.global, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// EvalChipsAtCapacity computes the headline TTM under the perturbation
// for n final chips with the global capacity fraction overridden,
// exactly as evaluating at c.AtCapacity(global) would, for cached
// evaluators serving arbitrary request volumes across capacity sweeps.
// The call performs no map operations and no heap allocations (asserted
// by testing.AllocsPerRun in the tests); only the error path allocates.
func (e *Evaluator) EvalChipsAtCapacity(p Perturbation, n float64, global float64) (units.Weeks, error) {
	return e.evalOne(p, n, global, nil)
}

// evalOne runs the die phase, then the fab phase at the bound
// conditions and raw global capacity global, on the one-sample batch. detail, when non-nil, receives the breakdown Model.Evaluate
// reports; the hot path passes nil and stays allocation-free.
func (e *Evaluator) evalOne(p Perturbation, chips, global float64, detail *Result) (units.Weeks, error) {
	var b Batch
	var sc batchScratch
	if err := e.die(&sc, &b, p, chips, global, detail, nil); err != nil {
		return 0, err
	}
	var ttm [1]units.Weeks
	e.fabBatchInto(&sc, &b, 1, -1, nil, ttm[:], detail)
	if detail != nil {
		detail.Fabrication = units.Weeks(sc.fab[0])
		detail.Packaging = units.Weeks(sc.pack[0])
		detail.TTM = ttm[0]
	}
	return ttm[0], nil
}

// CASChipsAtCapacity computes the Chip Agility Score (Eq. 8) under the
// perturbation for n final chips at the global capacity fraction, via
// Model.CAS's central differences at the default step, without the
// per-node Derivatives map; the CAS counterpart of EvalChipsAtCapacity.
func (e *Evaluator) CASChipsAtCapacity(p Perturbation, n float64, global float64) (float64, error) {
	return e.casOne(p, n, global, DefaultDerivativeStep, nil)
}

// CASResultChips computes the agility score with its per-node
// derivative composition, as Model.CAS reports it, with the
// final-chip count overridden. It allocates the Derivatives map, so it
// belongs on request paths, not inner loops.
func (e *Evaluator) CASResultChips(p Perturbation, n float64) (CASResult, error) {
	return e.casResult(p, n, DefaultDerivativeStep)
}

// casResult runs the kernel's CAS at the bound conditions with the
// given step and collects the per-node derivatives.
func (e *Evaluator) casResult(p Perturbation, n, step float64) (CASResult, error) {
	res := CASResult{Derivatives: make(map[technode.Node]float64, len(e.nodes))}
	cas, err := e.casOne(p, n, e.global, step, res.Derivatives)
	if err != nil {
		return CASResult{}, err
	}
	res.CAS = cas
	return res, nil
}

// casOne runs the die phase and the CAS probes on the one-sample
// batch. derivs, when non-nil, receives |∂TTM/∂μ_W| per node; the hot
// path passes nil.
func (e *Evaluator) casOne(p Perturbation, chips, global, step float64, derivs map[technode.Node]float64) (float64, error) {
	var b Batch
	var sc batchScratch
	if err := e.die(&sc, &b, p, chips, global, nil, nil); err != nil {
		return 0, err
	}
	var cas [1]float64
	e.casBatchInto(&sc, &b, 1, step, cas[:], derivs)
	return cas[0], nil
}

// costSums is the die phase's cost accumulator, summed in die order.
type costSums struct {
	waferCount   units.Wafers
	wafers       units.USD
	packagedArea units.MM2
}

// CostChips prices n final chips at rates r (the cost model of
// internal/cost): the per-node NRE, the wafers the unperturbed die
// phase demands, and packaging. It runs no fab phase, reads none of
// the bound conditions and allocates nothing.
func (e *Evaluator) CostChips(r CostRates, n float64) (CostBreakdown, error) {
	var one Batch
	var sc batchScratch
	var acc costSums
	if err := e.die(&sc, &one, Perturbation{}, n, e.global, nil, &acc); err != nil {
		return CostBreakdown{}, err
	}
	var b CostBreakdown
	for i := range e.nodes {
		nd := &e.nodes[i]
		b.MaskNRE += nd.maskNRE
		b.TapeoutNRE += units.USD(nd.nutBase/1e6*nd.tapeoutEffort) * r.TapeoutLaborPerHour
	}
	b.Wafers = acc.wafers
	b.WaferCount = acc.waferCount
	perChip := r.PackageBasePerChip +
		r.PackagePerDie*units.USD(e.diesPerPackage) +
		r.PackagePerMM2*units.USD(float64(acc.packagedArea))
	b.Packaging = perChip * units.USD(n)
	b.Total = b.MaskNRE + b.TapeoutNRE + b.Wafers + b.Packaging
	if n > 0 {
		b.PerChip = b.Total / units.USD(n)
	}
	return b, nil
}
