package core

import (
	"fmt"
	"math"

	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// This file implements the compiled evaluation kernel, the one scalar
// implementation of the model: Model.Evaluate, TTM and CAS compile and
// run it once, and cost reads its die phase (CostChips). Compile resolves everything the equations read from the
// design, the node database and the market conditions — node
// parameters, effort curves, wafer geometry, queue depths, capacity
// factors — into flat slices indexed by a dense node index, so the
// kernel runs the model with zero map operations and zero heap
// allocations however many perturbations it is asked about. Drivers
// reach it through the batch entry points of batch.go; the per-call
// methods below serve single request-path evaluations.
//
// The kernel runs in two phases. The die phase (diePhase) computes
// tapeout and each die's area, yield, gross dies and wafer demand, and
// the test and packaging sums (and a cost read's wafer cost and
// packaged area); it is the only phase that can fail. The
// fab phase (fabPhase) turns the wafer demand into each node's queue,
// production and fab time under a capacity factor and takes the
// slowest node. An evaluation runs both; a CAS runs the die phase once
// and the fab phase for each node's up and down capacity probe, since
// the probes change nothing the die phase reads.
//
// The tests hold the kernel bit for bit, error text included, to a
// map-based reference that walks the design and the condition maps
// directly and re-evaluates the whole model per CAS probe
// (reference_test.go): the property tests in compile_test.go over
// every registered design × scenario, and
// FuzzEvaluateMatchesReference; internal/cost's FuzzCostMatchesReference
// holds CostChips to its cost walk.

// Evaluator is a design × conditions pair compiled for repeated
// evaluation under varying perturbations. The batch entry points
// (EvalBatch, EvalBatchAtCapacity, CASBatch, CASBatchAtCapacity) take
// their scratch from a package pool per call, so one Evaluator serves
// batch calls from any number of goroutines at once. The per-call
// methods (EvalResultChips, EvalChipsAtCapacity, CASChipsAtCapacity,
// CASResultChips, CostChips) share one scratch buffer owned by the
// Evaluator, and Bind rewrites its bound conditions, so those are NOT
// safe for concurrent use; callers that run them in parallel give each
// goroutine its own Clone (cheap: the compiled die tables are shared
// and immutable, only the small node table and the scratch are
// duplicated).
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

	// scratch accumulates per-node wafer demand during one per-call
	// evaluation; it is the Evaluator's only mutable state.
	scratch []units.Wafers
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
// that Compile, Bind and SetConditions share: the node's capacity
// factor (1 when unset) and its queued-wafer count, fixed at quote time
// as weeks × the full-capacity rate unless the quote is missing or
// non-positive — exactly market.Conditions.QueueWafers, so a NaN quote
// queues NaN wafers there and here alike.
func (nd *evalNode) resolve(c market.Conditions) (factor, queueWafers float64) {
	if w, ok := c.QueueWeeks[nd.node]; ok && !(w <= 0) {
		queueWafers = float64(w) * nd.waferRate
	}
	return nodeFactor(c, nd.node), queueWafers
}

// nodeFactor reports the node-specific capacity multiplier currently in
// c (default 1), so a CAS probe perturbs around the actual operating
// point.
func nodeFactor(c market.Conditions, n technode.Node) float64 {
	if f, ok := c.NodeCapacity[n]; ok {
		return f
	}
	return 1
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
	e.scratch = make([]units.Wafers, len(e.nodes))
	return e, nil
}

// Clone returns an Evaluator sharing the compiled die tables but owning
// a copy of the node table and a fresh per-call scratch buffer, for one
// goroutine of a parallel caller of the per-call methods. Binding the
// clone never writes into e.
func (e *Evaluator) Clone() *Evaluator {
	out := *e
	out.nodes = append([]evalNode(nil), e.nodes...)
	out.scratch = make([]units.Wafers, len(e.nodes))
	return &out
}

// Bind re-binds the evaluator to market conditions c in place: the raw
// global capacity, and each node's capacity factor and queued wafers,
// resolved exactly as Compile resolves them, so a bound evaluator is
// bit-for-bit an evaluator compiled at c. It allocates nothing, which
// lets a cached compiled design serve each request's conditions on a
// borrowed Clone instead of compiling again.
func (e *Evaluator) Bind(c market.Conditions) {
	e.global = c.GlobalCapacity
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.factor, nd.queueWafers = nd.resolve(c)
	}
}

// Chips returns the compiled final-chip count.
func (e *Evaluator) Chips() float64 { return e.chips }

// EvalResultChips computes TTM under the perturbation for n final
// chips with the full per-phase, per-die and per-node breakdown, the
// Result Model.Evaluate reports for the compiled design × conditions
// pair at that chip count, so one compiled evaluator serves detailed
// evaluations across request volumes. It allocates the result
// slices, so it belongs on request paths that need the detail once, not
// in Monte-Carlo inner loops.
func (e *Evaluator) EvalResultChips(p Perturbation, n float64) (Result, error) {
	var res Result
	if _, err := e.eval(p, n, e.global, &res); err != nil {
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
	return e.eval(p, n, global, nil)
}

// CASChipsAtCapacity computes the Chip Agility Score (Eq. 8) under the
// perturbation for n final chips at the global capacity fraction, via
// Model.CAS's central differences at the default step, without the
// per-node Derivatives map; the CAS counterpart of EvalChipsAtCapacity.
func (e *Evaluator) CASChipsAtCapacity(p Perturbation, n float64, global float64) (float64, error) {
	return e.cas(p, n, global, DefaultDerivativeStep, nil)
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
	cas, err := e.cas(p, n, e.global, step, res.Derivatives)
	if err != nil {
		return CASResult{}, err
	}
	res.CAS = cas
	return res, nil
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
	var acc costSums
	if _, err := e.diePhase(Perturbation{}, n, nil, &acc); err != nil {
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

// dieSums is the die phase's result for one evaluation: every term of
// Eq. 1 except fabrication, which depends on the capacity factors. The
// phase also leaves the per-node wafer demand in e.scratch for the fab
// phase.
type dieSums struct {
	head      units.Weeks // designTime + tapeout, the sum's leading terms
	packaging units.Weeks
}

// ttm completes Eq. 1 with a fab phase's fabrication time, adding in
// the equation's order: ((designTime + tapeout) + fabrication) +
// packaging.
func (d dieSums) ttm(fabrication units.Weeks) units.Weeks {
	return d.head + fabrication + d.packaging
}

// eval is the kernel: the die phase, then the fab phase at the bound
// conditions with the global capacity overridden. detail, when
// non-nil, receives the full per-phase/per-die/per-node breakdown
// Model.Evaluate reports; the hot path passes nil and stays
// allocation-free.
func (e *Evaluator) eval(p Perturbation, chips, global float64, detail *Result) (units.Weeks, error) {
	d, err := e.diePhase(p, chips, detail, nil)
	if err != nil {
		return 0, err
	}
	fabrication := e.fabPhase(p, global, -1, 0, detail)
	ttm := d.ttm(fabrication)
	if detail != nil {
		detail.Fabrication = fabrication
		detail.Packaging = d.packaging
		detail.TTM = ttm
	}
	return ttm, nil
}

// diePhase runs tapeout (Eq. 2) and the per-die geometry, yield and
// wafer demand (Eqs. 5–7), accumulating each node's wafer demand into
// e.scratch. It owns every data-dependent error, a negative chip count
// included: a die fails here or nowhere, whatever the capacity. cost,
// when non-nil, sums what CostChips prices; TTM and CAS pass nil.
func (e *Evaluator) diePhase(p Perturbation, chips float64, detail *Result, cost *costSums) (dieSums, error) {
	if chips < 0 {
		return dieSums{}, fmt.Errorf("core: negative chip count %v", chips)
	}
	// Tapeout phase (Eq. 2).
	var tapeoutHours units.Hours
	for i := range e.nodes {
		nd := &e.nodes[i]
		nut := nd.nutBase * or1(p.NUT)
		tapeoutHours += units.Hours(nut / 1e6 * nd.tapeoutEffort)
	}
	tapeout := units.Weeks(float64(tapeoutHours) / (units.HoursPerWeek * e.team))
	if detail != nil {
		detail.DesignTime = e.designTime
		detail.TapeoutHours = tapeoutHours
		detail.Tapeout = tapeout
		detail.Dies = make([]DieResult, 0, len(e.dies))
		detail.Nodes = make([]NodeFabResult, 0, len(e.nodes))
	}

	// Per-die geometry, yield and wafer demand (Eqs. 5–7).
	for i := range e.scratch {
		e.scratch[i] = 0
	}
	var testWeeks, packWeeks float64
	var tapLatency units.Weeks
	for i := range e.dies {
		die := &e.dies[i]
		if units.Weeks(die.tapLatency*or1(p.TAPLatency)) > tapLatency {
			tapLatency = units.Weeks(die.tapLatency * or1(p.TAPLatency))
		}

		ntt := units.Transistors(die.nttBase * or1(p.NTT))
		area := die.areaOverride
		if area <= 0 {
			area = die.density.Area(ntt)
		}
		if area < die.minArea {
			area = die.minArea
		}

		y := die.yieldOverride
		if y == 0 {
			yp := yield.Params{
				Area:  area,
				D0:    units.DefectsPerCM2(die.d0Base * or1(p.D0)),
				Alpha: e.alpha,
				Model: e.yieldModel,
			}
			if die.salvage != nil {
				var err error
				y, err = yield.SalvageYield(yp, *die.salvage)
				if err != nil {
					return dieSums{}, fmt.Errorf("core: die %q: %w", die.name, err)
				}
			} else {
				y = yield.Yield(yp)
			}
		}

		var gross float64
		if e.noEdge {
			gross = float64(die.wafer.NaiveDies(area))
		} else {
			gross = die.wafer.GrossDiesFrac(area)
		}
		if gross < 1 {
			return dieSums{}, fmt.Errorf("core: die %q (%.0f mm² at %s): %w",
				die.name, float64(area), die.node, geometry.ErrDieTooLarge)
		}

		wafers := units.Wafers(yield.DiesNeeded(chips*die.countF, y) / gross)
		e.scratch[die.nodeIdx] += wafers
		if cost != nil {
			cost.waferCount += wafers
			cost.wafers += units.USD(float64(wafers)) * die.waferCost
			cost.packagedArea += area * units.MM2(die.countF)
		}
		if detail != nil {
			detail.Dies = append(detail.Dies, DieResult{
				Name:          die.name,
				Node:          die.node,
				Area:          area,
				Yield:         y,
				GrossPerWafer: gross,
				Wafers:        wafers,
			})
		}

		if y > 0 {
			testWeeks += chips * die.countF / y * float64(ntt) * die.testingEffort
		}
		packWeeks += chips * die.countF * float64(area) * die.packageEffort
	}
	return dieSums{
		head:      e.designTime + tapeout,
		packaging: tapLatency + units.Weeks(testWeeks) + units.Weeks(packWeeks),
	}, nil
}

// fabPhase runs Eqs. 3–5 per node over the wafer demand the die phase
// left in e.scratch and returns the fabrication time of the slowest
// node. overrideIdx < 0 means no node-capacity override; otherwise node
// overrideIdx runs at capacity factor overrideF (a CAS probe).
func (e *Evaluator) fabPhase(p Perturbation, global float64, overrideIdx int, overrideF float64, detail *Result) units.Weeks {
	var fabrication units.Weeks
	first := true
	for i := range e.nodes {
		nd := &e.nodes[i]
		g := global
		if g == 0 {
			g = 1
		}
		if overrideIdx == i {
			g *= overrideF
		} else {
			g *= nd.factor
		}
		if g < 0 {
			g = 0
		}
		rate := nd.waferRate * g * or1(p.Rate)
		lfab := units.Weeks(nd.fabLatency * or1(p.FabLatency))
		wafers := e.scratch[i]
		var queue, production, fabTotal units.Weeks
		switch {
		case rate > 0:
			queue = units.Weeks(nd.queueWafers / rate)            // Eq. 4
			production = units.Weeks(float64(wafers)/rate) + lfab // Eq. 5
			fabTotal = queue + production
		case wafers > 0 || nd.queueWafers > 0:
			queue = units.Weeks(math.Inf(1))
			production = units.Weeks(math.Inf(1))
			fabTotal = units.Weeks(math.Inf(1))
		default:
			production = lfab
			fabTotal = lfab
		}
		if detail != nil {
			detail.Nodes = append(detail.Nodes, NodeFabResult{
				Node:       nd.node,
				Wafers:     wafers,
				Queue:      queue,
				Production: production,
				FabTotal:   fabTotal,
			})
		}
		if first || fabTotal > fabrication {
			fabrication = fabTotal
			if detail != nil {
				detail.CriticalNode = nd.node
			}
			first = false
		}
	}
	return fabrication
}

// cas is Eq. 8 by finite differences of the given relative step on
// each node's capacity factor f. The effective rate is μ = g·f·μ_full,
// so dTTM/dμ = ΔTTM / (Δf · g · μ_full); the difference is central
// where possible and forward at the capacity floor. The probes change
// one node's factor, which enters only the fab phase, so the die phase
// runs once and each node's up and down probe runs the fab phase
// alone: a CAS over K nodes costs one die phase and 2K fab phases.
// derivs, when non-nil, receives |∂TTM/∂μ_W| per node as Model.CAS
// reports it; the hot path passes nil.
func (e *Evaluator) cas(p Perturbation, chips, global, step float64, derivs map[technode.Node]float64) (float64, error) {
	d, err := e.diePhase(p, chips, nil, nil)
	if err != nil {
		return 0, err
	}
	g := global
	if g == 0 {
		g = 1
	}
	sum := 0.0
	for i := range e.nodes {
		nd := &e.nodes[i]
		f0 := nd.factor
		fUp, fDown := f0+step, f0-step
		if fDown <= 0 {
			fDown = f0
		}
		up := d.ttm(e.fabPhase(p, global, i, fUp, nil))
		down := d.ttm(e.fabPhase(p, global, i, fDown, nil))
		if math.IsInf(float64(up), 0) || math.IsInf(float64(down), 0) {
			if derivs != nil {
				derivs[nd.node] = math.Inf(1)
			}
			sum = math.Inf(1)
			continue
		}
		der := math.Abs(float64(up-down)) / ((fUp - fDown) * g * nd.waferRate)
		if derivs != nil {
			derivs[nd.node] = der
		}
		sum += der
	}
	if sum <= 0 {
		// TTM is locally flat in every node's rate (e.g. zero chips):
		// the design is perfectly agile.
		return math.Inf(1), nil
	}
	if math.IsInf(sum, 1) {
		// A node out of production: no agility at all.
		return 0, nil
	}
	return 1 / sum, nil
}
