package core

import (
	"fmt"
	"math"
	"sync"

	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// This file implements the batch kernel, the one implementation of the
// model's equations in production code, and its structure-of-arrays
// entry points. The Monte-Carlo, Sobol, sweep and timeline drivers need
// 10³–10⁶ evaluations in tight loops, and calling per sample would pay
// per-call dispatch (argument marshalling, bounds-checked scratch
// resets, error wrapping) on every one. EvalBatch takes the whole
// sample set as flat float64 columns — one slice per perturbed input,
// shared condition columns per node — and evaluates it phase by phase:
// each compiled table row (node, die) is resolved once and then applied
// across the dense sample columns, so the per-node resolution work is
// hoisted out of the per-sample path and the remaining inner loops are
// branch-light slice walks. The per-call methods of compile.go run the
// same phases on a one-sample batch.
//
// The kernel runs in two phases. The die phase (dieBatchInto) runs
// tapeout and the per-die area, yield, gross dies, wafer demand, test
// and packaging sums, and owns every per-sample error. The fab phase
// (fabBatchInto) turns the wafer demand into per-node fabrication time
// under the capacity factors, takes the slowest node and completes
// Eq. 1. EvalBatch runs the two back to back. A CAS probe changes one
// node's capacity factor, which only the fab phase reads, so a CAS
// runs the die phase once and then casBatchInto's two fab phases per
// node. The phases take optional sinks for what only the per-call
// methods report — the Result breakdown, the CAS derivatives, the cost
// sums — and record sample 0 into them; only one-sample batches pass
// them. The map-based reference the kernel is held to bit for bit
// lives in reference_test.go.
//
// Error convention: structural misuse (ragged columns, wrong output
// length, nil error sink) is reported as the call's error return;
// per-sample evaluation failures (a die too large under its perturbed
// transistor count, an invalid salvage yield) are collected into a
// compact BatchErrors index list and the corresponding output entries
// are zeroed, exactly the value the per-call methods return alongside
// their error. A sample fails at its first failing die, like the
// per-call path, and later phases skip failed samples.
//
// Pooling rules for callers: a Batch, its output slices and the
// BatchErrors are plain memory — pool them per worker (sync.Pool or a
// per-chunk struct) and reuse them across calls, and steady-state
// allocations drop to zero. The per-sample accumulators live in a
// batchScratch taken from a package pool for the duration of one call
// and returned after it, so the batch entry points keep no state on the
// Evaluator: any number of goroutines may run batch calls on one shared
// Evaluator, each with its own Batch, outputs and BatchErrors.

// Batch is a structure-of-arrays sample set for EvalBatch/CASBatch.
// Every column is either nil (all samples take the default: an
// unperturbed input, the compiled chip count / conditions) or a slice
// of one value per sample; all non-nil columns must share one length.
type Batch struct {
	// NTT..TAPLatency are the Perturbation fields as columns; entry s
	// of each is Perturbation.<Field> of sample s (zero and negative
	// values mean "unperturbed", as in the scalar Perturbation).
	NTT, NUT, D0, Rate, FabLatency, TAPLatency []float64

	// Chips overrides the compiled final-chip count per sample
	// (EvalChipsAtCapacity's n); negative entries fail with the per-call
	// error.
	Chips []float64

	// Global overrides the compiled global capacity fraction per
	// sample (EvalChipsAtCapacity's global); zero means "default to 1"
	// exactly as the compiled conditions do.
	Global []float64

	// Factor and Queue override the compiled per-node capacity factor
	// and queued-wafer count. They are indexed by the evaluator's
	// compiled node order (NodeIndex/NodeAt); a nil inner column keeps
	// the node's compiled value. Evaluator.SetConditions fills one
	// sample of all three condition columns from a market.Conditions.
	Factor [][]float64
	Queue  [][]float64
}

// Len returns the common length of the batch's non-nil columns, or 0
// when every column is nil (the caller's output length then sets the
// sample count). It returns an error for ragged columns.
func (b *Batch) Len() (int, error) {
	n := -1
	check := func(name string, col []float64) error {
		if col == nil {
			return nil
		}
		if n < 0 {
			n = len(col)
			return nil
		}
		if len(col) != n {
			return fmt.Errorf("core: batch column %s has length %d, want %d", name, len(col), n)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		col  []float64
	}{
		{"NTT", b.NTT}, {"NUT", b.NUT}, {"D0", b.D0}, {"Rate", b.Rate},
		{"FabLatency", b.FabLatency}, {"TAPLatency", b.TAPLatency},
		{"Chips", b.Chips}, {"Global", b.Global},
	} {
		if err := check(c.name, c.col); err != nil {
			return 0, err
		}
	}
	for i, col := range b.Factor {
		if err := check("Factor", col); err != nil {
			return 0, fmt.Errorf("core: batch Factor[%d]: %w", i, err)
		}
	}
	for i, col := range b.Queue {
		if err := check("Queue", col); err != nil {
			return 0, fmt.Errorf("core: batch Queue[%d]: %w", i, err)
		}
	}
	if n < 0 {
		n = 0
	}
	return n, nil
}

// BatchErrors is the compact per-sample error list of a batch call:
// parallel slices of failing sample indices and their error values
// (the exact errors the per-call path returns for those samples). The
// indices follow the kernel's phase order, not ascending sample
// order; First recovers the per-call "first failing sample".
type BatchErrors struct {
	Idx  []int
	Errs []error
}

// Reset empties the list, retaining capacity for reuse.
func (be *BatchErrors) Reset() {
	be.Idx = be.Idx[:0]
	be.Errs = be.Errs[:0]
}

// Len returns the number of failed samples.
func (be *BatchErrors) Len() int { return len(be.Idx) }

// First returns the failure with the lowest sample index — the error a
// serial per-call loop over the batch would have stopped at — or
// (-1, nil) when every sample succeeded.
func (be *BatchErrors) First() (int, error) {
	if len(be.Idx) == 0 {
		return -1, nil
	}
	best := 0
	for i := 1; i < len(be.Idx); i++ {
		if be.Idx[i] < be.Idx[best] {
			best = i
		}
	}
	return be.Idx[best], be.Errs[best]
}

func (be *BatchErrors) add(i int, err error) {
	be.Idx = append(be.Idx, i)
	be.Errs = append(be.Errs, err)
}

// batchScratch is the per-sample accumulator state of one batch call,
// held by that call alone. Scratches are recycled through scratchPool
// and grow to the largest batch length they have served.
type batchScratch struct {
	chips  []float64 // resolved per-sample chip count
	global []float64 // resolved per-sample raw global capacity
	failed []byte    // non-zero once a sample has failed

	// Die phase accumulators.
	tapH   []float64 // accumulated tapeout hours
	tapLat []float64 // max die TAP latency (weeks)
	testW  []float64 // accumulated testing weeks
	packW  []float64 // accumulated packaging weeks

	// Die phase results, read by every fab phase of the call.
	head   []float64 // designTime + tapeout (weeks)
	pack   []float64 // packaging weeks
	wafers []float64 // node-major wafer demand, len(nodes)·n

	fab []float64 // slowest-node fabrication weeks of one fab phase

	// CAS-only state: each node's probe factors and probe TTMs, and the
	// per-sample derivative sum.
	fUp, fDown []float64
	up, down   []units.Weeks
	sum        []float64
}

// scratchPool recycles batchScratches; a batch call returns its own
// with Put when it is done.
var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ensure sizes the scratch for n samples of an evaluator with the given
// node count, the CAS columns included.
func (sc *batchScratch) ensure(n, nodes int) {
	sc.chips, sc.global, sc.failed = grow(sc.chips, n), grow(sc.global, n), grow(sc.failed, n)
	sc.tapH, sc.tapLat = grow(sc.tapH, n), grow(sc.tapLat, n)
	sc.testW, sc.packW = grow(sc.testW, n), grow(sc.packW, n)
	sc.head, sc.pack, sc.fab = grow(sc.head, n), grow(sc.pack, n), grow(sc.fab, n)
	sc.wafers = grow(sc.wafers, nodes*n)
	sc.fUp, sc.fDown, sc.sum = grow(sc.fUp, n), grow(sc.fDown, n), grow(sc.sum, n)
	sc.up, sc.down = grow(sc.up, n), grow(sc.down, n)
}

// NodeCount returns the number of compiled process nodes — the outer
// length condition columns (Batch.Factor/Queue) must have.
func (e *Evaluator) NodeCount() int { return len(e.nodes) }

// NodeIndex returns the compiled index of a node, or -1 when the
// design does not use it.
func (e *Evaluator) NodeIndex(node technode.Node) int {
	for i := range e.nodes {
		if e.nodes[i].node == node {
			return i
		}
	}
	return -1
}

// ResizeConditions sizes the batch's Global/Factor/Queue condition
// columns for n samples of this evaluator, reusing their capacity, so
// a pooled Batch can be refilled via SetConditions with no steady-state
// allocations.
func (e *Evaluator) ResizeConditions(b *Batch, n int) {
	b.Global = grow(b.Global, n)
	b.Factor = grow(b.Factor, len(e.nodes))
	b.Queue = grow(b.Queue, len(e.nodes))
	for i := range e.nodes {
		b.Factor[i] = grow(b.Factor[i], n)
		b.Queue[i] = grow(b.Queue[i], n)
	}
}

// SetConditions writes market conditions c into sample s of the
// batch's condition columns (sized beforehand via ResizeConditions),
// resolving them exactly as Compile and Bind do: the raw global
// capacity, the per-node capacity factor (1 when unset) and the
// queued-wafer count fixed against the node's full-capacity rate. A
// batch filled this way evaluates bit-for-bit like an evaluator
// compiled at c. It is Bind's per-sample counterpart: Bind rewrites one
// evaluator's conditions for per-call use, SetConditions gives every
// sample of one batch call its own. Like Bind it finds each node's
// entry in c's sorted node table by a merge with the evaluator's own
// sorted nodes, with no map or lookup, and allocates nothing.
func (e *Evaluator) SetConditions(b *Batch, s int, c market.Conditions) {
	b.Global[s] = c.GlobalCapacity
	e.resolve(c, func(i int, factor, queueWafers float64) {
		b.Factor[i][s], b.Queue[i][s] = factor, queueWafers
	})
}

// colAt reads column col at sample s, defaulting to 0 (the unperturbed
// sentinel) for a nil column.
func colAt(col []float64, s int) float64 {
	if col == nil {
		return 0
	}
	return col[s]
}

// EvalBatch evaluates every sample of the batch at the compiled
// conditions, writing TTM per sample into out. out sets the sample
// count when every batch column is nil; otherwise its length must
// match the batch's. Per-sample failures land in errs (required) with
// the corresponding out entries zeroed; the returned error reports
// structural misuse only.
func (e *Evaluator) EvalBatch(b *Batch, out []units.Weeks, errs *BatchErrors) error {
	sc, n, err := e.batchSetup(b, len(out), errs)
	if err != nil || n == 0 {
		return err
	}
	e.dieBatchInto(sc, b, n, errs, nil, nil)
	e.fabBatchInto(sc, b, n, -1, nil, out, nil)
	scratchPool.Put(sc)
	return nil
}

// CASBatch computes the Chip Agility Score per sample at the compiled
// conditions via the same per-node central differences as CAS: one die
// phase for the whole batch, then each node's two capacity probes as
// fab phases over its results.
func (e *Evaluator) CASBatch(b *Batch, out []float64, errs *BatchErrors) error {
	sc, n, err := e.batchSetup(b, len(out), errs)
	if err != nil || n == 0 {
		return err
	}
	e.dieBatchInto(sc, b, n, errs, nil, nil)
	e.casBatchInto(sc, b, n, DefaultDerivativeStep, out, nil)
	scratchPool.Put(sc)
	return nil
}

// batchSetup validates the batch against the output length, takes a
// pooled scratch sized for its samples (nil for an empty batch), resolves
// the per-sample chip count and raw global capacity, resets the failure
// state and applies the per-call negative-chip check per sample. The
// caller returns the scratch to scratchPool when the call is done.
func (e *Evaluator) batchSetup(b *Batch, outLen int, errs *BatchErrors) (*batchScratch, int, error) {
	if errs == nil {
		return nil, 0, fmt.Errorf("core: batch call needs a non-nil *BatchErrors")
	}
	n, err := b.Len()
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		n = outLen
	}
	if outLen != n {
		return nil, 0, fmt.Errorf("core: batch output has length %d, want %d", outLen, n)
	}
	if b.Factor != nil && len(b.Factor) != len(e.nodes) {
		return nil, 0, fmt.Errorf("core: batch Factor has %d node columns, want %d", len(b.Factor), len(e.nodes))
	}
	if b.Queue != nil && len(b.Queue) != len(e.nodes) {
		return nil, 0, fmt.Errorf("core: batch Queue has %d node columns, want %d", len(b.Queue), len(e.nodes))
	}
	errs.Reset()
	if n == 0 {
		return nil, 0, nil
	}
	sc := scratchPool.Get().(*batchScratch)
	sc.ensure(n, len(e.nodes))
	for s := 0; s < n; s++ {
		sc.failed[s] = 0
	}
	if b.Chips != nil {
		copy(sc.chips, b.Chips)
		for s := 0; s < n; s++ {
			if sc.chips[s] < 0 {
				sc.failed[s] = 1
				errs.add(s, negativeChips(sc.chips[s]))
			}
		}
	} else {
		for s := 0; s < n; s++ {
			sc.chips[s] = e.chips
		}
	}
	if b.Global != nil {
		copy(sc.global, b.Global)
	} else {
		for s := 0; s < n; s++ {
			sc.global[s] = e.global
		}
	}
	return sc, n, nil
}

// negativeChips is the error of a negative final-chip count.
func negativeChips(n float64) error {
	return fmt.Errorf("core: negative chip count %v", n)
}

// dieBatchInto is the die phase: tapeout (Eq. 2) and the per-die
// geometry, yield and wafer demand (Eqs. 5–7), each run as a
// compiled-table-outer, sample-inner loop, so every table row is
// resolved once per batch instead of once per sample. It leaves
// sc.head, sc.pack and sc.wafers for the fab phases. Samples already
// marked failed are skipped; new failures are recorded in errs. This is
// the only phase that fails: a die fails here or nowhere, whatever the
// capacity. detail, when non-nil, receives the tapeout and per-die rows
// of the Result breakdown; cost, when non-nil, sums what CostChips
// prices. Both record sample 0 and are passed with n = 1 only.
func (e *Evaluator) dieBatchInto(sc *batchScratch, b *Batch, n int, errs *BatchErrors, detail *Result, cost *costSums) {
	failed := sc.failed

	// Tapeout phase (Eq. 2): per-sample accumulation in node order.
	for s := 0; s < n; s++ {
		sc.tapH[s] = 0
		sc.tapLat[s] = 0
		sc.testW[s] = 0
		sc.packW[s] = 0
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		nutCol := b.NUT
		for s := 0; s < n; s++ {
			nut := nd.nutBase * or1(colAt(nutCol, s))
			sc.tapH[s] += nut / 1e6 * nd.tapeoutEffort
		}
	}
	if detail != nil {
		detail.Dies = make([]DieResult, 0, len(e.dies))
		detail.Nodes = make([]NodeFabResult, 0, len(e.nodes))
	}

	// Per-die geometry, yield and wafer demand (Eqs. 5–7), die order
	// preserved per sample so each sample fails at its first failing
	// die with the per-call error.
	for i := range sc.wafers {
		sc.wafers[i] = 0
	}
	for di := range e.dies {
		die := &e.dies[di]
		tapCol, nttCol, d0Col := b.TAPLatency, b.NTT, b.D0
		base := die.nodeIdx * n
		for s := 0; s < n; s++ {
			if failed[s] != 0 {
				continue
			}
			if tl := die.tapLatency * or1(colAt(tapCol, s)); tl > sc.tapLat[s] {
				sc.tapLat[s] = tl
			}

			ntt := units.Transistors(die.nttBase * or1(colAt(nttCol, s)))
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
					D0:    units.DefectsPerCM2(die.d0Base * or1(colAt(d0Col, s))),
					Alpha: e.alpha,
					Model: e.yieldModel,
				}
				if die.salvage != nil {
					var err error
					y, err = yield.SalvageYield(yp, *die.salvage)
					if err != nil {
						failed[s] = 1
						errs.add(s, fmt.Errorf("core: die %q: %w", die.name, err))
						continue
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
				failed[s] = 1
				errs.add(s, fmt.Errorf("core: die %q (%.0f mm² at %s): %w",
					die.name, float64(area), die.node, geometry.ErrDieTooLarge))
				continue
			}

			wafers := yield.DiesNeeded(sc.chips[s]*die.countF, y) / gross
			sc.wafers[base+s] += wafers
			if y > 0 {
				sc.testW[s] += sc.chips[s] * die.countF / y * float64(ntt) * die.testingEffort
			}
			sc.packW[s] += sc.chips[s] * die.countF * float64(area) * die.packageEffort
			if cost != nil {
				cost.waferCount += units.Wafers(wafers)
				cost.wafers += units.USD(wafers) * die.waferCost
				cost.packagedArea += area * units.MM2(die.countF)
			}
			if detail != nil {
				detail.Dies = append(detail.Dies, DieResult{
					Name:          die.name,
					Node:          die.node,
					Area:          area,
					Yield:         y,
					GrossPerWafer: gross,
					Wafers:        units.Wafers(wafers),
				})
			}
		}
	}

	// The terms of Eq. 1 that no capacity factor touches.
	for s := 0; s < n; s++ {
		tapeout := units.Weeks(sc.tapH[s] / (units.HoursPerWeek * e.team))
		sc.head[s] = float64(e.designTime + tapeout)
		sc.pack[s] = float64(units.Weeks(sc.tapLat[s]) + units.Weeks(sc.testW[s]) + units.Weeks(sc.packW[s]))
		if detail != nil {
			detail.DesignTime = e.designTime
			detail.TapeoutHours = units.Hours(sc.tapH[s])
			detail.Tapeout = tapeout
		}
	}
}

// fabBatchInto is the fab phase: Eqs. 3–5 per node over the die
// phase's wafer demand, synchronized at the slowest node, then Eq. 1's
// sum into out (0 for a failed sample). overrideIdx/overrideCol
// replace one node's capacity factor per sample (the CAS probes). It
// reads the die phase's columns and never fails, so one die phase
// serves any number of fab phases. detail, when non-nil, receives
// sample 0's per-node rows and critical node; it is passed with n = 1
// only.
func (e *Evaluator) fabBatchInto(sc *batchScratch, b *Batch, n int, overrideIdx int, overrideCol []float64, out []units.Weeks, detail *Result) {
	for i := range e.nodes { // Validate guarantees a node; node 0 sets sc.fab
		nd := &e.nodes[i]
		var fcol []float64
		if overrideIdx == i {
			fcol = overrideCol
		} else if b.Factor != nil {
			fcol = b.Factor[i]
		}
		var qcol []float64
		if b.Queue != nil {
			qcol = b.Queue[i]
		}
		rateCol, flCol := b.Rate, b.FabLatency
		wrow := sc.wafers[i*n : (i+1)*n]
		for s := 0; s < n; s++ {
			g := sc.global[s]
			if g == 0 {
				g = 1
			}
			if fcol != nil {
				g *= fcol[s]
			} else {
				g *= nd.factor
			}
			if g < 0 {
				g = 0
			}
			rate := nd.waferRate * g * or1(colAt(rateCol, s))
			lfab := nd.fabLatency * or1(colAt(flCol, s))
			wafers := wrow[s]
			qw := nd.queueWafers
			if qcol != nil {
				qw = qcol[s]
			}
			var queue, production, fabTotal float64
			switch {
			case rate > 0:
				queue = qw / rate               // Eq. 4
				production = wafers/rate + lfab // Eq. 5
				fabTotal = queue + production
			case wafers > 0 || qw > 0:
				queue = math.Inf(1)
				production = math.Inf(1)
				fabTotal = math.Inf(1)
			default:
				production = lfab
				fabTotal = lfab
			}
			if detail != nil {
				detail.Nodes = append(detail.Nodes, NodeFabResult{
					Node:       nd.node,
					Wafers:     units.Wafers(wafers),
					Queue:      units.Weeks(queue),
					Production: units.Weeks(production),
					FabTotal:   units.Weeks(fabTotal),
				})
			}
			if i == 0 || fabTotal > sc.fab[s] {
				sc.fab[s] = fabTotal
				if detail != nil {
					detail.CriticalNode = nd.node
				}
			}
		}
	}

	for s := 0; s < n; s++ {
		if sc.failed[s] != 0 {
			out[s] = 0 // what the per-call methods return with their error
			continue
		}
		out[s] = units.Weeks(sc.head[s]) + units.Weeks(sc.fab[s]) + units.Weeks(sc.pack[s])
	}
}

// casBatchInto is Eq. 8 over the batch by finite differences of the
// given relative step on each node's capacity factor f. The effective
// rate is μ = g·f·μ_full, so dTTM/dμ = ΔTTM / (Δf · g · μ_full); the
// difference is central where possible and forward at the capacity
// floor. The probes change one node's factor, which enters only the fab
// phase, so it runs after one die phase, whose failures it skips: a CAS
// over K nodes costs one die phase and 2K fab phases, and each failing
// sample is recorded once, by the die phase.
// derivs, when non-nil, receives sample 0's |∂TTM/∂μ_W| per node, as
// Model.CAS reports it; it is passed with n = 1 only.
func (e *Evaluator) casBatchInto(sc *batchScratch, b *Batch, n int, step float64, out []float64, derivs map[technode.Node]float64) {
	failed := sc.failed
	for s := 0; s < n; s++ {
		sc.sum[s] = 0
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		var fcol []float64
		if b.Factor != nil {
			fcol = b.Factor[i]
		}
		for s := 0; s < n; s++ {
			f0 := nd.factor
			if fcol != nil {
				f0 = fcol[s]
			}
			fUp, fDown := f0+step, f0-step
			if fDown <= 0 {
				fDown = f0
			}
			sc.fUp[s], sc.fDown[s] = fUp, fDown
		}
		e.fabBatchInto(sc, b, n, i, sc.fUp, sc.up, nil)
		e.fabBatchInto(sc, b, n, i, sc.fDown, sc.down, nil)
		for s := 0; s < n; s++ {
			if failed[s] != 0 {
				continue
			}
			up, down := sc.up[s], sc.down[s]
			if math.IsInf(float64(up), 0) || math.IsInf(float64(down), 0) {
				if derivs != nil {
					derivs[nd.node] = math.Inf(1)
				}
				sc.sum[s] = math.Inf(1)
				continue
			}
			g := sc.global[s]
			if g == 0 {
				g = 1
			}
			der := math.Abs(float64(up-down)) / ((sc.fUp[s] - sc.fDown[s]) * g * nd.waferRate)
			if derivs != nil {
				derivs[nd.node] = der
			}
			sc.sum[s] += der
		}
	}
	for s := 0; s < n; s++ {
		if failed[s] != 0 {
			out[s] = 0
			continue
		}
		switch sum := sc.sum[s]; {
		case sum <= 0:
			// TTM is locally flat in every node's rate (e.g. zero
			// chips): the design is perfectly agile.
			out[s] = math.Inf(1)
		case math.IsInf(sum, 1):
			// A node out of production: no agility at all.
			out[s] = 0
		default:
			out[s] = 1 / sum
		}
	}
}
