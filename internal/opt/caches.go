// Package opt implements the two optimization studies of the paper:
// cache-capacity selection under performance-per-TTM and
// performance-per-cost objectives (Section 6.1, Figs. 5–6), and the
// multi-process production-split methodology (Section 7, Fig. 14).
package opt

import (
	"context"
	"errors"
	"fmt"

	"ttmcas/internal/cachesim"
	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/sweep"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// CachePoint is one (I$, D$) configuration fully evaluated: the data
// behind the scatter of Figs. 4 and 5.
type CachePoint struct {
	IKB, DKB   int
	IPC        float64
	TTM        units.Weeks
	Cost       units.USD
	IPCPerTTM  float64 // IPC per week
	IPCPerCost float64 // IPC per billion dollars
}

// Objective selects what a cache optimization maximizes.
type Objective int

// Objectives.
const (
	MaxIPCPerTTM Objective = iota
	MaxIPCPerCost
	MaxIPC
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxIPCPerTTM:
		return "IPC/TTM"
	case MaxIPCPerCost:
		return "IPC/cost"
	case MaxIPC:
		return "IPC"
	default:
		return fmt.Sprintf("opt.Objective(%d)", int(o))
	}
}

// CacheStudy sweeps the full (I$, D$) cross-product for a core count,
// node and chip quantity.
type CacheStudy struct {
	// Table is the pre-computed IPC table (shared across nodes and
	// quantities: IPC does not depend on the process node).
	Table cachesim.IPCTable
	// Cores is the core count; zero means 16.
	Cores int
	// Model evaluates TTM and cost (at cost.DefaultRates); the zero
	// value is the paper's defaults.
	Model core.Model
	// Conditions are the market conditions; the zero value is full
	// capacity.
	Conditions market.Conditions
}

// Evaluate computes every configuration for the node and quantity.
func (s CacheStudy) Evaluate(node technode.Node, n float64) ([]CachePoint, error) {
	return s.EvaluateCtx(context.Background(), node, n)
}

// EvaluateCtx is Evaluate under a context: cancelling ctx abandons the
// sweep within one configuration per worker.
func (s CacheStudy) EvaluateCtx(ctx context.Context, node technode.Node, n float64) ([]CachePoint, error) {
	sizes := s.Table.SizesKB
	if len(sizes) == 0 {
		return nil, errors.New("opt: empty IPC table")
	}
	cores := s.Cores
	if cores == 0 {
		cores = 16
	}
	pairs := sweep.Grid(len(sizes), len(sizes))
	return sweep.Map(ctx, pairs, 0, func(ij [2]int) (CachePoint, error) {
		ikb, dkb := sizes[ij[0]], sizes[ij[1]]
		ipc, err := s.Table.At(ikb, dkb)
		if err != nil {
			return CachePoint{}, err
		}
		d := scenario.ArianeConfig{Cores: cores, ICacheKB: ikb, DCacheKB: dkb, Node: node}.Design()
		ev, err := s.Model.Compile(d, n, s.Conditions)
		if err != nil {
			return CachePoint{}, err
		}
		ttm, err := ev.EvalChipsAtCapacity(s.Model.Perturb, n, s.Conditions.GlobalCapacity)
		if err != nil {
			return CachePoint{}, err
		}
		b, err := ev.CostChips(cost.DefaultRates(), n)
		if err != nil {
			return CachePoint{}, err
		}
		total := b.Total
		pt := CachePoint{IKB: ikb, DKB: dkb, IPC: ipc, TTM: ttm, Cost: total}
		if ttm > 0 {
			pt.IPCPerTTM = ipc / float64(ttm)
		}
		if total > 0 {
			pt.IPCPerCost = ipc / total.Billions()
		}
		return pt, nil
	})
}

// Best returns the point maximizing the objective.
func Best(points []CachePoint, obj Objective) (CachePoint, error) {
	if len(points) == 0 {
		return CachePoint{}, errors.New("opt: no points")
	}
	metric := func(p CachePoint) float64 {
		switch obj {
		case MaxIPCPerCost:
			return p.IPCPerCost
		case MaxIPC:
			return p.IPC
		default:
			return p.IPCPerTTM
		}
	}
	best := points[0]
	for _, p := range points[1:] {
		if metric(p) > metric(best) {
			best = p
		}
	}
	return best, nil
}
