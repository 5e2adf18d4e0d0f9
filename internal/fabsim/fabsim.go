// Package fabsim is a discrete-event simulator of the downstream chip
// creation pipeline: wafer lots released into a foundry at a bounded
// start rate, a fixed fabrication pipeline latency (12–20 weeks
// depending on node), and a testing/assembly/packaging (TAP) stage with
// its own latency and throughput.
//
// The closed-form model of Section 3 (Eqs. 3–5) assumes "an efficient
// and pipelined assembly line where a new wafer lot can begin
// production once another lot finishes"; this package implements that
// assembly line operationally, which serves two purposes:
//
//  1. cross-validation — on constant conditions the simulated
//     completion time must agree with T_queue + N_W/μ_W + L_fab up to
//     lot quantization (a test pins this), and
//  2. disruption studies the closed form cannot express — capacity
//     that changes mid-run (fires, storms, demand shocks) via a rate
//     schedule, answering "what happens to orders already in flight".
package fabsim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"ttmcas/internal/units"
)

// DefaultLotSize is the industry-standard ~25-wafer lot.
const DefaultLotSize = 25

// Config describes one fabrication + packaging line at a process node.
type Config struct {
	// Rate is the full-capacity wafer start rate.
	Rate units.WafersPerWeek
	// FabLatency is the pipeline latency of a lot through the fab.
	FabLatency units.Weeks
	// LotSize is wafers per lot; zero means 25.
	LotSize int
	// TAPLatency is the packaging-house pipeline latency per lot.
	TAPLatency units.Weeks
	// TAPRate bounds packaging throughput in wafers/week; zero means
	// unbounded (the closed-form model's assumption).
	TAPRate units.WafersPerWeek
}

func (c Config) lotSize() int {
	if c.LotSize <= 0 {
		return DefaultLotSize
	}
	return c.LotSize
}

// Validate checks the line parameters.
func (c Config) Validate() error {
	if c.Rate <= 0 {
		return errors.New("fabsim: wafer start rate must be positive")
	}
	if c.FabLatency < 0 || c.TAPLatency < 0 {
		return errors.New("fabsim: latencies must be non-negative")
	}
	if c.TAPRate < 0 {
		return errors.New("fabsim: TAP rate must be non-negative")
	}
	return nil
}

// Disruption changes the line's capacity fraction at a point in time.
// Fractions stack on nothing: the latest disruption at or before t
// defines the fraction at t (initially 1).
type Disruption struct {
	AtWeek   units.Weeks
	Fraction float64
}

// Result reports a simulated order.
type Result struct {
	// LotsStarted is the number of lots released for the order itself
	// (not counting queued-ahead work).
	LotsStarted int
	// LastStart, LastFabComplete and LastPackaged are the times the
	// final lot started, left the fab, and finished packaging.
	LastStart       units.Weeks
	LastFabComplete units.Weeks
	LastPackaged    units.Weeks
	// QueueDrained is when the queued-ahead wafers finished starting,
	// i.e. the simulated T_fab,queue.
	QueueDrained units.Weeks
}

// event is a unit of work in the simulator.
type event struct {
	at   float64
	kind eventKind
	lot  int
}

type eventKind int

const (
	evFabDone eventKind = iota
	evTAPDone
)

// eventQueue is a min-heap on time.
type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// releaseClock computes lot release times under a piecewise-constant
// capacity schedule: the k-th lot starts when the integrated start
// capacity reaches k·lotSize wafers.
type releaseClock struct {
	rate     float64 // full-capacity wafers/week
	segStart []float64
	segFrac  []float64
	// progress state
	t        float64 // current time
	seg      int
	capacity float64 // wafers of capacity consumed so far (bookkeeping only)
}

func newReleaseClock(rate float64, disruptions []Disruption) (*releaseClock, error) {
	c := &releaseClock{rate: rate, segStart: []float64{0}, segFrac: []float64{1}}
	ds := append([]Disruption(nil), disruptions...)
	sort.Slice(ds, func(i, j int) bool { return ds[i].AtWeek < ds[j].AtWeek })
	for _, d := range ds {
		if d.AtWeek < 0 {
			return nil, errors.New("fabsim: disruption before time zero")
		}
		if d.Fraction < 0 {
			return nil, errors.New("fabsim: negative capacity fraction")
		}
		c.segStart = append(c.segStart, float64(d.AtWeek))
		c.segFrac = append(c.segFrac, d.Fraction)
	}
	return c, nil
}

// advance returns the time at which a further `wafers` of start
// capacity have accumulated, advancing the clock. Returns +Inf if the
// schedule ends in a zero-capacity segment before accumulating enough.
func (c *releaseClock) advance(wafers float64) float64 {
	need := wafers
	for {
		frac := c.segFrac[c.seg]
		segEnd := math.Inf(1)
		if c.seg+1 < len(c.segStart) {
			segEnd = c.segStart[c.seg+1]
		}
		rate := c.rate * frac
		if rate > 0 {
			dt := need / rate
			if c.t+dt <= segEnd {
				c.t += dt
				c.capacity += need
				return c.t
			}
			got := (segEnd - c.t) * rate
			need -= got
			c.capacity += got
		}
		if math.IsInf(segEnd, 1) {
			// Zero-capacity tail: never completes.
			c.t = math.Inf(1)
			return c.t
		}
		c.t = segEnd
		c.seg++
	}
}

// Run simulates fabricating `wafers` wafers for an order behind
// `queueAhead` wafers of previously-committed work, under the given
// disruption schedule.
func Run(cfg Config, wafers float64, queueAhead units.Wafers, disruptions []Disruption) (Result, error) {
	return RunCtx(context.Background(), cfg, wafers, queueAhead, disruptions)
}

// RunCtx is Run under a context: a large order is hundreds of
// thousands of lot-release and packaging events, and timeline jobs run
// one simulation per disrupted node per evaluation, so the loops check
// for cancellation and return ctx.Err() promptly when a job deadline
// expires mid-simulation.
func RunCtx(ctx context.Context, cfg Config, wafers float64, queueAhead units.Wafers, disruptions []Disruption) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if wafers < 0 || queueAhead < 0 {
		return Result{}, errors.New("fabsim: negative wafer counts")
	}
	clock, err := newReleaseClock(float64(cfg.Rate), disruptions)
	if err != nil {
		return Result{}, err
	}

	var res Result
	// Drain the queued-ahead wafers first: they consume start capacity
	// but we do not track their completion.
	if queueAhead > 0 {
		res.QueueDrained = units.Weeks(clock.advance(float64(queueAhead)))
		if math.IsInf(float64(res.QueueDrained), 1) {
			return res, fmt.Errorf("fabsim: capacity schedule never drains the queue")
		}
	}

	lots := int(math.Ceil(wafers / float64(cfg.lotSize())))
	res.LotsStarted = lots
	if lots == 0 {
		return res, nil
	}

	// Release each lot as capacity accrues and push its fab completion.
	q := &eventQueue{}
	remaining := wafers
	for k := 0; k < lots; k++ {
		if k%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		size := math.Min(remaining, float64(cfg.lotSize()))
		remaining -= size
		start := clock.advance(size)
		if math.IsInf(start, 1) {
			return res, fmt.Errorf("fabsim: capacity schedule never finishes lot %d", k+1)
		}
		res.LastStart = units.Weeks(start)
		heap.Push(q, event{at: start + float64(cfg.FabLatency), kind: evFabDone, lot: k})
	}

	// TAP stage: FIFO behind a throughput bound, plus fixed latency.
	tapFree := 0.0 // earliest time the TAP line can accept the next lot
	for steps := 0; q.Len() > 0; steps++ {
		if steps%2048 == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		ev := heap.Pop(q).(event)
		switch ev.kind {
		case evFabDone:
			if ev.at > float64(res.LastFabComplete) {
				res.LastFabComplete = units.Weeks(ev.at)
			}
			begin := ev.at
			if begin < tapFree {
				begin = tapFree
			}
			service := 0.0
			if cfg.TAPRate > 0 {
				service = float64(cfg.lotSize()) / float64(cfg.TAPRate)
			}
			tapFree = begin + service
			heap.Push(q, event{at: begin + service + float64(cfg.TAPLatency), kind: evTAPDone, lot: ev.lot})
		case evTAPDone:
			if ev.at > float64(res.LastPackaged) {
				res.LastPackaged = units.Weeks(ev.at)
			}
		}
	}
	return res, nil
}
