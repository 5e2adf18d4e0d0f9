package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned (or used as a sentinel by callers) when a
// circuit breaker refuses a call: the downstream peer has failed
// enough recently that sending more traffic would only burn the
// caller's deadline. Callers should fail over immediately — next
// alive peer, local compute — instead of waiting out a timeout.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
// The numeric values are chosen so a metrics gauge reads "higher is
// worse": 0 closed (healthy), 1 half-open (probing), 2 open (failing).
type BreakerState int

const (
	BreakerClosed   BreakerState = 0
	BreakerHalfOpen BreakerState = 1
	BreakerOpen     BreakerState = 2
)

// String returns the lowercase state name used in /v1/cluster and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a Breaker. The zero value of every field
// selects a sensible default.
type BreakerConfig struct {
	// Name labels the breaker in OnTransition calls (the peer URL, in
	// cluster use).
	Name string
	// ConsecutiveFailures trips the breaker when this many calls fail
	// back to back, regardless of rate (default 5).
	ConsecutiveFailures int
	// FailureRate trips the breaker when the windowed failure ratio
	// reaches it, once MinSamples calls have been observed
	// (default 0.5).
	FailureRate float64
	// MinSamples is how many calls the rolling window must hold
	// before FailureRate applies, so one early failure cannot trip a
	// cold breaker (default 10).
	MinSamples int
	// Window is the span of the rolling failure-rate window
	// (default 10s).
	Window time.Duration
	// OpenFor is how long a tripped breaker rejects everything before
	// admitting half-open probes (default 3s).
	OpenFor time.Duration
	// HalfOpenProbes bounds how many concurrent trial calls the
	// half-open state admits (default 1).
	HalfOpenProbes int
	// CloseAfter is how many consecutive half-open successes close
	// the breaker again (default 2).
	CloseAfter int
	// OnTransition, if set, is called (outside the breaker lock)
	// after every state change.
	OnTransition func(name string, from, to BreakerState)

	// now is a test seam; nil means time.Now.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 3 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is a per-dependency circuit breaker: Closed passes
// everything and counts outcomes; enough failures (consecutive or
// rate-over-window) trip it Open, which rejects instantly; after
// OpenFor it admits a bounded number of HalfOpen trial calls, and
// CloseAfter consecutive successes close it again (any half-open
// failure re-opens it).
//
// Record may be called without a matching Allow — the cluster's gossip
// prober does exactly that, feeding probe outcomes into the breaker so
// recovery is detected even while the breaker rejects regular traffic.
type Breaker struct {
	cfg BreakerConfig

	mu         sync.Mutex
	state      BreakerState
	consecFail int // consecutive failures while closed
	consecOK   int // consecutive successes while half-open
	inflight   int // admitted half-open probes not yet recorded
	openedAt   time.Time

	// Rolling failure-rate window: two half-Window buckets rotated in
	// place, so the rate always covers between one and two half-spans
	// of history at O(1) cost.
	bucketAt time.Time
	curOK    int
	curFail  int
	prevOK   int
	prevFail int
}

// NewBreaker returns a Breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed. Open rejects until OpenFor
// has elapsed, then flips to half-open; half-open admits at most
// HalfOpenProbes calls at once. Every admitted call must be followed
// by exactly one Record.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	now := b.cfg.now()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			b.mu.Unlock()
			return false
		}
		from := b.transitionLocked(BreakerHalfOpen)
		b.inflight = 1
		b.mu.Unlock()
		b.notify(from, BreakerHalfOpen)
		return true
	default: // half-open
		if b.inflight >= b.cfg.HalfOpenProbes {
			b.mu.Unlock()
			return false
		}
		b.inflight++
		b.mu.Unlock()
		return true
	}
}

// Record feeds one call outcome into the breaker. It is safe to call
// without a preceding Allow (probe traffic): such records still move
// the automaton — in particular a success observed while Open
// transitions to half-open credit, which is how a healed peer is
// detected without waiting for OpenFor to admit a trial request.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	now := b.cfg.now()
	b.rotateLocked(now)
	if success {
		b.curOK++
	} else {
		b.curFail++
	}
	if b.inflight > 0 {
		b.inflight--
	}

	var from, to BreakerState
	changed := false
	switch b.state {
	case BreakerClosed:
		if success {
			b.consecFail = 0
			break
		}
		b.consecFail++
		if b.consecFail >= b.cfg.ConsecutiveFailures || b.rateTrippedLocked() {
			from = b.transitionLocked(BreakerOpen)
			to, changed = BreakerOpen, true
		}
	case BreakerOpen:
		if success {
			// A success while open (gossip probe) is recovery
			// evidence: move to half-open and credit it.
			from = b.transitionLocked(BreakerHalfOpen)
			to, changed = BreakerHalfOpen, true
			b.consecOK = 1
			if b.consecOK >= b.cfg.CloseAfter {
				b.transitionLocked(BreakerClosed)
				// Report the net open -> closed transition.
				to = BreakerClosed
			}
		} else {
			b.openedAt = now // failures while open extend the cooldown
		}
	default: // half-open
		if success {
			b.consecOK++
			if b.consecOK >= b.cfg.CloseAfter {
				from = b.transitionLocked(BreakerClosed)
				to, changed = BreakerClosed, true
			}
		} else {
			from = b.transitionLocked(BreakerOpen)
			to, changed = BreakerOpen, true
		}
	}
	b.mu.Unlock()
	if changed {
		b.notify(from, to)
	}
}

// State returns the current state, applying the open -> half-open
// timeout so callers polling State see the same automaton Allow does.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= b.cfg.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// transitionLocked moves to state to, resetting per-state counters,
// and returns the previous state. Callers hold b.mu.
func (b *Breaker) transitionLocked(to BreakerState) (from BreakerState) {
	from = b.state
	if from == to {
		return from
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.openedAt = b.cfg.now()
		b.consecOK = 0
		b.inflight = 0
	case BreakerHalfOpen:
		b.consecOK = 0
	case BreakerClosed:
		b.consecFail = 0
		b.consecOK = 0
		b.inflight = 0
		b.curOK, b.curFail, b.prevOK, b.prevFail = 0, 0, 0, 0
	}
	return from
}

func (b *Breaker) notify(from, to BreakerState) {
	if from != to && b.cfg.OnTransition != nil {
		b.cfg.OnTransition(b.cfg.Name, from, to)
	}
}

// rotateLocked advances the two-bucket rolling window: when the
// current bucket is older than half the window it becomes the
// previous bucket (and anything older is dropped).
func (b *Breaker) rotateLocked(now time.Time) {
	half := b.cfg.Window / 2
	if b.bucketAt.IsZero() {
		b.bucketAt = now
		return
	}
	age := now.Sub(b.bucketAt)
	switch {
	case age >= b.cfg.Window:
		b.curOK, b.curFail, b.prevOK, b.prevFail = 0, 0, 0, 0
		b.bucketAt = now
	case age >= half:
		b.prevOK, b.prevFail = b.curOK, b.curFail
		b.curOK, b.curFail = 0, 0
		b.bucketAt = now
	}
}

// rateTrippedLocked reports whether the windowed failure rate has
// reached the configured threshold with enough samples behind it.
func (b *Breaker) rateTrippedLocked() bool {
	ok := b.curOK + b.prevOK
	fail := b.curFail + b.prevFail
	total := ok + fail
	if total < b.cfg.MinSamples {
		return false
	}
	return float64(fail)/float64(total) >= b.cfg.FailureRate
}
