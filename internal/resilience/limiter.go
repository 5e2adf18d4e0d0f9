// Package resilience implements the serving layer's defenses against
// overload and misbehaving dependencies: an adaptive admission-control
// limiter that sheds excess load before queueing delay collapses
// latency, a per-peer circuit breaker and a budgeted retry policy for
// the cluster transport, and (in the fault subpackage) a configurable
// fault injector for routes and links that makes the failure paths
// testable.
//
// The breaker (Breaker) is the fast-fail half of the failure model: a
// peer that keeps failing transport-level is declared open and calls
// to it are refused instantly — no deadline burned dialing a black
// hole — until a cooldown admits bounded half-open probes and
// consecutive successes close it again. The retrier (Retrier) is the
// bounded-persistence half: retries draw on a per-class token budget
// replenished as a fraction of request volume (the Finagle retry-
// budget design), so retry amplification under a dead dependency is
// capped by construction rather than by tuning. The two compose:
// breakers bound how long failures are *attempted*, budgets bound how
// often they are *retried*.
//
// The limiter follows the CoDel (Controlled Delay) insight: a queue is
// only a problem when it is *standing* — when even the minimum queueing
// delay observed over an interval stays above a target, the system is
// persistently oversubscribed and adding waiters only adds latency.
// The limiter therefore bounds concurrency with a slot pool, measures
// how long admitted requests waited for a slot, and flips into a
// shedding state when the per-interval minimum wait exceeds the
// target; while shedding, arrivals that cannot be served immediately
// are rejected at once instead of queueing. A free slot admits
// instantly regardless of state (and its zero-delay observation is
// what heals the shedding flag), so the limiter recovers as soon as
// real capacity returns.
package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShed is returned by Admit when the limiter rejects a request:
// capacity is saturated and the queue-delay control law has decided
// that waiting longer would only trade availability for latency.
// Callers should translate it into 503 + Retry-After.
var ErrShed = errors.New("resilience: load shed")

// ErrClosed is returned by Admit after Close: the limiter is draining
// for shutdown and admits nothing new. It matches ErrShed under
// errors.Is, so a single errors.Is(err, ErrShed) covers both
// rejection reasons.
var ErrClosed error = closedError{}

// closedError is the concrete type behind ErrClosed; its Is method
// makes a closed limiter count as shedding.
type closedError struct{}

func (closedError) Error() string        { return "resilience: limiter closed" }
func (closedError) Is(target error) bool { return target == ErrShed }

// LimiterConfig parameterizes a Limiter. The zero value of every field
// selects a sensible default.
type LimiterConfig struct {
	// Name labels the limiter in stats and metrics ("cheap", "heavy").
	Name string
	// MaxConcurrent is the slot count — how many requests may hold
	// admission at once (default 4).
	MaxConcurrent int
	// Target is the queue-delay target: when the minimum slot-wait
	// observed over an Interval exceeds it, the limiter starts
	// shedding (default 25ms).
	Target time.Duration
	// Interval is the observation window of the control law
	// (default 4×Target).
	Interval time.Duration
	// MaxWait bounds how long one request may wait for a slot before
	// it is shed even outside the shedding state (default 4×Target).
	// The request context's deadline still applies if sooner.
	MaxWait time.Duration
	// MaxQueue bounds how many requests may wait for a slot at once;
	// arrivals beyond it are shed immediately (default 4×MaxConcurrent).
	MaxQueue int
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.Target <= 0 {
		c.Target = 25 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 4 * c.Target
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 4 * c.Target
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	return c
}

// Limiter is an adaptive admission controller: a bounded slot pool
// with CoDel-style queue-delay shedding. It is safe for concurrent
// use by any number of goroutines.
type Limiter struct {
	cfg   LimiterConfig
	slots chan struct{}

	queued   atomic.Int64
	shedding atomic.Bool
	admitted atomic.Uint64
	shed     atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}

	// The control law's interval state: the minimum slot-wait seen in
	// the current interval decides the shedding flag when it rolls.
	mu          sync.Mutex
	intervalEnd time.Time
	minDelay    time.Duration
	haveDelay   bool
}

// NewLimiter builds a Limiter from the configuration.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		closed: make(chan struct{}),
	}
}

// Name returns the limiter's label.
func (l *Limiter) Name() string { return l.cfg.Name }

// Admit acquires one admission slot, waiting up to MaxWait (or the
// context's deadline, whichever is sooner) when the pool is full. It
// returns a release function that must be called exactly once when
// the admitted work completes, or an error matching ErrShed when the
// request is rejected.
func (l *Limiter) Admit(ctx context.Context) (release func(), err error) {
	select {
	case <-l.closed:
		l.shed.Add(1)
		return nil, ErrClosed
	default:
	}

	// Fast path: a free slot admits instantly, independent of the
	// shedding state — the zero-delay observation is what clears it.
	select {
	case l.slots <- struct{}{}:
		l.observe(0)
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	default:
	}

	// No free slot. While shedding, or past the queue bound, reject
	// immediately rather than joining a standing queue.
	if l.shedding.Load() {
		l.shed.Add(1)
		return nil, ErrShed
	}
	if l.queued.Load() >= int64(l.cfg.MaxQueue) {
		l.shed.Add(1)
		return nil, ErrShed
	}

	l.queued.Add(1)
	defer l.queued.Add(-1)
	start := time.Now()
	timer := time.NewTimer(l.cfg.MaxWait)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		l.observe(time.Since(start))
		l.admitted.Add(1)
		return l.releaseFunc(), nil
	case <-timer.C:
		// Waited the full budget without a slot: this IS a standing
		// queue — record the delay so the control law sees it.
		l.observe(l.cfg.MaxWait)
		l.shed.Add(1)
		return nil, ErrShed
	case <-ctx.Done():
		// The client gave up; its partial wait says nothing about the
		// queue, so it is not recorded.
		l.shed.Add(1)
		return nil, ErrShed
	case <-l.closed:
		l.shed.Add(1)
		return nil, ErrClosed
	}
}

// releaseFunc returns the slot exactly once even if called twice.
func (l *Limiter) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { <-l.slots }) }
}

// observe feeds one slot-wait measurement to the control law: track
// the interval minimum, and when the interval rolls decide whether a
// standing queue exists (minimum wait above target → shed).
func (l *Limiter) observe(d time.Duration) {
	now := time.Now()
	l.mu.Lock()
	if l.intervalEnd.IsZero() {
		l.intervalEnd = now.Add(l.cfg.Interval)
	}
	if !l.haveDelay || d < l.minDelay {
		l.minDelay = d
		l.haveDelay = true
	}
	if now.After(l.intervalEnd) {
		l.shedding.Store(l.minDelay > l.cfg.Target)
		l.intervalEnd = now.Add(l.cfg.Interval)
		l.haveDelay = false
	}
	l.mu.Unlock()
}

// Close rejects all future Admit calls and wakes every queued waiter
// with a shed, so a draining server answers queued-but-unadmitted
// requests promptly instead of holding them through shutdown.
// Work already admitted is unaffected. Close is idempotent.
func (l *Limiter) Close() {
	l.closeOnce.Do(func() { close(l.closed) })
}

// Shedding reports whether the control law is currently rejecting
// queue entry.
func (l *Limiter) Shedding() bool { return l.shedding.Load() }

// RetryAfter is the client back-off hint attached to shed responses:
// one control-law interval, rounded up to a whole second (Retry-After
// has second granularity).
func (l *Limiter) RetryAfter() time.Duration {
	d := l.cfg.Interval
	if d < time.Second {
		return time.Second
	}
	return d.Round(time.Second)
}

// LimiterStats is a point-in-time snapshot of one limiter.
type LimiterStats struct {
	Name          string
	MaxConcurrent int
	InUse         int
	Queued        int
	Shedding      bool
	Admitted      uint64
	Shed          uint64
}

// Stats snapshots the limiter's counters and gauges.
func (l *Limiter) Stats() LimiterStats {
	return LimiterStats{
		Name:          l.cfg.Name,
		MaxConcurrent: l.cfg.MaxConcurrent,
		InUse:         len(l.slots),
		Queued:        int(l.queued.Load()),
		Shedding:      l.shedding.Load(),
		Admitted:      l.admitted.Load(),
		Shed:          l.shed.Load(),
	}
}
