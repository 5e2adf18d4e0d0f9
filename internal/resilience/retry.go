package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy parameterizes a Retrier. The zero value of every field
// selects a sensible default.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per request, first attempt
	// included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff unit: attempt n sleeps a uniform
	// random duration in [0, BaseDelay * 2^(n-1)] — "full jitter"
	// (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the jitter range regardless of attempt count
	// (default 1s).
	MaxDelay time.Duration
	// BudgetRatio is the retry budget: each first attempt deposits
	// this many retry tokens (fractionally), each retry withdraws
	// one, so steady-state retries cannot exceed this fraction of
	// real traffic and a hard outage cannot trigger a retry storm
	// (default 0.2).
	BudgetRatio float64
	// MinBudget is the bucket floor in whole retries, so a cold or
	// low-traffic retrier can still retry at all (default 3).
	MinBudget int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.BudgetRatio <= 0 || p.BudgetRatio > 1 {
		p.BudgetRatio = 0.2
	}
	if p.MinBudget <= 0 {
		p.MinBudget = 3
	}
	return p
}

// RetrierStats is a point-in-time snapshot of a Retrier's counters.
type RetrierStats struct {
	Retries      uint64 // retries admitted by the budget
	BudgetDenied uint64 // retries refused because the budget was dry
}

// Retrier implements a bounded retry budget with full-jitter
// exponential backoff, in the style of Finagle's RetryBudget: retries
// are paid for by a token bucket fed by first attempts, so under a
// hard outage the retry volume decays to the budget ratio instead of
// multiplying offered load.
type Retrier struct {
	policy RetryPolicy

	mu     sync.Mutex
	tokens float64

	retries atomic.Uint64
	denied  atomic.Uint64

	seed uint64
	ctr  atomic.Uint64
}

// NewRetrier returns a Retrier with the given policy; seed fixes the
// jitter stream so a run is reproducible.
func NewRetrier(policy RetryPolicy, seed int64) *Retrier {
	policy = policy.withDefaults()
	return &Retrier{
		policy: policy,
		tokens: float64(policy.MinBudget),
		seed:   uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
}

// Attempt records a first attempt, depositing BudgetRatio retry
// tokens (capped so idle periods don't accumulate an unbounded burst
// allowance).
func (r *Retrier) Attempt() {
	if r == nil {
		return
	}
	r.mu.Lock()
	ceil := float64(r.policy.MinBudget) * 10
	if r.tokens += r.policy.BudgetRatio; r.tokens > ceil {
		r.tokens = ceil
	}
	r.mu.Unlock()
}

// AllowRetry reports whether a retry is allowed, withdrawing one token
// on success. attempt is the 1-based number of the attempt that just
// failed; the retrier refuses once MaxAttempts is reached regardless
// of budget.
func (r *Retrier) AllowRetry(attempt int) bool {
	if r == nil {
		return false
	}
	if attempt >= r.policy.MaxAttempts {
		return false
	}
	r.mu.Lock()
	ok := r.tokens >= 1
	if ok {
		r.tokens--
	}
	r.mu.Unlock()
	if ok {
		r.retries.Add(1)
	} else {
		r.denied.Add(1)
	}
	return ok
}

// Backoff returns how long to sleep before retrying after the given
// 1-based failed attempt: a full-jitter exponential draw, floored by
// retryAfter when the server sent an explicit Retry-After hint.
func (r *Retrier) Backoff(attempt int, retryAfter time.Duration) time.Duration {
	if r == nil {
		return retryAfter
	}
	ceil := r.policy.BaseDelay << uint(attempt-1)
	if ceil > r.policy.MaxDelay || ceil <= 0 {
		ceil = r.policy.MaxDelay
	}
	d := time.Duration(r.draw() * float64(ceil))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// Stats returns a snapshot of the retrier's counters.
func (r *Retrier) Stats() RetrierStats {
	if r == nil {
		return RetrierStats{}
	}
	return RetrierStats{Retries: r.retries.Load(), BudgetDenied: r.denied.Load()}
}

// draw returns the next deterministic uniform [0,1) variate
// (splitmix64, same stream construction as the fault injectors).
func (r *Retrier) draw() float64 {
	z := r.seed + r.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
