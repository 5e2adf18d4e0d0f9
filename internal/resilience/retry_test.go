package resilience

import (
	"testing"
	"time"
)

func TestRetrierBudget(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 10, BudgetRatio: 0.5, MinBudget: 2}, 1)
	// The cold bucket holds MinBudget tokens.
	for i := 0; i < 2; i++ {
		if !r.AllowRetry(1) {
			t.Fatalf("cold budget refused retry %d of MinBudget", i+1)
		}
	}
	if r.AllowRetry(1) {
		t.Fatal("drained budget admitted a retry")
	}
	// Two first attempts deposit 2 * 0.5 = 1 token: one retry.
	r.Attempt()
	r.Attempt()
	if !r.AllowRetry(1) {
		t.Fatal("replenished budget refused a retry")
	}
	if r.AllowRetry(1) {
		t.Fatal("budget admitted more retries than deposits paid for")
	}
	st := r.Stats()
	if st.Retries != 3 || st.BudgetDenied != 2 {
		t.Fatalf("stats = %+v, want Retries 3 BudgetDenied 2", st)
	}
}

func TestRetrierMaxAttempts(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, MinBudget: 100}, 1)
	if !r.AllowRetry(1) || !r.AllowRetry(2) {
		t.Fatal("budget refused retries below MaxAttempts")
	}
	if r.AllowRetry(3) {
		t.Fatal("retry admitted at MaxAttempts")
	}
}

func TestRetrierBackoff(t *testing.T) {
	r := NewRetrier(RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}, 1)
	for attempt := 1; attempt <= 6; attempt++ {
		ceil := 100 * time.Millisecond << uint(attempt-1)
		if ceil > time.Second {
			ceil = time.Second
		}
		for i := 0; i < 32; i++ {
			d := r.Backoff(attempt, 0)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d backoff = %v, want in [0, %v)", attempt, d, ceil)
			}
		}
	}
}

func TestRetrierBackoffHonorsRetryAfter(t *testing.T) {
	r := NewRetrier(RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}, 1)
	if d := r.Backoff(1, 500*time.Millisecond); d < 500*time.Millisecond {
		t.Fatalf("backoff = %v, want >= the 500ms Retry-After floor", d)
	}
}

func TestRetrierDeterministicStream(t *testing.T) {
	a := NewRetrier(RetryPolicy{}, 42)
	b := NewRetrier(RetryPolicy{}, 42)
	for i := 1; i <= 16; i++ {
		da, db := a.Backoff(1+i%3, 0), b.Backoff(1+i%3, 0)
		if da != db {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, da, db)
		}
	}
	c := NewRetrier(RetryPolicy{}, 43)
	same := true
	for i := 0; i < 16; i++ {
		if a.Backoff(3, 0) != c.Backoff(3, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical backoff stream")
	}
}

func TestNilRetrier(t *testing.T) {
	var r *Retrier
	r.Attempt()
	if r.AllowRetry(1) {
		t.Fatal("nil retrier admitted a retry")
	}
	if d := r.Backoff(1, time.Second); d != time.Second {
		t.Fatalf("nil retrier backoff = %v, want the Retry-After floor", d)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Fatalf("nil retrier stats = %+v", st)
	}
}
