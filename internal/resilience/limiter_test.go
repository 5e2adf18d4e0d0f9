package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmitUnderCapacity(t *testing.T) {
	l := NewLimiter(LimiterConfig{Name: "t", MaxConcurrent: 2})
	rel1, err := l.Admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	rel2, err := l.Admit(context.Background())
	if err != nil {
		t.Fatalf("second admit: %v", err)
	}
	st := l.Stats()
	if st.InUse != 2 || st.Admitted != 2 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	rel1()
	rel1() // double release must not free a second slot
	rel2()
	if st := l.Stats(); st.InUse != 0 {
		t.Fatalf("in use after release = %d", st.InUse)
	}
}

func TestSaturatedQueueSheds(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxConcurrent: 1, Target: 5 * time.Millisecond})
	rel, err := l.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	// MaxWait defaults to 4×Target = 20ms: the waiter must be shed in
	// bounded time, not hang.
	start := time.Now()
	if _, err := l.Admit(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("saturated admit: err = %v, want ErrShed", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("shed took %v; MaxWait not honored", waited)
	}
	if st := l.Stats(); st.Shed != 1 {
		t.Fatalf("shed count = %d, want 1", st.Shed)
	}
}

func TestContextCancelSheds(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxConcurrent: 1, Target: time.Minute, MaxWait: time.Minute})
	rel, err := l.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := l.Admit(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("cancelled admit: err = %v, want ErrShed", err)
	}
}

// TestSheddingEngagesAndRecovers walks the control law through its
// states: a standing queue flips shedding on (subsequent arrivals are
// rejected immediately, without waiting), and freed capacity flips it
// back off.
func TestSheddingEngagesAndRecovers(t *testing.T) {
	cfg := LimiterConfig{
		MaxConcurrent: 1,
		Target:        time.Millisecond,
		Interval:      5 * time.Millisecond,
		MaxWait:       10 * time.Millisecond,
	}
	l := NewLimiter(cfg)
	rel, err := l.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Generate standing-queue observations until the law reacts.
	deadline := time.Now().Add(5 * time.Second)
	for !l.shedding.Load() {
		if time.Now().After(deadline) {
			t.Fatal("limiter never entered shedding despite a standing queue")
		}
		l.Admit(context.Background()) // times out after MaxWait, observes it
	}

	// While shedding, a queue-bound arrival is rejected instantly.
	start := time.Now()
	if _, err := l.Admit(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("shedding admit: err = %v", err)
	}
	if d := time.Since(start); d > cfg.MaxWait {
		t.Errorf("shedding admit waited %v; want immediate rejection", d)
	}

	// Capacity returns: the next arrivals admit on the fast path and
	// their zero-delay observations clear the flag.
	rel()
	deadline = time.Now().Add(5 * time.Second)
	for l.shedding.Load() {
		if time.Now().After(deadline) {
			t.Fatal("limiter never recovered after capacity returned")
		}
		r, err := l.Admit(context.Background())
		if err == nil {
			r()
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseWakesWaitersAndRejects(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxConcurrent: 1, Target: time.Minute, MaxWait: time.Minute})
	rel, err := l.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	waited := make(chan error, 1)
	go func() {
		_, err := l.Admit(context.Background())
		waited <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue
	l.Close()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrShed) || !errors.Is(err, ErrClosed) {
			t.Fatalf("queued waiter: err = %v, want ErrClosed (shed)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the queued waiter")
	}
	if _, err := l.Admit(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close: err = %v, want ErrClosed", err)
	}
	l.Close() // idempotent
}

// TestConcurrentChurn exercises the limiter under the race detector.
func TestConcurrentChurn(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxConcurrent: 4, Target: time.Millisecond, MaxWait: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if rel, err := l.Admit(context.Background()); err == nil {
					rel()
				}
				l.Stats()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Admitted+st.Shed != 8*200 {
		t.Fatalf("admitted %d + shed %d != %d", st.Admitted, st.Shed, 8*200)
	}
	if st.InUse != 0 || st.Queued != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

func TestRetryAfterAtLeastOneSecond(t *testing.T) {
	l := NewLimiter(LimiterConfig{Target: time.Millisecond})
	if ra := l.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", ra)
	}
}
