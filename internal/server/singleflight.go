package server

import (
	"bytes"
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent calls with the same key: the
// first caller runs fn, later callers with the same in-flight key
// block and share the first caller's result. Unlike a cache, the entry
// is forgotten as soon as the call completes, so errors are never
// remembered.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	wg sync.WaitGroup
	// joiners counts the callers waiting on this call; guarded by
	// flightGroup.mu.
	joiners int
	body    []byte
	err     error
}

// flightTestHookJoin, when set, runs each time a caller joins an
// in-flight call; tests use it to sequence joins deterministically.
var flightTestHookJoin func()

// Do runs fn once per concurrent set of callers sharing key. The
// shared result reports whether this caller piggybacked on another
// caller's execution.
//
// The body fn returns may be borrowed, such as a pooled buffer the
// executing caller recycles once it has written it: that caller gets
// it back as is, and Do copies it, once, only when other callers
// joined the call. The copy is what they share, and it is made before
// Do returns, so before the borrowed body can be recycled. A call no
// one joined, the usual case, copies nothing.
func (g *flightGroup) Do(key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.joiners++
		g.mu.Unlock()
		if flightTestHookJoin != nil {
			flightTestHookJoin()
		}
		c.wg.Wait()
		return c.body, true, c.err
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	// Pre-set the error and complete the call in a defer: if fn
	// panics, the panic propagates to this caller's recovery layer, but
	// the piggybacked waiters still wake — with an error — instead of
	// blocking forever on a call that will never finish.
	c.err = errFlightPanicked
	defer g.finish(key, c)
	body, err = fn()
	c.body, c.err = body, err
	return body, false, err
}

// finish retires call c: under g.mu, so that no caller can join after
// the count is read, it gives the joiners their own copy of the body
// and forgets the key, then wakes them.
func (g *flightGroup) finish(key string, c *flightCall) {
	g.mu.Lock()
	if c.joiners > 0 {
		c.body = bytes.Clone(c.body)
	}
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
}

// errFlightPanicked is what piggybacked callers observe when the
// executing caller's fn panicked out of Do.
var errFlightPanicked = errors.New("singleflight: shared call panicked")
