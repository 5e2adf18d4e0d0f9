package server

import (
	"container/list"
	"encoding/json"
	"sync"

	"ttmcas"
)

// compiledEval is one cached compile result: the base evaluator plus a
// pool of per-worker clones. An Evaluator is not safe for concurrent
// use (it carries a one-sample batch and the conditions bound to it), so
// each request borrows a clone, binds its own market conditions onto
// it and returns it — steady-state requests touch no compile work and
// no fresh scratch allocations.
type compiledEval struct {
	base   *ttmcas.Evaluator
	clones sync.Pool
}

func newCompiledEval(base *ttmcas.Evaluator) *compiledEval {
	ce := &compiledEval{base: base}
	ce.clones.New = func() any { return base.Clone() }
	return ce
}

// acquire borrows a worker-private evaluator bound to conditions c;
// pair with release.
func (ce *compiledEval) acquire(c ttmcas.Conditions) *ttmcas.Evaluator {
	ev := ce.clones.Get().(*ttmcas.Evaluator)
	ev.Bind(c)
	return ev
}

func (ce *compiledEval) release(ev *ttmcas.Evaluator) { ce.clones.Put(ev) }

// evalKey is a compiled design's identity: a built-in design name or
// an inline spec's JSON, and the re-target node. Market conditions are not part of it — each request binds its
// own onto a borrowed clone — so a stream of what-if requests on one
// design shares one entry.
type evalKey struct {
	design, spec, node string
}

// evalCache is a small LRU over compiled evaluators keyed by design
// identity (evalKey). The cheap evaluation routes consult it so a
// response-cache miss — a new chip count or new market conditions —
// re-runs only Bind and the ~50 ns kernel, not Compile.
type evalCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[evalKey]*list.Element

	hits, misses uint64
}

type evalCacheEntry struct {
	key evalKey
	ce  *compiledEval
}

// evalStats is a point-in-time snapshot surfaced in /metrics.
type evalStats struct {
	Entries      int
	Hits, Misses uint64
}

// newEvalCache returns an evaluator cache holding up to capacity
// compiled designs; capacity < 0 disables it (every lookup compiles).
func newEvalCache(capacity int) *evalCache {
	if capacity < 0 {
		capacity = 0
	}
	return &evalCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[evalKey]*list.Element),
	}
}

// getOrCompile returns the cached compiled evaluator for key,
// compiling and inserting on miss. Compilation runs outside the lock:
// concurrent first misses on one design may each compile (single-flight
// collapses only identical requests, and these differ in conditions or
// volume), but the first insert wins and later ones adopt it.
func (c *evalCache) getOrCompile(key evalKey, compile func() (*ttmcas.Evaluator, error)) (*compiledEval, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		ce := el.Value.(*evalCacheEntry).ce
		c.mu.Unlock()
		return ce, nil
	}
	c.misses++
	c.mu.Unlock()

	base, err := compile()
	if err != nil {
		return nil, err
	}
	ce := newCompiledEval(base)
	if c.capacity == 0 {
		return ce, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A concurrent miss beat us to the insert; adopt its entry so
		// every caller shares one clone pool.
		c.ll.MoveToFront(el)
		return el.Value.(*evalCacheEntry).ce, nil
	}
	c.items[key] = c.ll.PushFront(&evalCacheEntry{key: key, ce: ce})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*evalCacheEntry).key)
	}
	return ce, nil
}

// Stats snapshots the cache counters.
func (c *evalCache) Stats() evalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return evalStats{Entries: c.ll.Len(), Hits: c.hits, Misses: c.misses}
}

// evaluatorFor resolves the request's compiled design through the
// cache. The caller must have resolved (d, c) from the same request;
// they are only used on a cache miss to compile, and acquire binds the
// request's own conditions onto the clone it lends out.
func (s *Server) evaluatorFor(req *EvalRequest, d ttmcas.Design, c ttmcas.Conditions) (*compiledEval, error) {
	key := evalKey{design: req.Design, node: req.Node}
	if req.Spec != nil {
		sb, err := json.Marshal(req.Spec)
		if err != nil {
			return nil, badRequestf("encoding evaluator key: %v", err)
		}
		key.spec = string(sb)
	}
	return s.evals.getOrCompile(key, func() (*ttmcas.Evaluator, error) {
		// Compile at one chip: the kernel's chips override serves any
		// requested volume from the same compiled evaluator.
		ev, err := ttmcas.Compile(d, 1, c)
		if err != nil {
			return nil, unprocessablef("%v", err)
		}
		return ev, nil
	})
}
