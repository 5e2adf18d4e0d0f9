// Package server is the HTTP serving layer of the framework: a JSON
// REST API over the public ttmcas package, built only on the standard
// library. The supply-chain models are read-mostly and cheap to key —
// a request is fully described by its canonical JSON — so the server
// is built around a keyed response cache with single-flight
// deduplication: concurrent identical evaluations compute once, and
// repeated ones are served from memory — a byte-identical repeat
// through a raw-body alias, before its JSON is even decoded. The cache
// is sharded (per-shard locks keyed by a seeded hash, so concurrent
// hits on different keys never contend) and byte-budgeted (eviction is
// by total cached bytes, not entry count, so one curve response cannot
// silently crowd out a thousand scalar ones). Expensive analyses
// (sensitivity, planning) additionally pass through a bounded worker
// pool so a burst of heavy requests cannot starve the cheap hot path.
package server

import (
	"container/list"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"
)

// shardedCache is a byte-budgeted least-recently-used response cache
// split into power-of-two shards. Each shard owns an independent mutex,
// LRU list and byte budget, so Get/Put on different keys proceed in
// parallel; a key always maps to the same shard via the seeded hash, so
// per-entry operations stay linearizable.
//
// Entries never age: a cached body is a pure function of its request
// and the built-in database, so it stays valid until evicted, and the
// cache never reads the clock.
//
// Besides response bodies under their canonical keys, the cache holds
// raw-body aliases (PutAlias, GetAlias): small entries whose value is
// a canonical key. They share the byte budget and the LRU with the
// bodies.
type shardedCache struct {
	shards   []cacheShard
	mask     uint64
	seed     maphash.Seed
	disabled bool

	evictions atomic.Uint64
}

// cacheShard is one lock domain of the cache: an LRU list over the
// shard's entries plus the running total of the bytes they charge.
type cacheShard struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List
	items  map[string]*list.Element
	_      [24]byte // pad to its own cache line(s); shards sit in one slice
}

type cacheEntry struct {
	key string
	// body is the response body, or for an alias the canonical key.
	body []byte
	// size is what the entry charges against the shard budget: the
	// body's length, or an alias's key plus canonical key.
	size int64
	// cl is the precomputed Content-Length header value, built once at
	// insert so serving a hit allocates nothing for headers.
	cl []string
}

// cacheStats is a point-in-time aggregate across shards, surfaced in
// /metrics.
type cacheStats struct {
	Entries     int
	Bytes       int64
	BudgetBytes int64
	Shards      int
	Evictions   uint64
}

// newShardedCache returns a cache bounded to roughly totalBytes of
// cached response bodies across `shards` shards (rounded up to a power
// of two). totalBytes <= 0 disables caching: every Get misses and Put
// is a no-op.
func newShardedCache(totalBytes int64, shards int) *shardedCache {
	if totalBytes <= 0 {
		return &shardedCache{disabled: true}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := totalBytes / int64(n)
	if per < 1 {
		per = 1
	}
	c := &shardedCache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			budget: per,
			ll:     list.New(),
			items:  make(map[string]*list.Element),
		}
	}
	return c
}

// shard maps a key to its shard with the runtime's seeded hash, which
// runs many bytes per step: hashing the key is most of a hit's lookup.
func (c *shardedCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// shardOf is shard for a key held as bytes (hashed without converting
// to a string).
func (c *shardedCache) shardOf(key []byte) *cacheShard {
	return &c.shards[maphash.Bytes(c.seed, key)&c.mask]
}

// Get returns the cached body for key, with its precomputed
// Content-Length header value, and marks it most recently used. The
// key is a byte slice so a hit — the hot path — performs zero
// allocations: the map lookup through string(key) is resolved by the
// compiler without materializing the string.
func (c *shardedCache) Get(key []byte) (body []byte, cl []string, ok bool) {
	if c.disabled {
		return nil, nil, false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.items[string(key)]
	if !found {
		return nil, nil, false
	}
	e := el.Value.(*cacheEntry)
	s.ll.MoveToFront(el)
	return e.body, e.cl, true
}

// GetAlias resolves a raw-body alias recorded by PutAlias and serves
// its canonical entry through Get, so the body stays the canonical
// entry's: a miss on either lookup is a miss. The LRU and the byte
// budget retire aliases like any other entry.
func (c *shardedCache) GetAlias(raw []byte) (body []byte, cl []string, ok bool) {
	if c.disabled {
		return nil, nil, false
	}
	s := c.shardOf(raw)
	s.mu.Lock()
	el, found := s.items[string(raw)]
	if !found {
		s.mu.Unlock()
		return nil, nil, false
	}
	s.ll.MoveToFront(el)
	canonical := el.Value.(*cacheEntry).body
	s.mu.Unlock()
	return c.Get(canonical)
}

// Put inserts or refreshes key, then evicts least-recently-used entries
// until the shard's charged bytes fit its budget. A body larger than
// the whole shard budget is not cached at all (it would evict
// everything and then exceed the budget alone).
func (c *shardedCache) Put(key string, body []byte) {
	if c.disabled {
		return
	}
	c.put(key, body, int64(len(body)), []string{strconv.Itoa(len(body))})
}

// PutAlias records that the raw key names the entry under canonical,
// charging both keys' bytes against the budget. The server records an
// alias only when canonical has just hit, and GetAlias serves through
// the canonical entry, so an alias can go dead (its target evicted)
// but can never serve anything the canonical key would not.
func (c *shardedCache) PutAlias(raw, canonical string) {
	if c.disabled {
		return
	}
	c.put(raw, []byte(canonical), int64(len(raw)+len(canonical)), nil)
}

func (c *shardedCache) put(key string, body []byte, size int64, cl []string) {
	s := c.shard(key)
	if size > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += size - e.size
		e.body = body
		e.size = size
		e.cl = cl
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&cacheEntry{key: key, body: body, size: size, cl: cl})
		s.bytes += size
	}
	for s.bytes > s.budget {
		oldest := s.ll.Back()
		e := oldest.Value.(*cacheEntry)
		s.ll.Remove(oldest)
		delete(s.items, e.key)
		s.bytes -= e.size
		c.evictions.Add(1)
	}
}

// Len reports the number of cached entries across shards.
func (c *shardedCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates entry/byte counts and the eviction counter across
// shards.
func (c *shardedCache) Stats() cacheStats {
	st := cacheStats{Shards: len(c.shards), Evictions: c.evictions.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.ll.Len()
		st.Bytes += s.bytes
		st.BudgetBytes += s.budget
		s.mu.Unlock()
	}
	return st
}
