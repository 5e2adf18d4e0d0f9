// Package server is the HTTP serving layer of the framework: a JSON
// REST API over the public ttmcas package, built only on the standard
// library. The supply-chain models are read-mostly and cheap to key —
// a request is fully described by its canonical JSON — so the server
// is built around a keyed response cache with single-flight
// deduplication: concurrent identical evaluations compute once, and
// repeated ones are served from memory — a byte-identical repeat
// through a raw-body alias, before its JSON is even decoded. The cache
// is sharded (per-shard locks keyed by a seeded hash, so concurrent
// hits on different keys never contend) and byte-budgeted: each entry
// is charged its record header, key and body, the memory the cache
// actually holds, so one curve response cannot silently crowd out a
// thousand scalar ones. Entries live in pointer-free byte arenas the
// garbage collector never scans, and eviction is second-chance FIFO:
// the oldest entry is dropped unless it was hit since it was written.
// Expensive analyses (sensitivity, planning) additionally pass through
// a bounded worker pool so a burst of heavy requests cannot starve the
// cheap hot path.
package server

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// segmentShift sizes the arena segments: 64 KiB each, allocated as the
// ring first writes into them (see grow), so an idle or small cache
// holds only what it has used.
const segmentShift = 16

// A record is stored in the ring as header | key | body. The header is
// the key's 64-bit hash, the key length and the body length, little
// endian; the key length's top bit is the access bit, set by a hit and
// cleared when eviction gives the record its second chance.
const (
	recordHeader = 16
	accessBit    = 1 << 31
	accessByte   = 11 // the header byte holding the access bit
)

// shardedCache is a byte-budgeted response cache split into
// power-of-two shards. Each shard owns an independent mutex, ring and
// byte budget, so Get/Put on different keys proceed in parallel; a key
// always maps to the same shard via the seeded hash, so per-entry
// operations stay linearizable.
//
// Nothing a shard holds per entry contains a Go pointer: records are
// bytes in the shard's ring of segments, and the index maps the key's
// hash to the record's ring position. The collector never scans either,
// so a full cache costs a GC cycle almost nothing. A hit compares the
// stored key bytes, so a hash collision is a miss, and copies the body
// out under the shard lock.
//
// Entries never age: a cached body is a pure function of its request
// and the built-in database, so it stays valid until evicted, and the
// cache never reads the clock.
//
// Besides response bodies under their canonical keys, the cache holds
// raw-body aliases (PutAlias, GetAlias): records whose body is a
// canonical key. They share the byte budget and the ring with the
// bodies.
type shardedCache struct {
	shards   []cacheShard
	mask     uint64
	seed     maphash.Seed
	disabled bool

	evictions atomic.Uint64
	reprieves atomic.Uint64
}

// cacheShard is one lock domain of the cache: a ring of records written
// at head and retired at tail, and the index of its live records.
// Positions are absolute byte counts since the shard was made, so a
// record's position names it uniquely; its offset in the ring is the
// position modulo the ring's size. A record whose index entry is gone
// or points elsewhere (replaced, or lost to a hash collision) is dead:
// it occupies the ring until the tail passes it but is no longer
// charged.
type cacheShard struct {
	mu       sync.Mutex
	index    map[uint64]int64
	segs     [][]byte
	segShift uint
	size     int64 // ring bytes: the shard's budget
	head     int64 // position of the next record
	tail     int64 // position of the oldest record
	bytes    int64 // bytes of the live records
	entries  int
	_        [40]byte // pad to its own cache line(s); shards sit in one slice
}

// cacheStats is a point-in-time aggregate across shards, surfaced in
// /metrics.
type cacheStats struct {
	Entries     int
	Bytes       int64
	BudgetBytes int64
	Shards      int
	Evictions   uint64
	Reprieves   uint64
}

// newShardedCache returns a cache bounded to roughly totalBytes of
// records (header, key and body) across `shards` shards (rounded up to
// a power of two). totalBytes <= 0 disables caching: every Get misses
// and Put is a no-op.
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
			index:    make(map[uint64]int64),
			segs:     make([][]byte, (per+1<<segmentShift-1)>>segmentShift),
			segShift: segmentShift,
			size:     per,
		}
	}
	return c
}

// shardOf maps a key's hash to its shard. The runtime's seeded hash
// runs many bytes per step: hashing the key is most of a hit's lookup,
// and the same hash then keys the shard's index.
func (c *shardedCache) shardOf(h uint64) *cacheShard {
	return &c.shards[h&c.mask]
}

// Get appends the body cached under key to dst and marks the entry
// accessed, so eviction gives it a second chance. The body is copied
// under the shard lock, so dst is the caller's to keep; reusing it, a
// hit allocates nothing. On a miss Get returns dst unchanged.
func (c *shardedCache) Get(dst, key []byte) ([]byte, bool) {
	if c.disabled {
		return dst, false
	}
	h := maphash.Bytes(c.seed, key)
	s := c.shardOf(h)
	s.mu.Lock()
	out, ok := s.get(dst, h, key)
	s.mu.Unlock()
	return out, ok
}

// GetAlias resolves a raw-body alias recorded by PutAlias and serves
// its canonical entry through Get, so the body stays the canonical
// entry's: a miss on either lookup is a miss. The canonical key is
// read into dst's spare room and the body then moved down over it, so
// one buffer serves both lookups. The budget retires aliases like any
// other entry.
func (c *shardedCache) GetAlias(dst, raw []byte) ([]byte, bool) {
	if c.disabled {
		return dst, false
	}
	h := maphash.Bytes(c.seed, raw)
	s := c.shardOf(h)
	s.mu.Lock()
	out, ok := s.get(dst, h, raw)
	s.mu.Unlock()
	if !ok {
		return dst, false
	}
	start := len(dst)
	canonical := out[start:]
	out, ok = c.Get(out, canonical)
	if !ok {
		return out[:start], false
	}
	n := copy(out[start:], out[start+len(canonical):])
	return out[:start+n], true
}

// Put inserts or replaces key, evicting until the shard's ring has room
// for the record. A record larger than the whole shard budget is not
// cached at all (it would evict everything and then exceed the budget
// alone). The body is copied into the ring, so the caller keeps it.
func (c *shardedCache) Put(key string, body []byte) {
	if c.disabled {
		return
	}
	h := maphash.String(c.seed, key)
	put(c, c.shardOf(h), h, key, body)
}

// PutAlias records that the raw key names the entry under canonical,
// charging the header and both keys' bytes against the budget. The
// server records an alias only when canonical has just hit, and
// GetAlias serves through the canonical entry, so an alias can go dead
// (its target evicted) but can never serve anything the canonical key
// would not.
func (c *shardedCache) PutAlias(raw, canonical []byte) {
	if c.disabled {
		return
	}
	h := maphash.Bytes(c.seed, raw)
	put(c, c.shardOf(h), h, raw, canonical)
}

// put writes the record key → body at the shard's head. A live record
// under the same hash — the same key, or one colliding with it — is
// retired first, so the index keeps one record per hash.
func put[K string | []byte](c *shardedCache, s *cacheShard, h uint64, key K, body []byte) {
	n := recordHeader + int64(len(key)) + int64(len(body))
	if n > s.size || len(key) >= accessBit || len(body) > math.MaxUint32 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pos, ok := s.index[h]; ok {
		_, klen, vlen, _ := s.header(pos % s.size)
		delete(s.index, h)
		s.bytes -= recordHeader + int64(klen) + int64(vlen)
		s.entries--
	}
	for s.size-(s.head-s.tail) < n {
		c.retireTail(s)
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], h)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(body)))
	p := ringWrite(s, s.head%s.size, hdr[:])
	p = ringWrite(s, p, key)
	ringWrite(s, p, body)
	s.index[h] = s.head
	s.head += n
	s.bytes += n
	s.entries++
}

// retireTail retires the oldest record. A dead one just frees its
// room. A live one hit since it was written (or since its last
// reprieve) is moved to the head with its access bit cleared, once; a
// live one not hit since is evicted.
func (c *shardedCache) retireTail(s *cacheShard) {
	pos := s.tail
	h, klen, vlen, accessed := s.header(pos % s.size)
	n := recordHeader + int64(klen) + int64(vlen)
	if cur, ok := s.index[h]; ok && cur == pos {
		if accessed {
			s.move(pos%s.size, s.head%s.size, n)
			s.index[h] = s.head
			s.head += n
			c.reprieves.Add(1)
		} else {
			delete(s.index, h)
			s.bytes -= n
			s.entries--
			c.evictions.Add(1)
		}
	}
	s.tail += n
}

// get appends the body of the live record for key (hash h) to dst.
// The caller holds the lock.
func (s *cacheShard) get(dst []byte, h uint64, key []byte) ([]byte, bool) {
	pos, ok := s.index[h]
	if !ok {
		return dst, false
	}
	p := pos % s.size
	_, klen, vlen, accessed := s.header(p)
	if klen != len(key) {
		return dst, false
	}
	q := s.advance(p, recordHeader)
	if !s.equal(q, key) {
		return dst, false
	}
	if !accessed {
		b := s.span(s.advance(p, accessByte), 1)
		b[0] |= accessBit >> 24
	}
	return s.appendFrom(dst, s.advance(q, int64(klen)), vlen), true
}

// header decodes the record header at ring offset p.
func (s *cacheShard) header(p int64) (h uint64, klen, vlen int, accessed bool) {
	hdr := s.span(p, recordHeader)
	if len(hdr) < recordHeader {
		var buf [recordHeader]byte
		hdr = s.appendFrom(buf[:0], p, recordHeader)
	}
	kw := binary.LittleEndian.Uint32(hdr[8:])
	return binary.LittleEndian.Uint64(hdr[0:]), int(kw &^ accessBit), int(binary.LittleEndian.Uint32(hdr[12:])), kw&accessBit != 0
}

// advance returns the ring offset n bytes past offset p.
func (s *cacheShard) advance(p, n int64) int64 {
	p += n
	if p >= s.size {
		p %= s.size
	}
	return p
}

// span returns the contiguous ring bytes from offset p to the end of
// what its segment has allocated, at most n of them, growing the
// segment when a write first reaches past that.
func (s *cacheShard) span(p int64, n int) []byte {
	i := p >> s.segShift
	off := p - i<<s.segShift
	seg := s.segs[i]
	if off >= int64(len(seg)) {
		seg = s.grow(i)
	}
	b := seg[off:]
	if len(b) > n {
		b = b[:n]
	}
	return b
}

// grow reallocates segment i to reach past its allocated length. A
// segment starts at a sixteenth of its size and doubles, copying, up to
// the whole: the head writes each segment front to back, so a write
// reaches past a segment's allocation only at its end, only on the
// ring's first lap, and a cache that has taken a few entries per shard
// holds a few KiB per shard, not whole segments.
func (s *cacheShard) grow(i int64) []byte {
	full := min(int64(1)<<s.segShift, s.size-i<<s.segShift)
	n := max(2*int64(len(s.segs[i])), int64(1)<<s.segShift>>4)
	seg := make([]byte, min(n, full))
	copy(seg, s.segs[i])
	s.segs[i] = seg
	return seg
}

// ringWrite copies src into the shard's ring at offset p and returns
// the offset after it.
func ringWrite[K string | []byte](s *cacheShard, p int64, src K) int64 {
	for len(src) > 0 {
		n := copy(s.span(p, len(src)), src)
		src = src[n:]
		p = s.advance(p, int64(n))
	}
	return p
}

// appendFrom appends the n ring bytes at offset p to dst.
func (s *cacheShard) appendFrom(dst []byte, p int64, n int) []byte {
	for n > 0 {
		b := s.span(p, n)
		dst = append(dst, b...)
		n -= len(b)
		p = s.advance(p, int64(len(b)))
	}
	return dst
}

// equal reports whether the ring bytes at offset p start with key.
func (s *cacheShard) equal(p int64, key []byte) bool {
	for len(key) > 0 {
		b := s.span(p, len(key))
		if !bytes.Equal(b, key[:len(b)]) {
			return false
		}
		key = key[len(b):]
		p = s.advance(p, int64(len(b)))
	}
	return true
}

// move copies the n-byte record at ring offset src to offset dst with
// its access bit cleared. The destination is the head, which trails
// the source by the ring's free bytes, so the two may overlap; copying
// forward in chunks that never cross a segment edge on either side is
// safe, since each chunk reads only bytes no earlier chunk has written
// over and copy itself handles an overlap within one segment.
func (s *cacheShard) move(src, dst, n int64) {
	b := s.span(s.advance(src, accessByte), 1)
	b[0] &^= accessBit >> 24
	if src == dst {
		return
	}
	for n > 0 {
		w := s.span(dst, int(n))
		k := copy(w, s.span(src, len(w)))
		n -= int64(k)
		src, dst = s.advance(src, int64(k)), s.advance(dst, int64(k))
	}
}

// Stats aggregates entry/byte counts and the eviction and reprieve
// counters across shards.
func (c *shardedCache) Stats() cacheStats {
	st := cacheStats{Shards: len(c.shards), Evictions: c.evictions.Load(), Reprieves: c.reprieves.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.entries
		st.Bytes += s.bytes
		st.BudgetBytes += s.size
		s.mu.Unlock()
	}
	return st
}

// contentLengths interns Content-Length header values by body length,
// in blocks of 256 lengths made on first use, so serving a hit
// allocates nothing for headers. Lookups are lock-free; two goroutines
// racing to intern one length store equal values.
var contentLengths [256]atomic.Pointer[clBlock]

type clBlock [256]atomic.Pointer[[]string]

// contentLength returns the Content-Length header value for an n-byte
// body: interned below 64 KiB, made afresh above.
func contentLength(n int) []string {
	if n >= len(contentLengths)*len(clBlock{}) {
		return []string{strconv.Itoa(n)}
	}
	blk := contentLengths[n>>8].Load()
	if blk == nil {
		contentLengths[n>>8].CompareAndSwap(nil, new(clBlock))
		blk = contentLengths[n>>8].Load()
	}
	if v := blk[n&255].Load(); v != nil {
		return *v
	}
	v := []string{strconv.Itoa(n)}
	blk[n&255].Store(&v)
	return v
}
