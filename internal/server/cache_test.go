package server

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// singleShard returns a cache with one shard so eviction order is
// globally observable in tests.
func singleShard(budget int64) *shardedCache { return newShardedCache(budget, 1) }

// charge is what a record of key and body charges against the budget.
func charge(key string, bodyLen int) int64 { return recordHeader + int64(len(key)+bodyLen) }

// get is Get into a fresh buffer.
func get(c *shardedCache, key string) ([]byte, bool) { return c.Get(nil, []byte(key)) }

// getAlias is GetAlias into a fresh buffer.
func getAlias(c *shardedCache, raw string) ([]byte, bool) { return c.GetAlias(nil, []byte(raw)) }

// withSegments shrinks every shard's arena segments to 1<<shift bytes
// before anything is written, so small tests cross segment edges.
func withSegments(c *shardedCache, shift uint) *shardedCache {
	for i := range c.shards {
		s := &c.shards[i]
		s.segShift = shift
		s.segs = make([][]byte, (s.size+1<<shift-1)>>shift)
	}
	return c
}

// liveRecords walks a shard's ring from tail to head and sums the
// records its index names, checking each record header on the way.
func liveRecords(t *testing.T, s *cacheShard) (entries int, bytes int64) {
	t.Helper()
	for pos := s.tail; pos < s.head; {
		h, klen, vlen, _ := s.header(pos % s.size)
		n := charge("", klen+vlen)
		if cur, ok := s.index[h]; ok && cur == pos {
			entries++
			bytes += n
		}
		pos += n
		if pos > s.head {
			t.Fatalf("record at %d overruns the head %d", pos-n, s.head)
		}
	}
	return entries, bytes
}

func TestCacheBasics(t *testing.T) {
	c := singleShard(2 * charge("a", 1)) // two one-byte bodies fit, a third evicts
	if _, ok := get(c, "a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, ok := get(c, "a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// "a" has been hit, "b" has not; inserting "c" gives "a" its second
	// chance and must evict "b".
	c.Put("c", []byte("3"))
	if _, ok := get(c, "b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := get(c, "a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := get(c, "c"); !ok {
		t.Error("c should be present")
	}
	if c.Stats().Entries != 2 {
		t.Errorf("Len = %d, want 2", c.Stats().Entries)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Reprieves != 1 || st.Bytes != 2*charge("a", 1) {
		t.Errorf("Stats = %+v, want 1 eviction, 1 reprieve and %d bytes", st, 2*charge("a", 1))
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := singleShard(64)
	c.Put("a", []byte("old"))
	c.Put("a", []byte("new!"))
	if v, _ := get(c, "a"); string(v) != "new!" {
		t.Errorf("Get(a) = %q, want new!", v)
	}
	if c.Stats().Entries != 1 {
		t.Errorf("Len = %d, want 1", c.Stats().Entries)
	}
	if st := c.Stats(); st.Bytes != charge("a", 4) {
		t.Errorf("Bytes = %d, want %d (replacement must not double-count)", st.Bytes, charge("a", 4))
	}
}

func TestCacheEvictsByBytesNotEntries(t *testing.T) {
	budget := charge("big", 8) + 2*charge("a", 1)
	c := singleShard(budget)
	c.Put("big", []byte(strings.Repeat("x", 8)))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2")) // exactly the budget: everything fits
	if c.Stats().Entries != 3 {
		t.Fatalf("Len = %d, want 3", c.Stats().Entries)
	}
	// One more record must push out the oldest entry not hit since it
	// was written — which is "big", freeing its whole charge at once.
	c.Put("c", []byte("3"))
	if _, ok := get(c, "big"); ok {
		t.Error("big should have been evicted to fit the budget")
	}
	if c.Stats().Entries != 3 {
		t.Errorf("Len = %d, want 3 (a, b, c)", c.Stats().Entries)
	}
}

func TestCacheRejectsOversizedBody(t *testing.T) {
	c := singleShard(charge("a", 1) + 4)
	c.Put("a", []byte("1"))
	c.Put("huge", []byte("xxxxxxxx"))
	if _, ok := get(c, "huge"); ok {
		t.Error("a record larger than the shard budget must not be cached")
	}
	if _, ok := get(c, "a"); !ok {
		t.Error("an oversized Put must not evict existing entries")
	}
}

// TestCacheAlias: an alias serves its canonical entry, charges its
// header and both keys' bytes, shares the ring with bodies, and misses
// once its target is gone.
func TestCacheAlias(t *testing.T) {
	canon, alias := charge("r|canon", 4), charge("r#raw", len("r|canon"))
	budget := int64(64)
	c := singleShard(budget)
	c.Put("r|canon", []byte("body"))
	c.PutAlias([]byte("r#raw"), []byte("r|canon"))
	if v, ok := getAlias(c, "r#raw"); !ok || string(v) != "body" || contentLength(len(v))[0] != "4" {
		t.Fatalf("GetAlias = %q, %v; want the canonical body", v, ok)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != canon+alias {
		t.Fatalf("Stats = %+v, want 2 entries and %d bytes", st, canon+alias)
	}
	if _, ok := getAlias(c, "r#other"); ok {
		t.Error("an unknown raw key must miss")
	}
	// Re-recording the alias charges nothing new; making room for it
	// gives the canonical entry its second chance, which leaves it the
	// oldest entry with its access bit cleared: filling the budget
	// evicts it first, and the alias goes dead.
	c.PutAlias([]byte("r#raw"), []byte("r|canon"))
	if st := c.Stats(); st.Bytes != canon+alias {
		t.Fatalf("re-recorded alias: %d bytes, want %d", st.Bytes, canon+alias)
	}
	c.Put("r|fill", make([]byte, budget-alias-charge("r|fill", 0)))
	if _, ok := get(c, "r|canon"); ok {
		t.Fatal("canonical entry should have been evicted")
	}
	if _, ok := getAlias(c, "r#raw"); ok {
		t.Error("an alias must miss once its canonical entry is gone")
	}
	c.Put("r|canon", []byte("body")) // recomputed: the alias serves again
	if v, ok := getAlias(c, "r#raw"); !ok || string(v) != "body" {
		t.Errorf("revived alias = %q, %v", v, ok)
	}

	off := newShardedCache(-1, 1)
	off.PutAlias([]byte("r#raw"), []byte("r|canon"))
	if off.Stats().Entries != 0 {
		t.Error("a disabled cache must not store aliases")
	}
}

// TestCacheGetAppends: Get and GetAlias append the body after what dst
// already holds and leave dst as it was on a miss.
func TestCacheGetAppends(t *testing.T) {
	c := singleShard(1 << 10)
	c.Put("r|canon", []byte("body"))
	c.PutAlias([]byte("r#raw"), []byte("r|canon"))
	for _, tc := range []struct {
		get  func(dst, key []byte) ([]byte, bool)
		key  string
		want string
		ok   bool
	}{
		{c.Get, "r|canon", "pre:body", true},
		{c.GetAlias, "r#raw", "pre:body", true},
		{c.Get, "r|none", "pre:", false},
		{c.GetAlias, "r#none", "pre:", false},
	} {
		out, ok := tc.get([]byte("pre:"), []byte(tc.key))
		if ok != tc.ok || string(out) != tc.want {
			t.Errorf("%s: %q, %v; want %q, %v", tc.key, out, ok, tc.want, tc.ok)
		}
	}
}

// TestCacheHashCollision forges an index collision: a second key whose
// hash names the first key's record. Get compares the stored key bytes,
// so the forged key misses instead of serving the other key's body.
func TestCacheHashCollision(t *testing.T) {
	c := singleShard(1 << 10)
	c.Put("a", []byte("body-a"))
	s := &c.shards[0]
	s.index[maphash.String(c.seed, "b")] = s.index[maphash.String(c.seed, "a")]
	if v, ok := get(c, "b"); ok {
		t.Fatalf("Get(b) = %q through a forged collision, want a miss", v)
	}
	if v, ok := get(c, "a"); !ok || string(v) != "body-a" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
}

// TestCacheHoldsNoPointers fills the default cache with 100k entries
// and checks that the heap gains almost no objects: the arena segments
// and the index's tables, never an object per entry, so a GC cycle has
// nothing per entry to mark.
func TestCacheHoldsNoPointers(t *testing.T) {
	const entries = 100_000
	c := newShardedCache(64<<20, 16)
	body := make([]byte, 120)
	key := []byte("POST /v1/ttm|{\"design\":\"a11\",\"n\":")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < entries; i++ {
		k := strconv.AppendInt(key, int64(i), 10)
		c.PutAlias(k, body)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := c.Stats().Entries; n != entries {
		t.Fatalf("Len = %d, want %d", n, entries)
	}
	if grown := int64(after.HeapObjects) - int64(before.HeapObjects); grown >= entries/100 {
		t.Errorf("%d entries grew the heap by %d objects, want under %d", entries, grown, entries/100)
	}
	runtime.KeepAlive(c)
}

func TestContentLengthInterned(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 420, 65535, 65536, 1 << 20} {
		if got := contentLength(n); len(got) != 1 || got[0] != strconv.Itoa(n) {
			t.Errorf("contentLength(%d) = %q", n, got)
		}
	}
	if a := testing.AllocsPerRun(100, func() { contentLength(420) }); a != 0 {
		t.Errorf("an interned Content-Length allocates %v times", a)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := newShardedCache(budget, 4)
		c.Put("a", []byte("1"))
		if _, ok := get(c, "a"); ok {
			t.Errorf("budget %d: disabled cache must never hit", budget)
		}
		if c.Stats().Entries != 0 {
			t.Errorf("budget %d: Len = %d, want 0", budget, c.Stats().Entries)
		}
	}
}

func TestCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		c := newShardedCache(1<<20, tc.ask)
		if got := len(c.shards); got != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestCacheKeyStableShard: a key maps to one shard whether it arrives
// as a string (Put) or as bytes (Get, PutAlias).
func TestCacheKeyStableShard(t *testing.T) {
	c := newShardedCache(1<<20, 8)
	for _, key := range []string{"", "a", "POST /v1/ttm|{...}", strings.Repeat("k", 100)} {
		if c.shardOf(maphash.String(c.seed, key)) != c.shardOf(maphash.Bytes(c.seed, []byte(key))) {
			t.Fatalf("shard of %q differs between string and bytes", key)
		}
	}
}

// TestCacheConcurrent hammers parallel Get/Put/evict across shards
// under -race, then checks the byte-budget invariant: the charge of the
// cached records never exceeds the configured budget, and the tracked
// totals equal what a walk of each ring finds.
func TestCacheConcurrent(t *testing.T) {
	const budget = 1 << 10
	c := newShardedCache(budget, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				body := []byte(strings.Repeat("v", 1+(g*13+i)%40))
				c.Put(key, body)
				v, ok := c.Get(buf[:0], []byte(key))
				if ok && v[0] != 'v' {
					t.Errorf("Get(%s) = %q", key, v)
				}
				raw := fmt.Sprintf("r#%d", (g*5+i)%64)
				c.PutAlias([]byte(raw), []byte(key))
				if v, ok = c.GetAlias(v[:0], []byte(raw)); ok && v[0] != 'v' {
					t.Errorf("GetAlias(%s) = %q", raw, v)
				}
				buf = v
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("cached bytes %d exceed budget %d", st.Bytes, budget)
	}
	var entries int
	var actual int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n, b := liveRecords(t, s)
		entries += n
		actual += b
		if s.bytes > s.size || s.head-s.tail > s.size {
			t.Errorf("shard %d: %d live bytes, %d ring bytes in use, over its budget %d", i, s.bytes, s.head-s.tail, s.size)
		}
		s.mu.Unlock()
	}
	if actual != st.Bytes || entries != st.Entries {
		t.Errorf("tracked %d entries, %d bytes; the rings hold %d, %d", st.Entries, st.Bytes, entries, actual)
	}
}

// refCache is the reference of the cache's policy on one shard: a
// queue of records in write order, each charged its header, key and
// body, where a replaced record stays queued, dead, until the tail
// passes it, and an evicted record hit since it was written is
// requeued once with its access flag cleared.
type refCache struct {
	size, used, bytes    int64
	queue                []*refRecord
	index                map[string]*refRecord
	evictions, reprieves uint64
}

type refRecord struct {
	key            string
	body           []byte
	size           int64
	live, accessed bool
}

func (r *refCache) put(key string, body []byte) {
	n := charge(key, len(body))
	if n > r.size {
		return
	}
	if old := r.index[key]; old != nil {
		old.live = false
		delete(r.index, key)
		r.bytes -= old.size
	}
	for r.size-r.used < n {
		e := r.queue[0]
		r.queue = r.queue[1:]
		switch {
		case !e.live:
			r.used -= e.size
		case e.accessed:
			e.accessed = false
			r.queue = append(r.queue, e)
			r.reprieves++
		default:
			e.live = false
			delete(r.index, e.key)
			r.used -= e.size
			r.bytes -= e.size
			r.evictions++
		}
	}
	e := &refRecord{key: key, body: append([]byte(nil), body...), size: n, live: true}
	r.queue = append(r.queue, e)
	r.index[key] = e
	r.used += n
	r.bytes += n
}

func (r *refCache) get(key string) ([]byte, bool) {
	e := r.index[key]
	if e == nil {
		return nil, false
	}
	e.accessed = true
	return e.body, true
}

func (r *refCache) getAlias(raw string) ([]byte, bool) {
	canonical, ok := r.get(raw)
	if !ok {
		return nil, false
	}
	return r.get(string(canonical))
}

// cacheCoverage records which ring situations a run of cache
// operations reached.
type cacheCoverage struct {
	wrapped, spanned, replaced, deadAlias bool
}

func fuzzCanonical(i byte) string {
	return "c|" + strings.Repeat("k", int(i%8)*3) + strconv.Itoa(int(i%8))
}

func fuzzRaw(i byte) string {
	return "r#" + strings.Repeat("x", int(i%8)*5) + strconv.Itoa(int(i%8))
}

// runCacheOps decodes data into cache operations on a one-shard cache
// and the reference, failing t on the first divergence. data[0] sets
// the budget (96 to 606 bytes), data[1] the segment size (16 to 128
// bytes); each following triple (op|key<<2, arg, fill) is a Put of
// canonical key `key` with an arg%80-byte body of bytes fill, fill+1,
// …; a PutAlias of raw key `key` to canonical key `arg`; a Get of a
// canonical key; or a GetAlias of a raw key.
func runCacheOps(t *testing.T, data []byte) cacheCoverage {
	var cov cacheCoverage
	if len(data) < 2 {
		return cov
	}
	budget := 96 + 2*int64(data[0])
	shift := 4 + uint(data[1]%4)
	c := withSegments(singleShard(budget), shift)
	s := &c.shards[0]
	ref := &refCache{size: budget, index: make(map[string]*refRecord)}
	put := make(map[string]bool) // canonical keys ever put
	var buf []byte
	for i, op := 2, 0; i+3 <= len(data); i, op = i+3, op+1 {
		code, key, arg, fill := data[i]%4, data[i]>>2, data[i+1], data[i+2]
		var got, want []byte
		var gotOK, wantOK bool
		switch code {
		case 0:
			body := make([]byte, arg%80)
			for j := range body {
				body[j] = fill + byte(j)
			}
			k := fuzzCanonical(key)
			if e := ref.index[k]; e != nil && charge(k, len(body)) <= budget {
				cov.replaced = true
			}
			c.Put(k, body)
			ref.put(k, body)
			put[k] = true
			if pos, ok := s.index[maphash.String(c.seed, k)]; ok {
				if p := pos % s.size; p>>shift != (p+charge(k, len(body))-1)%s.size>>shift {
					cov.spanned = true
				}
			}
		case 1:
			c.PutAlias([]byte(fuzzRaw(key)), []byte(fuzzCanonical(arg)))
			ref.put(fuzzRaw(key), []byte(fuzzCanonical(arg)))
		case 2:
			got, gotOK = c.Get(buf[:0], []byte(fuzzCanonical(key)))
			want, wantOK = ref.get(fuzzCanonical(key))
		case 3:
			if e := ref.index[fuzzRaw(key)]; e != nil && put[string(e.body)] && ref.index[string(e.body)] == nil {
				cov.deadAlias = true
			}
			got, gotOK = c.GetAlias(buf[:0], []byte(fuzzRaw(key)))
			want, wantOK = ref.getAlias(fuzzRaw(key))
		}
		buf = got
		if gotOK != wantOK || string(got) != string(want) {
			t.Fatalf("op %d (%d on key %d): cache %q, %v; reference %q, %v", op, code, key, got, gotOK, want, wantOK)
		}
		st := c.Stats()
		if st.Entries != len(ref.index) || st.Bytes != ref.bytes || st.Evictions != ref.evictions || st.Reprieves != ref.reprieves {
			t.Fatalf("op %d: cache %+v; reference %d entries, %d bytes, %d evictions, %d reprieves",
				op, st, len(ref.index), ref.bytes, ref.evictions, ref.reprieves)
		}
		if s.head-s.tail != ref.used {
			t.Fatalf("op %d: ring holds %d bytes, reference %d", op, s.head-s.tail, ref.used)
		}
		if s.head > s.size {
			cov.wrapped = true
		}
	}
	return cov
}

// cacheSeeds are seeded random operation sequences for
// FuzzCacheMatchesReference.
func cacheSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		b := make([]byte, 2+3*(40+40*i))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzCacheMatchesReference holds the cache to refCache on one shard
// over arbitrary sequences of Put, PutAlias, Get and GetAlias: the same
// hits with the same bodies, the same entry and byte counts, the same
// evictions and reprieves, and the same ring occupancy.
//
//	go test -run '^$' -fuzz FuzzCacheMatchesReference -fuzztime 60s ./internal/server
func FuzzCacheMatchesReference(f *testing.F) {
	for _, seed := range cacheSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runCacheOps(t, data) })
}

// TestCacheSeedsCover: the fuzz seeds reach ring wrap-around, records
// spanning segment edges, re-Puts of live keys and aliases whose
// canonical entry was evicted.
func TestCacheSeedsCover(t *testing.T) {
	var all cacheCoverage
	for _, seed := range cacheSeeds() {
		cov := runCacheOps(t, seed)
		all.wrapped = all.wrapped || cov.wrapped
		all.spanned = all.spanned || cov.spanned
		all.replaced = all.replaced || cov.replaced
		all.deadAlias = all.deadAlias || cov.deadAlias
	}
	if !all.wrapped || !all.spanned || !all.replaced || !all.deadAlias {
		t.Errorf("seeds cover %+v, want every case", all)
	}
}
