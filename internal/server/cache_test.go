package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// singleShard returns a cache with one shard so LRU ordering is
// globally observable in tests.
func singleShard(budget int64) *shardedCache { return newShardedCache(budget, 1) }

func TestCacheBasics(t *testing.T) {
	c := singleShard(2) // two one-byte bodies fit, a third evicts
	if _, _, ok := c.Get([]byte("a")); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, _, ok := c.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", []byte("3"))
	if _, _, ok := c.Get([]byte("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, _, ok := c.Get([]byte("a")); !ok {
		t.Error("a should have survived")
	}
	if _, _, ok := c.Get([]byte("c")); !ok {
		t.Error("c should be present")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 2 {
		t.Errorf("Stats = %+v, want 1 eviction and 2 bytes", st)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := singleShard(16)
	c.Put("a", []byte("old"))
	c.Put("a", []byte("new!"))
	if v, _, _ := c.Get([]byte("a")); string(v) != "new!" {
		t.Errorf("Get(a) = %q, want new!", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if st := c.Stats(); st.Bytes != 4 {
		t.Errorf("Bytes = %d, want 4 (replacement must not double-count)", st.Bytes)
	}
}

func TestCacheEvictsByBytesNotEntries(t *testing.T) {
	c := singleShard(10)
	c.Put("big", []byte(strings.Repeat("x", 8)))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2")) // 8+1+1 = 10 bytes: everything fits
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// One more byte must push out the least-recently-used entry —
	// which is "big", freeing eight bytes at once.
	c.Put("c", []byte("3"))
	if _, _, ok := c.Get([]byte("big")); ok {
		t.Error("big should have been evicted to fit the budget")
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3 (a, b, c)", c.Len())
	}
}

func TestCacheRejectsOversizedBody(t *testing.T) {
	c := singleShard(4)
	c.Put("a", []byte("1"))
	c.Put("huge", []byte("xxxxxxxx"))
	if _, _, ok := c.Get([]byte("huge")); ok {
		t.Error("a body larger than the shard budget must not be cached")
	}
	if _, _, ok := c.Get([]byte("a")); !ok {
		t.Error("an oversized Put must not evict existing entries")
	}
}

// TestCacheAlias: an alias serves its canonical entry, charges both
// keys' bytes, shares the LRU with bodies, and misses once its target
// is gone.
func TestCacheAlias(t *testing.T) {
	c := singleShard(64)
	c.Put("r|canon", []byte("body"))
	c.PutAlias("r#raw", "r|canon")
	if v, cl, ok := c.GetAlias([]byte("r#raw")); !ok || string(v) != "body" || len(cl) != 1 || cl[0] != "4" {
		t.Fatalf("GetAlias = %q, %v, %v; want the canonical body", v, cl, ok)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 4+5+7 {
		t.Fatalf("Stats = %+v, want 2 entries and %d bytes", st, 4+5+7)
	}
	if _, _, ok := c.GetAlias([]byte("r#other")); ok {
		t.Error("an unknown raw key must miss")
	}
	// Re-recording the alias charges nothing new and leaves the
	// canonical entry least recently used: filling the budget evicts
	// it first, and the alias goes dead.
	c.PutAlias("r#raw", "r|canon")
	if st := c.Stats(); st.Bytes != 4+5+7 {
		t.Fatalf("re-recorded alias: %d bytes, want %d", st.Bytes, 4+5+7)
	}
	c.Put("r|fill", make([]byte, 64-12))
	if _, _, ok := c.Get([]byte("r|canon")); ok {
		t.Fatal("canonical entry should have been evicted")
	}
	if _, _, ok := c.GetAlias([]byte("r#raw")); ok {
		t.Error("an alias must miss once its canonical entry is gone")
	}
	c.Put("r|canon", []byte("body")) // recomputed: the alias serves again
	if v, _, ok := c.GetAlias([]byte("r#raw")); !ok || string(v) != "body" {
		t.Errorf("revived alias = %q, %v", v, ok)
	}

	off := newShardedCache(-1, 1)
	off.PutAlias("r#raw", "r|canon")
	if off.Len() != 0 {
		t.Error("a disabled cache must not store aliases")
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := newShardedCache(budget, 4)
		c.Put("a", []byte("1"))
		if _, _, ok := c.Get([]byte("a")); ok {
			t.Errorf("budget %d: disabled cache must never hit", budget)
		}
		if c.Len() != 0 {
			t.Errorf("budget %d: Len = %d, want 0", budget, c.Len())
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

func TestCacheKeyStableShard(t *testing.T) {
	c := newShardedCache(1<<20, 8)
	for _, key := range []string{"", "a", "POST /v1/ttm|{...}", strings.Repeat("k", 100)} {
		if c.shard(key) != c.shard(key) {
			t.Fatalf("shard(%q) not stable", key)
		}
	}
}

// TestCacheConcurrent hammers parallel Get/Put/evict across shards
// under -race, then checks the byte-budget invariant: the sum of
// cached body lengths never exceeds the configured budget.
func TestCacheConcurrent(t *testing.T) {
	const budget = 1 << 10
	c := newShardedCache(budget, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				body := []byte(strings.Repeat("v", 1+(g*13+i)%40))
				c.Put(key, body)
				if v, _, ok := c.Get([]byte(key)); ok && v[0] != 'v' {
					t.Errorf("Get(%s) = %q", key, v)
				}
				raw := fmt.Sprintf("r#%d", (g*5+i)%64)
				c.PutAlias(raw, key)
				if v, _, ok := c.GetAlias([]byte(raw)); ok && v[0] != 'v' {
					t.Errorf("GetAlias(%s) = %q", raw, v)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > budget {
		t.Errorf("cached bytes %d exceed budget %d", st.Bytes, budget)
	}
	// The tracked byte total must equal what the stored entries charge:
	// body bytes, or an alias's raw plus canonical key bytes.
	var actual int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			actual += int64(len(e.body))
			if strings.HasPrefix(e.key, "r#") {
				actual += int64(len(e.key))
			}
		}
		if s.bytes > s.budget {
			t.Errorf("shard %d: bytes %d exceed shard budget %d", i, s.bytes, s.budget)
		}
		s.mu.Unlock()
	}
	if actual != st.Bytes {
		t.Errorf("tracked bytes %d != actual stored bytes %d", st.Bytes, actual)
	}
}
