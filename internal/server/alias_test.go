package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// respell re-encodes a JSON body with the same meaning in different
// bytes: object keys in reverse order, newlines and tabs between
// tokens, numbers written with an exponent respelled without one
// (10e6 → 10000000) and decimal fractions respelled with one.
func respell(body string) (string, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	var b strings.Builder
	writeRespelled(&b, v)
	return b.String(), nil
}

func writeRespelled(b *strings.Builder, v any) {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		b.WriteString("{\n")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(",\n")
			}
			b.WriteString("\t")
			writeRespelled(b, k)
			b.WriteString(" :  ")
			writeRespelled(b, v[k])
		}
		b.WriteString("\n}")
	case []any:
		b.WriteString("[ ")
		for i, e := range v {
			if i > 0 {
				b.WriteString(" ,\t")
			}
			writeRespelled(b, e)
		}
		b.WriteString(" ]")
	case json.Number:
		s := string(v)
		f, _ := v.Float64()
		switch {
		case strings.ContainsAny(s, "eE"):
			b.WriteString(strconv.FormatFloat(f, 'f', -1, 64))
		case strings.Contains(s, "."):
			b.WriteString(strconv.FormatFloat(f, 'e', -1, 64))
		default:
			b.WriteString(s) // integers may land in int fields
		}
	default:
		enc, _ := json.Marshal(v)
		b.Write(enc)
	}
}

// sameResponse fails the test unless got answers exactly like want:
// status, body, Content-Type and Content-Length.
func sameResponse(t *testing.T, what string, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: answered %d %q, want %d %q", what, got.Code, got.Body, want.Code, want.Body)
	}
	for _, h := range []string{"Content-Type", "Content-Length"} {
		if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
			t.Fatalf("%s: %s %q, want %q", what, h, g, w)
		}
	}
	if got.Code == http.StatusOK && got.Header().Get("Content-Length") != strconv.Itoa(got.Body.Len()) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", what, got.Header().Get("Content-Length"), got.Body.Len())
	}
}

// TestAliasByteIdentity is the oracle of the raw-body alias path. For
// every cached route and every body of the fuzz corpus, the first post
// computes (MISS), the repeat hits the canonical entry and records the
// alias, and the third post is served through the alias; all three
// answer the same bytes. A respelled body with the same meaning answers
// those bytes too, and its own repeat is served through its own alias.
// Error answers (400, 422) are identical on repeat, keep their status
// under respelling, and are never cached or aliased.
func TestAliasByteIdentity(t *testing.T) {
	bodies := append([]string(nil), evalSeeds...)
	for _, tc := range nonFiniteCases {
		bodies = append(bodies, tc.body)
	}
	for _, path := range evalRoutes {
		for _, body := range bodies {
			variant, err := respell(body)
			if err != nil || variant == body {
				t.Fatalf("respell(%q) = %q, %v", body, variant, err)
			}
			s := testServer(t, evalTestConfig)
			m := s.Metrics()
			var first *httptest.ResponseRecorder
			for i, want := range []string{"MISS", "HIT", "HIT"} {
				w := doRec(t, s, "POST", path, body)
				if first == nil {
					first = w
				}
				what := "POST " + path + " " + body + " #" + strconv.Itoa(i+1)
				sameResponse(t, what, first, w)
				if first.Code != http.StatusOK {
					want = ""
				}
				if got := w.Header().Get("X-Cache"); got != want {
					t.Fatalf("%s: X-Cache %q, want %q", what, got, want)
				}
			}
			if first.Code != http.StatusOK {
				if n := s.cache.Stats().Entries; n != 0 || m.aliasHits.Load() != 0 {
					t.Fatalf("POST %s %s: %d error answered, yet %d cache entries and %d alias hits",
						path, body, first.Code, n, m.aliasHits.Load())
				}
				// Decode errors name the first offending field, which the
				// key order decides, so only the status must match.
				if w := doRec(t, s, "POST", path, variant); w.Code != first.Code {
					t.Fatalf("variant POST %s %s: %d, want %d", path, variant, w.Code, first.Code)
				}
				continue
			}
			if m.aliasHits.Load() != 1 || m.cacheHits.Load() != 2 || m.evaluations.Load() != 1 {
				t.Fatalf("POST %s %s ×3: alias hits %d, hits %d, evaluations %d; want 1, 2, 1",
					path, body, m.aliasHits.Load(), m.cacheHits.Load(), m.evaluations.Load())
			}
			for i := 0; i < 2; i++ {
				w := doRec(t, s, "POST", path, variant)
				sameResponse(t, "variant POST "+path+" "+variant, first, w)
				if got := w.Header().Get("X-Cache"); got != "HIT" {
					t.Fatalf("variant POST %s %s: X-Cache %q, want HIT", path, variant, got)
				}
			}
			if m.aliasHits.Load() != 2 || m.evaluations.Load() != 1 {
				t.Fatalf("POST %s: variant ×2 left alias hits %d, evaluations %d; want 2, 1",
					path, m.aliasHits.Load(), m.evaluations.Load())
			}
		}
	}
}

// TestAliasAfterCanonicalEviction: an alias whose canonical entry was
// evicted falls through to the decode path and the request recomputes;
// the recomputed entry revives the alias. The alias is charged its
// record header and its raw and canonical key bytes against the cache
// budget.
func TestAliasAfterCanonicalEviction(t *testing.T) {
	const budget = 8 << 10
	s := testServer(t, Config{CacheBytes: budget, CacheShards: 1})
	m := s.Metrics()
	const route, body = "POST /v1/ttm", `{"design":"a11","node":"28nm","n":1e6}`
	var req EvalRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	canonical, err := CacheKey(route, &req)
	if err != nil {
		t.Fatal(err)
	}
	alias := charge(route+"#"+body, len(canonical))

	first := doRec(t, s, "POST", "/v1/ttm", body)
	doRec(t, s, "POST", "/v1/ttm", body) // records the alias
	entry := charge(canonical, first.Body.Len())
	if st := s.cache.Stats(); st.Entries != 2 || st.Bytes != entry+alias {
		t.Fatalf("cache holds %d entries, %d bytes; want 2, %d", st.Entries, st.Bytes, entry+alias)
	}
	// The third post is served through the alias, so both entries have
	// been hit: a filler that leaves room for the alias alone gives
	// each its second chance, then evicts the older, the canonical
	// entry.
	if w := doRec(t, s, "POST", "/v1/ttm", body); w.Header().Get("X-Cache") != "HIT" || m.aliasHits.Load() != 1 {
		t.Fatalf("third post: X-Cache %q, alias hits %d; want HIT, 1", w.Header().Get("X-Cache"), m.aliasHits.Load())
	}
	s.cache.Put("filler", make([]byte, budget-alias-charge("filler", 0)))
	if _, ok := get(s.cache, canonical); ok {
		t.Fatal("canonical entry survived the filler")
	}

	w := doRec(t, s, "POST", "/v1/ttm", body)
	sameResponse(t, "after eviction", first, w)
	if w.Header().Get("X-Cache") != "MISS" || m.evaluations.Load() != 2 || m.aliasHits.Load() != 1 {
		t.Fatalf("after eviction: X-Cache %q, evaluations %d, alias hits %d; want MISS, 2, 1",
			w.Header().Get("X-Cache"), m.evaluations.Load(), m.aliasHits.Load())
	}
	w = doRec(t, s, "POST", "/v1/ttm", body)
	sameResponse(t, "revived alias", first, w)
	if w.Header().Get("X-Cache") != "HIT" || m.aliasHits.Load() != 2 {
		t.Fatalf("revived alias: X-Cache %q, alias hits %d; want HIT, 2", w.Header().Get("X-Cache"), m.aliasHits.Load())
	}
}

// TestAliasDisabledWithCache: CacheBytes < 0 turns aliases off along
// with the cache.
func TestAliasDisabledWithCache(t *testing.T) {
	s := testServer(t, Config{CacheBytes: -1})
	for i := 0; i < 3; i++ {
		w := doRec(t, s, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":1e6}`)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("post %d: %d %q, want 200 MISS", i+1, w.Code, w.Header().Get("X-Cache"))
		}
	}
	if m := s.Metrics(); m.aliasHits.Load() != 0 || m.evaluations.Load() != 3 || s.cache.Stats().Entries != 0 {
		t.Fatalf("alias hits %d, evaluations %d, entries %d; want 0, 3, 0", m.aliasHits.Load(), m.evaluations.Load(), s.cache.Stats().Entries)
	}
}
