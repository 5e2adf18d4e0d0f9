package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"ttmcas"
)

// facadeCost is the /v1/cost body ttmcas.Cost implies for n chips of
// priced, reported under the requested design's name.
func facadeCost(t *testing.T, name string, priced ttmcas.Design, n float64) CostResponse {
	t.Helper()
	b, err := ttmcas.Cost(priced, n)
	if err != nil {
		t.Fatal(err)
	}
	return CostResponse{
		Design: name, Chips: n,
		MaskNREUSD: float64(b.MaskNRE), TapeoutNREUSD: float64(b.TapeoutNRE),
		WafersUSD: float64(b.Wafers), WaferCount: float64(b.WaferCount),
		PackagingUSD: float64(b.Packaging), TotalUSD: float64(b.Total),
		PerChipUSD: float64(b.PerChip),
	}
}

func decodeCost(t *testing.T, what string, body []byte) CostResponse {
	t.Helper()
	var got CostResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return got
}

// TestCostRouteMatchesFacade is the /v1/cost oracle: for every
// registered design, the miss, the canonical hit and the raw-alias hit
// all answer ttmcas.Cost's breakdown, bit for bit in every field. The
// route reads cost off the cached compiled evaluator: on a key a TTM
// request already compiled, the cost miss is an evaluator-cache hit and
// compiles nothing.
func TestCostRouteMatchesFacade(t *testing.T) {
	const n = 10e6
	for _, name := range ttmcas.DesignNames() {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := facadeCost(t, d.Name, d, n)

		s := testServer(t, Config{})
		// The TTM request compiles the key even where it answers 422
		// (a11's native 10 nm has no capacity).
		doRec(t, s, "POST", "/v1/ttm", fmt.Sprintf(`{"design":%q,"n":1e6}`, name))
		warm := s.evals.Stats()
		if warm.Misses != 1 || warm.Entries != 1 {
			t.Fatalf("%s: evalcache after warming = %+v, want 1 miss, 1 entry", name, warm)
		}

		body := fmt.Sprintf(`{"design":%q,"n":%g}`, name, n)
		for i, xcache := range []string{"MISS", "HIT", "HIT"} {
			w := doRec(t, s, "POST", "/v1/cost", body)
			what := fmt.Sprintf("%s: cost #%d", name, i+1)
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != xcache {
				t.Fatalf("%s: %d X-Cache %q, want 200 %s: %s", what, w.Code, w.Header().Get("X-Cache"), xcache, w.Body)
			}
			if got := decodeCost(t, what, w.Body.Bytes()); got != want {
				t.Fatalf("%s: answered %+v, want %+v", what, got, want)
			}
		}
		if m := s.Metrics(); m.aliasHits.Load() != 1 || m.cacheHits.Load() != 2 {
			t.Errorf("%s: alias hits %d, cache hits %d; want 1, 2", name, m.aliasHits.Load(), m.cacheHits.Load())
		}
		if st := s.evals.Stats(); st.Misses != warm.Misses || st.Hits != warm.Hits+1 {
			t.Errorf("%s: evalcache %+v after the cost requests, %+v before; want one hit and no compile",
				name, st, warm)
		}
	}
}

// TestCostRouteReadsCachedEvaluator: the cost route prices the compiled
// design the evaluator cache holds for the request's key and compiles
// nothing itself. A key primed with another design's evaluator answers
// that design's cost; a route that compiled the request's design would
// answer its own.
func TestCostRouteReadsCachedEvaluator(t *testing.T) {
	s := testServer(t, Config{})
	key := evalKey{design: "zen2"}
	if _, err := s.evals.getOrCompile(key, func() (*ttmcas.Evaluator, error) {
		return ttmcas.Compile(ttmcas.ChipA(), 1, ttmcas.Conditions{})
	}); err != nil {
		t.Fatal(err)
	}
	w := doRec(t, s, "POST", "/v1/cost", `{"design":"zen2","n":1e7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cost: %d %s", w.Code, w.Body)
	}
	want := facadeCost(t, ttmcas.Zen2().Name, ttmcas.ChipA(), 1e7)
	if got := decodeCost(t, "cost", w.Body.Bytes()); got != want {
		t.Fatalf("cost on a primed key answered %+v, want the cached design's %+v", got, want)
	}
}
