package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, spec string, seed int64) *Injector {
	t.Helper()
	inj, err := Parse(spec, seed)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return inj
}

// okServer answers every request 200 and counts what reached it.
func okServer(t *testing.T) (srv *httptest.Server, host string, served *int) {
	t.Helper()
	served = new(int)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		*served++
		io.WriteString(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv, strings.TrimPrefix(srv.URL, "http://"), served
}

func get(t *testing.T, rt http.RoundTripper, url string) error {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if resp != nil {
		resp.Body.Close()
	}
	return err
}

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "   ", ";;", " ; \t"} {
		inj, err := Parse(spec, 1)
		if err != nil || inj != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, inj, err)
		}
		if inj.Enabled() {
			t.Fatal("nil injector reports enabled")
		}
		if err := inj.Inject("/v1/ttm"); err != nil {
			t.Fatalf("nil injector injected: %v", err)
		}
	}
}

func mustReject(t *testing.T, specs ...string) {
	t.Helper()
	for _, spec := range specs {
		if inj, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) = %v, want error", spec, inj)
		}
	}
}

// TestParseErrors: malformed fields, route rules and rules that mix
// layers are rejected.
func TestParseErrors(t *testing.T) {
	mustReject(t,
		"latency",                           // not key=value
		"bogus=1",                           // unknown field
		"error-rate=1.5",                    // rate out of range
		"error-rate=x",                      // not a number
		"error-rate=NaN",                    // not a probability
		"latency=abc",                       // bad duration
		"latency-rate=0.5",                  // rate without latency, injects nothing
		"latency-rate=0.5 panics=1",         // rate without latency
		"panics=-1",                         // negative budget
		"panics=x",                          // not an integer
		"route=/v1/ttm latency=-5ms",        // negative latency
		"route=/v1/ttm",                     // route rule injects nothing
		"route=/v1/ttm to=b:2 error-rate=1", // mixes layers
		"route=/v1/ttm partition=a,b",       // mixes layers
		"reset-rate=0.1",                    // reset-rate is link-only
		"route=* reset-rate=0.1",            // reset-rate is link-only
		"error-rate=1; bogus=1",             // one bad rule fails the spec
	)
}

// TestParseLinkErrors: malformed link rules and partitions are
// rejected, and a blank spec builds no injector.
func TestParseLinkErrors(t *testing.T) {
	mustReject(t,
		"nonsense",                   // not key=value
		"to=",                        // empty value
		"delay=5ms",                  // an old link field, now latency
		"to=* error-rate=2",          // rate out of range
		"to=* error-rate=-0.1",       // rate out of range
		"to=* error-rate=x",          // not a number
		"to=* latency=-5ms",          // negative latency
		"to=* latency=fast",          // bad duration
		"partition=a",                // no pair
		"partition=a,",               // empty endpoint
		"partition=->b",              // empty endpoint
		"from=a to=b",                // link rule injects nothing
		"partition=a,b error-rate=1", // faults on a partition
		"partition=a,b from=a",       // scope on a partition
		"to=b:2 panics=1",            // panics is route-only
		"to=* frob=1",                // unknown field
	)
	if inj, err := Parse("  ", 1); inj != nil || err != nil {
		t.Errorf("Parse(blank) = %v, %v; want nil, nil", inj, err)
	}
}

func TestParseSpecGrammar(t *testing.T) {
	inj := mustParse(t, "partition=http://a:1,b:2; partition=c:3->d:4; from=a:1 to=b:2 error-rate=0.3 latency=50ms reset-rate=0.1;"+
		" route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1; error-rate=0.5", 1)
	if len(inj.rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(inj.rules))
	}
	want := []Rule{
		{From: "*", To: "*", PartitionA: "a:1", PartitionB: "b:2"},
		{From: "*", To: "*", PartitionA: "c:3", PartitionB: "d:4", Directional: true},
		{From: "a:1", To: "b:2", ErrorRate: 0.3, Latency: 50 * time.Millisecond, LatencyRate: 1, ResetRate: 0.1},
		{Route: "/v1/ttm", Latency: 50 * time.Millisecond, LatencyRate: 0.02, ErrorRate: 0.05, Panics: 1},
		{Route: "*", ErrorRate: 0.5},
	}
	for i, w := range want {
		if got := inj.rules[i].Rule; got != w {
			t.Errorf("rule %d = %+v, want %+v", i, got, w)
		}
	}
	for i, link := range []bool{true, true, true, false, false} {
		if inj.rules[i].Link() != link {
			t.Errorf("rule %d Link() = %t, want %t", i, !link, link)
		}
	}

	// An old link spec translates field for field: delay -> latency,
	// delay-rate -> latency-rate, drop-rate -> error-rate, with to=*
	// scoping an unscoped rule to the link layer.
	tr := mustParse(t, "to=* latency=50ms latency-rate=0.5 error-rate=0.3", 1)
	if got, w := tr.rules[0].Rule, (Rule{From: "*", To: "*", Latency: 50 * time.Millisecond, LatencyRate: 0.5, ErrorRate: 0.3}); got != w {
		t.Fatalf("translated rule = %+v, want %+v", got, w)
	}
}

func TestErrorRateOne(t *testing.T) {
	inj := mustParse(t, "route=/v1/ttm error-rate=1", 1)
	if err := inj.Inject("/v1/ttm"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
	if err := inj.Inject("/v1/cas"); err != nil {
		t.Fatalf("unmatched route injected: %v", err)
	}
	if st := inj.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

func TestErrorRateIsApproximate(t *testing.T) {
	inj := mustParse(t, "error-rate=0.25", 42)
	failures := 0
	for i := 0; i < 4000; i++ {
		if inj.Inject("/any") != nil {
			failures++
		}
	}
	if failures < 800 || failures > 1200 {
		t.Fatalf("failures = %d/4000, want ~1000", failures)
	}
}

// TestDeterministicAcrossSeeds: the same seed replays the same route
// decisions, and a different seed does not.
func TestDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) []bool {
		inj := mustParse(t, "error-rate=0.5", seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Inject("/x") != nil
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	diffAC := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		diffAC = diffAC || a[i] != c[i]
	}
	if !diffAC {
		t.Fatal("different seeds produced identical route decisions")
	}
}

// TestDeterministicStream: the two layers share one draw stream; the
// same seed replays the same decisions at both, and a different seed
// does not.
func TestDeterministicStream(t *testing.T) {
	srv, _, _ := okServer(t)
	run := func(seed int64) []bool {
		inj := mustParse(t, "error-rate=0.5; to=* error-rate=0.5", seed)
		rt := inj.Bind("me:1").Transport(nil)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, inj.Inject("/x") != nil, errors.Is(get(t, rt, srv.URL), ErrInjected))
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	fails, diffAB, diffAC := 0, false, false
	for i := range a {
		if a[i] {
			fails++
		}
		diffAB = diffAB || a[i] != b[i]
		diffAC = diffAC || a[i] != c[i]
	}
	if diffAB {
		t.Fatal("same seed produced different fault sequences")
	}
	if !diffAC {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("error-rate=0.5 failed %d/%d — stream not mixing", fails, len(a))
	}
}

func TestLatencyInjection(t *testing.T) {
	inj := mustParse(t, "latency=30ms", 1) // latency-rate defaults to 1
	start := time.Now()
	if err := inj.Inject("/v1/ttm"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("Inject returned after %v, want >= 30ms sleep", d)
	}
	if st := inj.Stats(); st.Latencies != 1 {
		t.Fatalf("stats = %+v, want 1 latency", st)
	}
}

func TestPanicBudget(t *testing.T) {
	inj := mustParse(t, "panics=1", 1)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		inj.Inject("/v1/ttm")
		return false
	}
	if !panicked() {
		t.Fatal("first Inject did not panic")
	}
	if panicked() {
		t.Fatal("second Inject panicked; budget was 1")
	}
	if st := inj.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v, want 1 panic", st)
	}
}

func TestPauseResume(t *testing.T) {
	inj := mustParse(t, "error-rate=1", 1)
	inj.Pause()
	if inj.Enabled() {
		t.Fatal("paused injector reports enabled")
	}
	if err := inj.Inject("/x"); err != nil {
		t.Fatalf("paused injector injected: %v", err)
	}
	inj.Resume()
	if err := inj.Inject("/x"); err == nil {
		t.Fatal("resumed injector injected nothing at error-rate=1")
	}
}

// TestPauseResumeLinks: the same switch pauses and resumes the link
// layer, including transports bound before the pause.
func TestPauseResumeLinks(t *testing.T) {
	srv, _, _ := okServer(t)
	inj := mustParse(t, "to=* error-rate=1", 1)
	rt := inj.Bind("me:1").Transport(nil)
	inj.Pause()
	if inj.Enabled() {
		t.Fatal("paused injector reports enabled")
	}
	if err := get(t, rt, srv.URL); err != nil {
		t.Fatalf("paused injector dropped: %v", err)
	}
	inj.Resume()
	if err := get(t, rt, srv.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("resumed injector err = %v, want ErrInjected", err)
	}
}

// TestFirstMatchingRuleWins: a route spec written for first-match
// semantics keeps its meaning: a specific rule fails its route while a
// zero-rate wildcard leaves the others alone.
func TestFirstMatchingRuleWins(t *testing.T) {
	inj := mustParse(t, "route=/v1/ttm error-rate=1; route=* error-rate=0", 1)
	if err := inj.Inject("/v1/ttm"); err == nil {
		t.Fatal("specific rule not applied")
	}
	if err := inj.Inject("/v1/cas"); err != nil {
		t.Fatalf("wildcard rule injected: %v", err)
	}
}

// TestAllMatchingRulesApply: every matching rule applies at both
// layers, so latencies add.
func TestAllMatchingRulesApply(t *testing.T) {
	both := mustParse(t, "latency=20ms; route=/v1 latency=20ms; to=* latency=20ms; from=me:1 latency=20ms", 1)
	start := time.Now()
	if err := both.Inject("/v1/ttm"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("two 20ms route rules delayed %v, want >= 40ms", d)
	}
	srv, _, _ := okServer(t)
	start = time.Now()
	if err := get(t, both.Bind("me:1").Transport(nil), srv.URL); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("two 20ms link rules delayed %v, want >= 40ms", d)
	}
	if st := both.Stats(); st.Latencies != 2 {
		t.Fatalf("stats = %+v, want one latency per request", st)
	}
}

func TestPartitionBidirectional(t *testing.T) {
	srv, host, served := okServer(t)
	inj := mustParse(t, "partition=me:1,"+host, 1)
	if err := get(t, inj.Bind("http://me:1").Transport(nil), srv.URL); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned request err = %v, want ErrPartitioned", err)
	}
	// The reverse direction is blocked too: bind as the server side.
	if err := get(t, inj.Bind(host).Transport(nil), "http://me:1/x"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("reverse direction err = %v, want ErrPartitioned", err)
	}
	if st := inj.Stats(); st.Partitioned != 2 || *served != 0 {
		t.Fatalf("Partitioned = %d, served = %d; want 2, 0", st.Partitioned, *served)
	}
	// An uninvolved destination passes the partition check (the dial
	// itself may fail — only the injector's verdict matters here).
	if err := get(t, inj.Bind("me:1").Transport(nil), "http://uninvolved.invalid:1/"); errors.Is(err, ErrPartitioned) {
		t.Fatalf("uninvolved destination was partitioned: %v", err)
	}
	// A partition is a link rule: routes are untouched.
	if err := inj.Inject("/v1/ttm"); err != nil {
		t.Fatalf("partition injected on a route: %v", err)
	}
}

func TestPartitionDirectional(t *testing.T) {
	srv, host, _ := okServer(t)
	// me -> srv blocked; srv -> me must pass.
	inj := mustParse(t, "partition=me:1->"+host, 1)
	if err := get(t, inj.Bind("me:1").Transport(nil), srv.URL); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("a->b err = %v, want ErrPartitioned", err)
	}
	// srv talking to itself stands in for srv->me.
	if err := get(t, inj.Bind(host).Transport(nil), srv.URL); err != nil {
		t.Fatalf("reverse of a directional partition failed: %v", err)
	}
}

func TestDropAndDelayAndReset(t *testing.T) {
	srv, _, served := okServer(t)

	// A link-layer error is a drop: no I/O.
	drop := mustParse(t, "to=* error-rate=1", 1)
	if err := get(t, drop.Bind("me:1").Transport(nil), srv.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("error-rate=1 err = %v, want ErrInjected", err)
	}
	if *served != 0 {
		t.Fatal("dropped request reached the server")
	}

	// Reset: the request IS delivered, the response destroyed.
	reset := mustParse(t, "to=* reset-rate=1", 1)
	if err := get(t, reset.Bind("me:1").Transport(nil), srv.URL); !errors.Is(err, ErrReset) {
		t.Fatalf("reset-rate=1 err = %v, want ErrReset", err)
	}
	if *served != 1 || reset.Stats().Resets != 1 {
		t.Fatalf("reset request: served=%d resets=%d, want 1, 1", *served, reset.Stats().Resets)
	}

	// Delay: measurable latency, request still succeeds.
	delay := mustParse(t, "to=* latency=30ms", 1)
	start := time.Now()
	if err := get(t, delay.Bind("me:1").Transport(nil), srv.URL); err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed request took %v, want >= 30ms", d)
	}
	if st := delay.Stats(); st.Latencies != 1 {
		t.Fatalf("Latencies = %d, want 1", st.Latencies)
	}
}

// TestScopedRule: rules apply only at their own layer and scope.
func TestScopedRule(t *testing.T) {
	srv, host, _ := okServer(t)
	for _, tc := range []struct {
		spec  string
		fires bool
	}{
		{"to=elsewhere:9 error-rate=1", false}, // another destination
		{"to=" + host + " error-rate=1", true}, // this destination
		{"from=other:2 error-rate=1", false},   // another source
		{"from=me:1 error-rate=1", true},       // this source
		{"error-rate=1", false},                // a route rule
	} {
		inj := mustParse(t, tc.spec, 1)
		err := get(t, inj.Bind("me:1").Transport(nil), srv.URL)
		if fired := errors.Is(err, ErrInjected); fired != tc.fires || (!fired && err != nil) {
			t.Errorf("%q on the link: err = %v, want fired=%t", tc.spec, err, tc.fires)
		}
		// Link rules never touch routes.
		if routeErr := inj.Inject("/v1/ttm"); (routeErr != nil) != (tc.spec == "error-rate=1") {
			t.Errorf("%q on a route: err = %v", tc.spec, routeErr)
		}
	}
}

func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Enabled() {
		t.Fatal("nil injector Enabled")
	}
	inj.Pause()
	inj.Resume()
	if st := inj.Stats(); st != (Stats{}) {
		t.Fatalf("nil injector stats = %+v", st)
	}
	if err := inj.Inject("/v1/ttm"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if rt := inj.Bind("x").Transport(http.DefaultTransport); rt != http.DefaultTransport {
		t.Fatal("nil injector wrapped the transport")
	}
}

// FuzzParse: Parse never panics, and every accepted rule has exactly
// one layer, names at least one fault (or is a bare partition), keeps
// every rate in [0,1] and every latency and panic budget non-negative,
// and carries panics only on a route and resets only on a link.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		// Every spec the tree uses: tests, docs and the load generator.
		"route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1",
		"route=/v1/ttm error-rate=1",
		"route=/v1/ttm panics=1",
		"route=/v1/ttm error-rate=0.05",
		"route=/v1/ttm error-rate=1; route=* error-rate=0",
		"route=/fail error-rate=1",
		"error-rate=1",
		"error-rate=0.25",
		"latency=30ms",
		"panics=1",
		"partition=a:8080,b:8080",
		"partition=a:8080->b:8080",
		"to=b:8080 error-rate=0.3 latency=50ms",
		"partition=http://127.0.0.1:1->http://127.0.0.1:3;partition=http://127.0.0.1:2->http://127.0.0.1:3",
		"partition=http://a:1,b:2; partition=c:3->d:4; from=a:1 to=b:2 error-rate=0.3 latency=50ms reset-rate=0.1",
		"to=* latency=50ms latency-rate=0.5 error-rate=0.3",
		"latency=20ms; route=/v1 latency=20ms; to=* latency=20ms; from=me:1 latency=20ms",
		"to=* reset-rate=1",
		"", " ; ", "route=/v1/ttm to=b:2 error-rate=1", "partition=a,b error-rate=1",
		"error-rate=NaN", "latency=-5ms", "partition=->b",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec, 1)
		if err != nil || inj == nil {
			return
		}
		var groups []string
		for _, g := range strings.Split(spec, ";") {
			if strings.TrimSpace(g) != "" {
				groups = append(groups, g)
			}
		}
		if len(groups) != len(inj.rules) {
			t.Fatalf("%q: %d rules from %d groups", spec, len(inj.rules), len(groups))
		}
		for i, rr := range inj.rules {
			r := rr.Rule
			route := r.Route != "" && r.From == "" && r.To == "" && r.PartitionA == "" && r.PartitionB == ""
			link := r.Route == "" && r.From != "" && r.To != ""
			if route == link {
				t.Fatalf("%q: rule %d %+v has no single layer", spec, i, r)
			}
			partition := r.PartitionA != "" && r.PartitionB != ""
			if !partition && (r.PartitionA != "" || r.PartitionB != "" || r.Directional) {
				t.Fatalf("%q: rule %d %+v has half a partition", spec, i, r)
			}
			faults := 0
			for _, field := range strings.Fields(groups[i]) {
				switch key, _, _ := strings.Cut(field, "="); key {
				case "latency", "error-rate", "panics", "reset-rate":
					faults++
				}
			}
			if partition == (faults > 0) {
				t.Fatalf("%q: rule %d %+v: partition=%t with %d fault fields", spec, i, r, partition, faults)
			}
			for _, rate := range []float64{r.LatencyRate, r.ErrorRate, r.ResetRate} {
				if !(rate >= 0 && rate <= 1) {
					t.Fatalf("%q: rule %d %+v has a rate outside [0,1]", spec, i, r)
				}
			}
			if r.Latency < 0 || r.Panics < 0 || (r.Panics > 0 && link) || (r.ResetRate > 0 && route) {
				t.Fatalf("%q: rule %d %+v breaks its layer's limits", spec, i, r)
			}
		}
	})
}
