package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ttmcas"
)

// whatIfCase is one what-if request of the serving-layer oracle and the
// design and conditions the ttmcas facade evaluates it under. The
// facade side builds its conditions with the With* methods, the
// server's request path with a ConditionsBuilder, so the oracle also
// holds the two to each other.
type whatIfCase struct {
	name   string
	fields string // the request body's fields other than "n" and "curve"
	design func(t *testing.T) ttmcas.Design
	conds  func(t *testing.T) ttmcas.Conditions
}

func builtin(name string, node ttmcas.Node) func(t *testing.T) ttmcas.Design {
	return func(t *testing.T) ttmcas.Design {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if node != 0 {
			d = d.Retarget(node)
		}
		return d
	}
}

func scenarioConditions(name string) func(t *testing.T) ttmcas.Conditions {
	return func(t *testing.T) ttmcas.Conditions {
		sc, ok := ttmcas.FindScenario(name)
		if !ok {
			t.Fatalf("unknown scenario %q", name)
		}
		return sc.Conditions
	}
}

func whatIfCases() []whatIfCase {
	full := func(t *testing.T) ttmcas.Conditions { return ttmcas.FullCapacity() }
	cases := []whatIfCase{
		{"full", `"design":"chipB"`, builtin("chipB", 0), full},
		{"capacity", `"design":"zen2","capacity":0.7`, builtin("zen2", 0),
			func(*testing.T) ttmcas.Conditions { return ttmcas.FullCapacity().AtCapacity(0.7) }},
		{"queue_weeks", `"design":"zen2","queue_weeks":3.5`, builtin("zen2", 0),
			func(*testing.T) ttmcas.Conditions { return ttmcas.FullCapacity().WithQueueAll(3.5) }},
		{"node_capacity", `"design":"zen2","capacity":0.9,"node_capacity":{"12nm":0.6,"7":0.8}`, builtin("zen2", 0),
			func(*testing.T) ttmcas.Conditions {
				return ttmcas.FullCapacity().AtCapacity(0.9).WithNodeCapacity(ttmcas.N7, 0.8).WithNodeCapacity(ttmcas.N12, 0.6)
			}},
		{"node_queue_weeks", `"design":"chipB","node_queue_weeks":{"28nm":2,"7nm":0}`, builtin("chipB", 0),
			func(*testing.T) ttmcas.Conditions {
				return ttmcas.FullCapacity().WithQueue(ttmcas.N28, 2).WithQueue(ttmcas.N7, 0)
			}},
		{"every field", `"design":"a11","node":"28nm","capacity":0.75,"queue_weeks":2,"node_capacity":{"28nm":1},"node_queue_weeks":{"28nm":5,"90nm":1}`,
			builtin("a11", ttmcas.N28),
			func(*testing.T) ttmcas.Conditions {
				return ttmcas.FullCapacity().AtCapacity(0.75).WithQueueAll(2).WithNodeCapacity(ttmcas.N28, 1).
					WithQueue(ttmcas.N28, 5).WithQueue(ttmcas.N90, 1)
			}},
		{"inline spec",
			`"spec":{"name":"duo","dies":[{"name":"core","node":"7nm","total_transistors":2e9,"unique_transistors":3e8},` +
				`{"name":"io","node":"12nm","total_transistors":1e9,"unique_transistors":1e8,"count_per_package":2}]},` +
				`"queue_weeks":1.5,"node_capacity":{"7nm":0.5},"node_queue_weeks":{"12nm":4}`,
			func(*testing.T) ttmcas.Design {
				return ttmcas.Design{Name: "duo", Dies: []ttmcas.Die{
					{Name: "core", Node: ttmcas.N7, NTT: 2e9, NUT: 3e8},
					{Name: "io", Node: ttmcas.N12, NTT: 1e9, NUT: 1e8, CountPerPackage: 2},
				}}
			},
			func(*testing.T) ttmcas.Conditions {
				return ttmcas.FullCapacity().WithQueueAll(1.5).WithNodeCapacity(ttmcas.N7, 0.5).WithQueue(ttmcas.N12, 4)
			}},
	}
	for _, sc := range ttmcas.Scenarios() {
		// a11 at 40 nm meets fab-fire's 40 nm conditions; zen2 meets
		// the leading-edge and 12 nm ones.
		cases = append(cases,
			whatIfCase{"scenario " + sc.Name + " a11@40nm", fmt.Sprintf(`"design":"a11","node":"40nm","scenario":%q`, sc.Name),
				builtin("a11", ttmcas.N40), scenarioConditions(sc.Name)},
			whatIfCase{"scenario " + sc.Name + " zen2", fmt.Sprintf(`"design":"zen2","scenario":%q,"capacity":0.5`, sc.Name),
				builtin("zen2", 0), scenarioConditions(sc.Name)})
	}
	return cases
}

// facadeTTM is the /v1/ttm body ttmcas.Evaluate implies.
func facadeTTM(t *testing.T, d ttmcas.Design, n float64, c ttmcas.Conditions) TTMResponse {
	t.Helper()
	res, err := ttmcas.Evaluate(d, n, c)
	if err != nil {
		t.Fatal(err)
	}
	out := TTMResponse{
		Design: d.Name, Chips: n, Conditions: c.String(),
		DesignWeeks: float64(res.DesignTime), TapeoutWeeks: float64(res.Tapeout),
		FabricationWeeks: float64(res.Fabrication), PackagingWeeks: float64(res.Packaging),
		TTMWeeks: float64(res.TTM), CriticalNode: res.CriticalNode.String(),
	}
	for _, die := range res.Dies {
		out.Dies = append(out.Dies, DieResponse{
			Name: die.Name, Node: die.Node.String(), AreaMM2: float64(die.Area),
			Yield: die.Yield, GrossPerWafer: die.GrossPerWafer, Wafers: float64(die.Wafers),
		})
	}
	for _, nf := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeResponse{
			Node: nf.Node.String(), Wafers: float64(nf.Wafers), QueueWeeks: float64(nf.Queue),
			ProductionWeeks: float64(nf.Production), TotalWeeks: float64(nf.FabTotal),
		})
	}
	return out
}

// facadeCAS is the /v1/cas body ttmcas.CAS and ttmcas.CASCurve imply.
func facadeCAS(t *testing.T, d ttmcas.Design, n float64, c ttmcas.Conditions, curve []float64) CASResponse {
	t.Helper()
	res, err := ttmcas.CAS(d, n, c)
	if err != nil {
		t.Fatal(err)
	}
	out := CASResponse{Design: d.Name, Chips: n, Conditions: c.String(), CAS: res.CAS,
		Derivatives: make(map[string]float64, len(res.Derivatives))}
	for node, der := range res.Derivatives {
		out.Derivatives[node.String()] = der
	}
	pts, err := ttmcas.CASCurve(d, n, c, curve)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		fw := finiteWeeks(p.TTM)
		out.Curve = append(out.Curve, CASPointResponse{Capacity: p.Capacity, CAS: p.CAS, TTMWeeks: fw, Stalled: fw == nil})
	}
	return out
}

// TestWhatIfRoutesMatchFacade is the /v1/ttm and /v1/cas oracle, the
// what-if counterpart of TestCostRouteMatchesFacade: under a global
// capacity, a quote at every node, per-node capacities and quotes,
// every scenario and an inline design, the miss, the canonical hit and
// the raw-alias hit all answer, byte for byte, the encoding of the body
// the facade's one-shot model implies. The CAS requests carry a curve.
func TestWhatIfRoutesMatchFacade(t *testing.T) {
	const n = 2e6
	curve := []float64{0.3, 0.55, 0.8, 1}
	for _, tc := range whatIfCases() {
		d, c := tc.design(t), tc.conds(t)
		for _, route := range []string{"/v1/ttm", "/v1/cas"} {
			var want any = facadeTTM(t, d, n, c)
			body := fmt.Sprintf(`{%s,"n":%g}`, tc.fields, n)
			if route == "/v1/cas" {
				want = facadeCAS(t, d, n, c, curve)
				body = fmt.Sprintf(`{%s,"curve":[0.3,0.55,0.8,1],"n":%g}`, tc.fields, n)
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			wantBody = append(wantBody, '\n')

			s := testServer(t, Config{})
			for i, xcache := range []string{"MISS", "HIT", "HIT"} {
				w := doRec(t, s, "POST", route, body)
				what := fmt.Sprintf("%s %s #%d", tc.name, route, i+1)
				if w.Code != http.StatusOK || w.Header().Get("X-Cache") != xcache {
					t.Fatalf("%s: %d X-Cache %q, want 200 %s: %s", what, w.Code, w.Header().Get("X-Cache"), xcache, w.Body)
				}
				if got := w.Body.String(); got != string(wantBody) {
					t.Fatalf("%s: answered\n%s\nfacade\n%s", what, got, wantBody)
				}
			}
			if m := s.Metrics(); m.aliasHits.Load() != 1 || m.cacheHits.Load() != 2 {
				t.Errorf("%s %s: alias hits %d, cache hits %d; want 1, 2", tc.name, route, m.aliasHits.Load(), m.cacheHits.Load())
			}
		}
	}
}

// TestSharedScenariosAndDesignsStayPristine runs every evaluation route
// on every built-in design and scenario, then holds the shared values
// the server reads — the scenarios' conditions and the registered
// designs, each built once — to fresh builds: no route may write into
// them.
func TestSharedScenariosAndDesignsStayPristine(t *testing.T) {
	s := testServer(t, Config{})
	for _, name := range ttmcas.DesignNames() {
		for _, sc := range ttmcas.Scenarios() {
			fields := fmt.Sprintf(`"design":%q,"scenario":%q,"n":1e6`, name, sc.Name)
			for _, req := range []struct{ route, body string }{
				{"/v1/ttm", "{" + fields + "}"},
				{"/v1/ttm", "{" + fields + `,"node":"12nm"}`},
				{"/v1/cas", "{" + fields + `,"curve":[0.5,1]}`},
				{"/v1/cost", "{" + fields + "}"},
				{"/v1/sensitivity", "{" + fields + `,"samples":8}`},
			} {
				if w := doRec(t, s, "POST", req.route, req.body); w.Code >= 500 {
					t.Fatalf("%s %s: %d %s", req.route, req.body, w.Code, w.Body)
				}
			}
		}
		if w := doRec(t, s, "POST", "/v1/plan", fmt.Sprintf(`{"design":%q,"n":1e6,"top":2}`, name)); w.Code >= 500 {
			t.Fatalf("plan %s: %d %s", name, w.Code, w.Body)
		}
		body := fmt.Sprintf(`{"design":%q,"n":1e6,"queue_weeks":2,"node_capacity":{"28nm":0.5},"node_queue_weeks":{"7nm":1}}`, name)
		if w := doRec(t, s, "POST", "/v1/ttm", body); w.Code >= 500 {
			t.Fatalf("ttm %s: %d %s", body, w.Code, w.Body)
		}
	}
	for _, path := range []string{"/v1/scenarios", "/v1/designs", "/v1/nodes"} {
		if w := doRec(t, s, "GET", path, ""); w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
	}

	fresh := map[string]ttmcas.Design{
		"a11": ttmcas.A11(), "zen2": ttmcas.Zen2(), "ariane16": ttmcas.Ariane16(16, 32, ttmcas.N14),
		"raven": ttmcas.RavenMCU(ttmcas.N180), "chipA": ttmcas.ChipA(), "chipB": ttmcas.ChipB(),
	}
	for _, name := range ttmcas.DesignNames() {
		d, err := ttmcas.DesignByName(strings.ToUpper(name))
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := fresh[name]; !ok || !reflect.DeepEqual(d, want) {
			t.Errorf("shared design %s = %+v, a fresh build is %+v", name, d, want)
		}
	}
	full := ttmcas.FullCapacity()
	freshConds := map[string]ttmcas.Conditions{
		"baseline":      full,
		"shortage-2021": full.WithQueueAll(4),
		"legacy-crunch": full.WithNodeCapacity(ttmcas.N250, 0.6).WithNodeCapacity(ttmcas.N180, 0.6).
			WithNodeCapacity(ttmcas.N130, 0.6).WithNodeCapacity(ttmcas.N90, 0.6),
		"advanced-drought": full.WithNodeCapacity(ttmcas.N7, 0.5).WithNodeCapacity(ttmcas.N5, 0.5),
		"fab-fire":         full.WithNodeCapacity(ttmcas.N40, 0.25).WithQueue(ttmcas.N40, 2),
	}
	scs := ttmcas.Scenarios()
	if len(scs) != len(freshConds) {
		t.Fatalf("%d scenarios, want %d", len(scs), len(freshConds))
	}
	for _, sc := range scs {
		found, ok := ttmcas.FindScenario(sc.Name)
		if want, known := freshConds[sc.Name]; !known || !ok ||
			!reflect.DeepEqual(sc.Conditions, want) || !reflect.DeepEqual(found.Conditions, want) {
			t.Errorf("shared scenario %s = %s, a fresh build is %s", sc.Name, sc.Conditions, want)
		}
	}
}
