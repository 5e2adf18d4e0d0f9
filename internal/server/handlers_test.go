package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// do runs one request against a fresh server and returns status+body.
func do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	s := testServer(t, Config{})
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func TestTTMEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":10e6}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out TTMResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// The README quotes 26.0 weeks for this exact evaluation.
	if out.TTMWeeks < 20 || out.TTMWeeks > 35 {
		t.Errorf("ttm_weeks = %v, expected ≈26", out.TTMWeeks)
	}
	if len(out.Dies) == 0 || len(out.Nodes) == 0 || out.CriticalNode == "" {
		t.Errorf("missing breakdown: %+v", out)
	}
}

func TestTTMWithMarketOverrides(t *testing.T) {
	base, b1 := do(t, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":10e6}`)
	degraded, b2 := do(t, "POST", "/v1/ttm",
		`{"design":"a11","node":"28nm","n":10e6,"capacity":0.5,"queue_weeks":4,"node_capacity":{"28nm":0.8}}`)
	if base != 200 || degraded != 200 {
		t.Fatalf("statuses %d, %d: %s %s", base, degraded, b1, b2)
	}
	var r1, r2 TTMResponse
	json.Unmarshal([]byte(b1), &r1)
	json.Unmarshal([]byte(b2), &r2)
	if r2.TTMWeeks <= r1.TTMWeeks {
		t.Errorf("degraded market should raise TTM: %v vs %v", r2.TTMWeeks, r1.TTMWeeks)
	}
}

func TestTTMScenario(t *testing.T) {
	status, body := do(t, "POST", "/v1/ttm", `{"design":"a11","node":"28nm","n":10e6,"scenario":"baseline"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
}

func TestTTMInlineSpec(t *testing.T) {
	spec := `{
		"n": 1e6,
		"spec": {
			"name": "custom-soc",
			"dies": [
				{"name": "soc", "node": "28nm", "total_transistors": 4.3e9, "unique_transistors": 2e9},
				{"name": "io", "node": "65nm", "total_transistors": 5e8, "unique_transistors": 5e8}
			]
		}
	}`
	status, body := do(t, "POST", "/v1/ttm", spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out TTMResponse
	json.Unmarshal([]byte(body), &out)
	if out.Design != "custom-soc" || len(out.Dies) != 2 {
		t.Errorf("inline spec: %+v", out)
	}
}

func TestTTMInlineSpecWithBlocks(t *testing.T) {
	spec := `{
		"n": 1e6,
		"spec": {
			"dies": [{
				"node": "14nm",
				"blocks": [
					{"name": "core", "transistors": 1e8, "instances": 16},
					{"name": "sram", "transistors": 2e9, "instances": 1, "pre_verified": true}
				]
			}]
		}
	}`
	status, body := do(t, "POST", "/v1/ttm", spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
}

func TestTTMInfiniteIs422(t *testing.T) {
	// The design's only node at zero capacity: production never ends.
	status, body := do(t, "POST", "/v1/ttm",
		`{"design":"a11","node":"28nm","n":10e6,"node_capacity":{"28nm":0}}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("status %d, body %s, want 422", status, body)
	}
	if !strings.Contains(body, "infinite") {
		t.Errorf("error should mention infinity: %s", body)
	}
}

func TestTTMBadRequests(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"malformed json", `{"design":`},
		{"unknown field", `{"design":"a11","n":1e6,"bogus":1}`},
		{"no design", `{"n":1e6}`},
		{"unknown design", `{"design":"nope","n":1e6}`},
		{"design and spec", `{"design":"a11","spec":{"dies":[{"node":"28nm","total_transistors":1e9}]},"n":1e6}`},
		{"spec without dies", `{"spec":{"dies":[]},"n":1e6}`},
		{"spec with bad node", `{"spec":{"dies":[{"node":"3nm","total_transistors":1e9}]},"n":1e6}`},
		{"zero n", `{"design":"a11"}`},
		{"negative n", `{"design":"a11","n":-5}`},
		{"unknown node", `{"design":"a11","node":"3nm","n":1e6}`},
		{"capacity above 1", `{"design":"a11","n":1e6,"capacity":1.5}`},
		{"negative capacity", `{"design":"a11","n":1e6,"capacity":-0.5}`},
		{"negative queue", `{"design":"a11","n":1e6,"queue_weeks":-1}`},
		{"bad override node", `{"design":"a11","n":1e6,"node_capacity":{"banana":0.5}}`},
		{"override above 1", `{"design":"a11","n":1e6,"node_capacity":{"28nm":2}}`},
		{"unknown scenario", `{"design":"a11","n":1e6,"scenario":"apocalypse"}`},
		{"trailing data", `{"design":"a11","n":1e6}{"x":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, "POST", "/v1/ttm", tc.body)
			if status != http.StatusBadRequest {
				t.Errorf("status %d, body %s, want 400", status, body)
			}
			var er errorResponse
			if err := json.Unmarshal([]byte(body), &er); err != nil || er.Error == "" {
				t.Errorf("error body not structured: %s", body)
			}
		})
	}
}

func TestCASEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/cas", `{"design":"a11","node":"7nm","n":10e6}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out CASResponse
	json.Unmarshal([]byte(body), &out)
	if out.CAS <= 0 || len(out.Derivatives) == 0 {
		t.Errorf("cas response: %+v", out)
	}
}

func TestCASCurveEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/cas", `{"design":"a11","node":"7nm","n":10e6,"curve":[0.5,1.0]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out CASResponse
	json.Unmarshal([]byte(body), &out)
	if len(out.Curve) != 2 {
		t.Fatalf("curve has %d points, want 2", len(out.Curve))
	}
	if out.Curve[0].CAS >= out.Curve[1].CAS {
		t.Errorf("CAS should rise with capacity: %+v", out.Curve)
	}
	if out.CAS <= 0 {
		t.Errorf("curve responses must still carry the scalar CAS, got %v", out.CAS)
	}
}

func TestCostEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/cost", `{"design":"zen2","n":10e6}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out CostResponse
	json.Unmarshal([]byte(body), &out)
	sum := out.MaskNREUSD + out.TapeoutNREUSD + out.WafersUSD + out.PackagingUSD
	if out.TotalUSD <= 0 || out.TotalUSD-sum > 1 || sum-out.TotalUSD > 1 {
		t.Errorf("cost breakdown inconsistent: %+v", out)
	}
}

func TestSensitivityEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/sensitivity", `{"design":"a11","node":"28nm","n":10e6,"samples":16}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out SensitivityResponse
	json.Unmarshal([]byte(body), &out)
	if len(out.Inputs) != 6 || len(out.TotalEffect) != 6 || out.Evaluations == 0 {
		t.Errorf("sensitivity response: %+v", out)
	}
}

func TestSensitivitySampleCap(t *testing.T) {
	// A well-formed request asking for too much work is 422, not 400.
	status, body := do(t, "POST", "/v1/sensitivity", `{"design":"a11","n":1e6,"samples":100000}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("status %d, body %s, want 422", status, body)
	}
}

func TestCASCurveValidation(t *testing.T) {
	pts := make([]string, 70)
	for i := range pts {
		pts[i] = "0.5"
	}
	status, body := do(t, "POST", "/v1/cas",
		`{"design":"a11","node":"28nm","n":1e6,"curve":[`+strings.Join(pts, ",")+`]}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("oversized curve: status %d, body %s, want 422", status, body)
	}
	status, body = do(t, "POST", "/v1/cas", `{"design":"a11","node":"28nm","n":1e6,"curve":[1.5]}`)
	if status != http.StatusBadRequest {
		t.Errorf("out-of-range curve point: status %d, body %s, want 400", status, body)
	}
}

func TestPlanEndpoint(t *testing.T) {
	status, body := do(t, "POST", "/v1/plan", `{"design":"raven","n":1e9,"top":4}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out PlanResponse
	json.Unmarshal([]byte(body), &out)
	if !out.Feasible || out.Recommended == nil {
		t.Fatalf("unconstrained plan should be feasible: %+v", out)
	}
	if len(out.Options) == 0 || len(out.Options) > 4 {
		t.Errorf("options = %d, want 1..4", len(out.Options))
	}
}

func TestPlanInfeasible(t *testing.T) {
	status, body := do(t, "POST", "/v1/plan", `{"design":"raven","n":1e9,"deadline_weeks":0.001}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out PlanResponse
	json.Unmarshal([]byte(body), &out)
	if out.Feasible || out.Recommended != nil {
		t.Errorf("impossible deadline should be infeasible: %+v", out)
	}
	if len(out.Options) == 0 {
		t.Error("infeasible plan should still rank nearest candidates")
	}
}

func TestNodesEndpoint(t *testing.T) {
	status, body := do(t, "GET", "/v1/nodes", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var entries []map[string]any
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(entries) < 12 {
		t.Errorf("%d node entries, want >= 12", len(entries))
	}
	if _, ok := entries[0]["node_nm"]; !ok {
		t.Errorf("entry missing node_nm: %v", entries[0])
	}
}

func TestScenariosEndpoint(t *testing.T) {
	status, body := do(t, "GET", "/v1/scenarios", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var out []ScenarioResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sc := range out {
		names[sc.Name] = true
	}
	if !names["baseline"] {
		t.Errorf("scenarios missing baseline: %v", names)
	}
}

func TestDesignsEndpoint(t *testing.T) {
	status, body := do(t, "GET", "/v1/designs", "")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var out []DesignResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("%d designs, want 6", len(out))
	}
	for _, d := range out {
		if d.Name == "" || d.Dies == 0 || len(d.Nodes) == 0 || d.TransistorsPerChip <= 0 {
			t.Errorf("incomplete design summary: %+v", d)
		}
	}
}

// nonFiniteCases are requests whose results JSON cannot carry (+Inf
// CAS, cost or derivatives).
var nonFiniteCases = []struct{ path, body string }{
	{"/v1/cas", `{"design":"a11","n":1e6}`},
	{"/v1/cas", `{"design":"a11","node":"28nm","n":1e6,"capacity":1e-300}`},
	{"/v1/cas", `{"design":"a11","node":"28nm","n":1e6,"queue_weeks":1e308}`},
	{"/v1/cas", `{"design":"a11","node":"28nm","n":1e308}`},
	{"/v1/cost", `{"design":"a11","node":"28nm","n":1e308}`},
}

// TestNonFiniteResultsAre422: for non-finite results the shared
// encoding step answers 422 with an explanation instead of a 500, and
// does not cache the failure.
func TestNonFiniteResultsAre422(t *testing.T) {
	for _, tc := range nonFiniteCases {
		s := testServer(t, Config{})
		for attempt := 0; attempt < 2; attempt++ {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			if w.Code != http.StatusUnprocessableEntity {
				t.Fatalf("POST %s %s: status %d, want 422: %s", tc.path, tc.body, w.Code, w.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %s: error body %q", tc.path, tc.body, w.Body)
			}
			if w.Header().Get("X-Cache") == "HIT" {
				t.Fatalf("POST %s %s: failure served from cache", tc.path, tc.body)
			}
		}
	}
}
