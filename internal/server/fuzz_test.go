package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// evalRoutes are the paths of the cached evaluation routes, the ones
// served through respondCached.
var evalRoutes = []string{"/v1/ttm", "/v1/cas", "/v1/cost", "/v1/sensitivity", "/v1/plan", "/v1/scenarios"}

// evalSeeds are valid request bodies: each one succeeds on at least one
// evaluation route (and is a client error on most of the others).
var evalSeeds = []string{
	`{"design":"a11","node":"28nm","n":10e6}`,
	`{"design":"zen2","n":1e6,"scenario":"fab-fire","curve":[0.25,0.5,1]}`,
	`{"spec":{"dies":[{"node":"7nm","total_transistors":4e9,"unique_transistors":1e9}]},"n":1e5,"node_capacity":{"7nm":0}}`,
	`{"design":"a11","node":"28nm","n":1e6,"samples":16,"seed":3}`,
	`{"design":"raven","n":1e9,"top":4}`,
	`{"design":"zen2","n":1e6,"episode":"export-control-shock"}`,
	`{"design":"zen2","n":1e6,"in_flight":true,"timeline":{"base":"baseline","horizon_weeks":10,"step_weeks":2,` +
		`"segments":[{"kind":"fab-outage","node":"7nm","start_week":2,"end_week":8,"depth":0.5,"ramp":"linear","ramp_weeks":2}]}}`,
}

// evalTestConfig clamps the sample cap so sensitivity requests in the
// fuzz and oracle tests stay cheap.
var evalTestConfig = Config{MaxSamples: 64}

// FuzzEvalRoutes posts arbitrary bodies to every cached evaluation
// route of an in-process server, three times. Whatever the body, the
// answer is a success or a client error, never a 500, and each repeat
// is the first answer byte for byte, status included. After a success
// the second post hits the canonical cache entry and records the
// body's raw alias, and the third is served through that alias. The
// seeds (run by plain `go test`) hold valid bodies for each route plus
// bodies whose results are not finite.
//
//	go test -run '^$' -fuzz FuzzEvalRoutes -fuzztime 60s ./internal/server
func FuzzEvalRoutes(f *testing.F) {
	for _, body := range evalSeeds {
		f.Add(body)
	}
	for _, tc := range nonFiniteCases {
		f.Add(tc.body)
	}
	h := testServer(f, evalTestConfig).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range evalRoutes {
			var first *httptest.ResponseRecorder
			for i := 0; i < 3; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
				if w.Code == http.StatusInternalServerError {
					t.Fatalf("POST %s %q: 500 %s", path, body, w.Body)
				}
				if first == nil {
					first = w
				} else if w.Code != first.Code || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
					t.Fatalf("POST %s %q: repeat answered %d %q, first %d %q",
						path, body, w.Code, w.Body, first.Code, first.Body)
				}
			}
		}
	})
}
