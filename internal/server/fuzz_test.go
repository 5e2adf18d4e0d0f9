package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzEvalRoutes posts arbitrary bodies to the evaluation routes of an
// in-process server: whatever the body, the answer is a success or a
// client error, never a 500. The seeds (run by plain `go test`) hold
// bodies whose results are not finite, plus valid ones.
//
//	go test -run '^$' -fuzz FuzzEvalRoutes -fuzztime 60s ./internal/server
func FuzzEvalRoutes(f *testing.F) {
	for _, body := range []string{
		`{"design":"a11","node":"28nm","n":10e6}`,
		`{"design":"zen2","n":1e6,"scenario":"fab-fire","curve":[0.25,0.5,1]}`,
		`{"spec":{"dies":[{"node":"7nm","total_transistors":4e9,"unique_transistors":1e9}]},"n":1e5,"node_capacity":{"7nm":0}}`,
	} {
		f.Add(body)
	}
	for _, tc := range nonFiniteCases {
		f.Add(tc.body)
	}
	h := testServer(f, Config{}).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/ttm", "/v1/cas", "/v1/cost"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
			if w.Code == http.StatusInternalServerError {
				t.Fatalf("POST %s %q: 500 %s", path, body, w.Body)
			}
		}
	})
}
