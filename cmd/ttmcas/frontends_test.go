package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ttmcas"
	"ttmcas/internal/jobs"
	"ttmcas/internal/report"
	"ttmcas/internal/server"
)

// TestFrontEndsAgree runs one set of inputs through the three front
// ends — POST /v1/ttm, a job spec's Validate and the CLI's ttm flags.
// They resolve design, node and market conditions through the same
// resolvers, so an input one of them accepts evaluates under the same
// conditions to the same TTM in all three, and an input one of them
// rejects is rejected by all three.
func TestFrontEndsAgree(t *testing.T) {
	srv := server.New(server.Config{DisableAccessLog: true})
	defer srv.Close()
	h := srv.Handler()

	const n = 1e6
	nan := math.NaN()
	for _, tc := range []struct {
		name                   string
		design, node, scenario string
		capacity, queue        float64
		ok                     bool
	}{
		{name: "defaults", design: "zen2", ok: true},
		{name: "full capacity", design: "zen2", capacity: 1, ok: true},
		{name: "half capacity", design: "zen2", capacity: 0.5, ok: true},
		{name: "retargeted with a queue", design: "a11", node: "28nm", capacity: 0.8, queue: 4, ok: true},
		{name: "scenario", design: "a11", node: "40", scenario: "fab-fire", ok: true},
		{name: "scenario over valid fields", design: "zen2", scenario: "shortage-2021", capacity: 0.5, queue: 3, ok: true},

		{name: "capacity above 1", design: "zen2", capacity: 2},
		{name: "negative capacity", design: "zen2", capacity: -1},
		{name: "NaN capacity", design: "zen2", capacity: nan},
		{name: "negative queue", design: "zen2", queue: -5},
		{name: "NaN queue", design: "zen2", queue: nan},
		{name: "scenario over capacity 5", design: "zen2", scenario: "fab-fire", capacity: 5},
		{name: "scenario over negative queue", design: "zen2", scenario: "fab-fire", queue: -3},
		{name: "unknown scenario", design: "zen2", scenario: "nope"},
		{name: "unknown design", design: "z80"},
		{name: "unparseable node", design: "zen2", node: "abc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Batch job.
			spec := jobs.Spec{
				Kind: jobs.KindMCBand, Design: tc.design, Node: tc.node, N: n,
				Scenario: tc.scenario, Capacity: tc.capacity, QueueWeeks: tc.queue,
			}
			var wantCond string
			var wantTTM float64
			err := spec.Validate(jobs.Limits{})
			switch {
			case !tc.ok:
				if !errors.Is(err, jobs.ErrInvalidSpec) {
					t.Errorf("job: err = %v, want ErrInvalidSpec", err)
				}
			case err != nil:
				t.Fatalf("job: %v", err)
			default:
				d, c, err := spec.Resolve()
				if err != nil {
					t.Fatalf("job resolve: %v", err)
				}
				r, err := ttmcas.Evaluate(d, n, c)
				if err != nil {
					t.Fatal(err)
				}
				wantCond, wantTTM = c.String(), float64(r.TTM)
			}

			// HTTP. JSON has no NaN, so those rows reach only the
			// job spec and the CLI.
			body, err := json.Marshal(map[string]any{
				"design": tc.design, "node": tc.node, "n": n,
				"scenario": tc.scenario, "capacity": tc.capacity, "queue_weeks": tc.queue,
			})
			if err == nil {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ttm", bytes.NewReader(body)))
				switch {
				case !tc.ok:
					if w.Code != http.StatusBadRequest {
						t.Errorf("HTTP: %d %s, want 400", w.Code, w.Body)
					}
				case w.Code != http.StatusOK:
					t.Errorf("HTTP: %d %s, want 200", w.Code, w.Body)
				default:
					var resp server.TTMResponse
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						t.Fatal(err)
					}
					if resp.Conditions != wantCond || resp.TTMWeeks != wantTTM {
						t.Errorf("HTTP: %q, %v wk; job: %q, %v wk", resp.Conditions, resp.TTMWeeks, wantCond, wantTTM)
					}
				}
			}

			// CLI.
			args := []string{"ttm", "-design", tc.design, "-n", "1e6",
				"-capacity", strconv.FormatFloat(tc.capacity, 'g', -1, 64),
				"-queue", strconv.FormatFloat(tc.queue, 'g', -1, 64)}
			if tc.node != "" {
				args = append(args, "-node", tc.node)
			}
			if tc.scenario != "" {
				args = append(args, "-scenario", tc.scenario)
			}
			out, err := capture(t, args...)
			if !tc.ok {
				if err == nil {
					t.Errorf("CLI %v accepted:\n%s", args, out)
				}
				return
			}
			if err != nil {
				t.Fatalf("CLI %v: %v", args, err)
			}
			header, _, _ := strings.Cut(out, "\n")
			if parts := strings.SplitN(header, ", ", 3); len(parts) != 3 || parts[2] != wantCond {
				t.Errorf("CLI conditions: header %q, job %q", header, wantCond)
			}
			if row := "\nTTM "; !strings.Contains(out, row) {
				t.Errorf("CLI output has no TTM row:\n%s", out)
			} else if _, rest, _ := strings.Cut(out, row); strings.Fields(rest)[0] != report.Fmt1(wantTTM) {
				t.Errorf("CLI TTM %s, job %s", strings.Fields(rest)[0], report.Fmt1(wantTTM))
			}
		})
	}
}
