package jobs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// jobSpecSeeds are the spec literals of the jobs and server tests, the
// jobsclient example and the README, as the JSON a client would send.
var jobSpecSeeds = []string{
	// internal/server tests, examples/jobsclient and README.
	`{"kind":"mc-band","design":"a11","metric":"cas","samples":8192,"seed":1}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":16,"seed":7}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":4096,"seed":1}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":64,"seed":7}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":64}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":256}`,
	`{"kind":"mc-band","design":"a11","node":"28nm","samples":8,"seed":3}`,
	`{"kind":"mc-band","design":"a11","samples":100000}`,
	`{"kind":"mc-band","design":"a11","samples":2048,"seed":4}`,
	`{"kind":"mc-band","design":"a11","samples":256,"seed":21}`,
	`{"kind":"mc-band","design":"a11","samples":4096,"seed":1}`,
	`{"kind":"mc-band","design":"a11","samples":8,"seed":5}`,
	`{"kind":"mc-band","design":"a11","samples":8}`,
	`{"kind":"mc-band","design":"a11","unknown_field":1}`,
	`{"kind":"mc-band","design":"zen2","node":"7nm","n":1e6,"samples":8,"seed":2}`,
	`{"kind":"mc-band"}`,
	`{"kind":"nope","design":"a11"}`,
	`{"kind":"timeline","design":"zen2","episode":"fab-fire-recovery","in_flight":true}`,
	`{"kind":"timeline","design":"zen2","episode":"nope"}`,
	`{"kind":"timeline","design":"a11","node":"28nm","n":1e7,"episode":"fab-fire-recovery"}`,
	`{"kind":"plan-portfolio","design":"a11"}`,
	// internal/jobs tests.
	`{}`,
	`{"design":"a11"}`,
	`{"kind":"frobnicate","design":"a11"}`,
	`{"kind":"mc-band","design":"nope"}`,
	`{"kind":"mc-band","design":"a11","node":"3nm"}`,
	`{"kind":"mc-band","design":"a11","n":-1}`,
	`{"kind":"mc-band","design":"a11","scenario":"nope"}`,
	`{"kind":"mc-band","design":"a11","capacity":1.5}`,
	`{"kind":"mc-band","design":"a11","queue_weeks":-2}`,
	`{"kind":"mc-band","design":"a11","samples":1048576}`,
	`{"kind":"mc-band","design":"a11","xs":[2]}`,
	`{"kind":"mc-band","design":"a11","xs":[0]}`,
	`{"kind":"mc-band","design":"a11","xs":[0.1,0.2,0.3]}`,
	`{"kind":"mc-band","design":"a11","metric":"ipc"}`,
	`{"kind":"mc-band","design":"a11","timeout_seconds":-1}`,
	`{"kind":"mc-band","design":"a11","samples":64}`,
	`{"kind":"mc-band","design":"a11","episode":"single-fab-loss"}`,
	`{"kind":" MC-Band ","metric":"TTM"}`,
	`{"kind":"mc-band","design":"a11","samples":8,"xs":[0.5,1]}`,
	`{"kind":"mc-band","design":"a11","samples":10,"xs":[0.5,0.75,1]}`,
	`{"kind":"mc-band","design":"a11","samples":8,"metric":"cas","xs":[0.5,1]}`,
	`{"kind":"mc-band","design":"a11","samples":64,"xs":[0.3,0.4,0.5,0.6,0.7]}`,
	`{"kind":"mc-band","design":"a11","samples":48,"seed":11,"xs":[0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9]}`,
	`{"kind":"mc-band","design":"zen2","metric":"cas","samples":32,"seed":3,"xs":[0.5,0.55,0.6,0.65,0.7]}`,
	`{"kind":"mc-band","design":"zen2","metric":"cas","samples":8192,"seed":1,"xs":[0.2,0.2125,0.225,0.2375,0.25]}`,
	`{"kind":"sensitivity","design":"a11","variation":1}`,
	`{"kind":"sensitivity","design":"a11","node":"28","samples":32,"seed":3}`,
	`{"kind":"sensitivity","design":"a11","samples":16,"seed":5,"variation":1e-300}`,
	`{"kind":"sensitivity","design":"zen2","samples":24,"seed":7,"variation":0.25}`,
	`{"kind":"sweep","design":"a11","nodes":["bogus"]}`,
	`{"kind":"sweep","design":"a11","quantities":[-5]}`,
	`{"kind":"sweep","design":"a11","n":1e6,"nodes":["28","40"],"quantities":[1e5,1e6]}`,
	`{"kind":"sweep","design":"a11","quantities":[1e6,5e6,20e6]}`,
	`{"kind":"pareto","design":"a11"}`,
	`{"kind":"pareto","design":"a11","cache_refs":3000000}`,
	`{"kind":"pareto","design":"ariane16","n":1e5,"nodes":["14"],"quantities":[1e5],"cache_refs":20000}`,
	`{"kind":"plan-portfolio","design":"a11","min_cas":-1}`,
	`{"kind":"plan-portfolio","design":"a11","scenarios":["nope"]}`,
	`{"kind":"plan-portfolio","design":"raven","n":1e6,"scenarios":["baseline"]}`,
	`{"kind":"timeline","design":"zen2"}`,
	`{"kind":"timeline","design":"zen2","episode":"single-fab-loss"}`,
	`{"kind":"timeline","design":"zen2","episode":"export-control-shock","in_flight":true}`,
	`{"kind":"timeline","design":"zen2","episode":"global-shortage-2020-22"}`,
	`{"kind":"timeline","design":"zen2","episode":"single-fab-loss","scenario":"baseline"}`,
	`{"kind":"timeline","design":"zen2","timeline":{"horizon_weeks":-1}}`,
	`{"kind":"timeline","design":"zen2","in_flight":true,"timeline":{"base":"baseline","horizon_weeks":10,"segments":[{"kind":"queue-drift","start_week":1,"end_week":5,"delta_weeks":2}]}}`,
	`{"kind":"timeline","design":"zen2","episode":"single-fab-loss","timeline":{"base":"baseline","horizon_weeks":10}}`,
	`{"kind":"timeline","design":"zen2","n":10e6,"timeline":{"name":"outage-plus-panic","base":"baseline","horizon_weeks":52,"segments":[{"kind":"fab-outage","node":"7nm","start_week":8,"end_week":28,"depth":0.6,"ramp":"linear","ramp_weeks":4,"recover_weeks":8},{"kind":"demand-shock","start_week":12,"end_week":30,"multiplier":1.8,"hoarding":true}]}}`,
}

// FuzzJobSpec drives the job-submission boundary the way the server
// does — a strict JSON decode, then normalization and Validate under
// the default limits — and checks that it never panics, that every
// rejection wraps ErrInvalidSpec (the server's 422), and that an
// accepted spec's evaluation estimate lies in [0, MaxEvaluations].
//
//	go test -run '^$' -fuzz FuzzJobSpec -fuzztime 30s -parallel 2 ./internal/jobs
func FuzzJobSpec(f *testing.F) {
	for _, s := range jobSpecSeeds {
		f.Add(s)
	}
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body string) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var spec Spec
		if dec.Decode(&spec) != nil || dec.More() {
			return
		}
		spec = spec.normalized()
		if err := spec.Validate(Limits{}); err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Validate(%s) = %v, which does not wrap ErrInvalidSpec", body, err)
			}
			return
		}
		if est := spec.EstimatedEvaluations(); est < 0 || est > lim.MaxEvaluations {
			t.Fatalf("accepted spec %s estimates %d evaluations, outside [0, %d]", body, est, lim.MaxEvaluations)
		}
	})
}
