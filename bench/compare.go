package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json, the benchmark's contract,
// that the benchmark reads: its run length, workloads, and the metrics
// with their regression bounds.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// boundedMetric is an end-to-end metric with the share of the baseline
// median by which it may worsen before a change counts as a regression.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the repository root, which
// is the working directory or, when run from bench/, its parent.
func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", p, err)
		}
		return spec, nil
	}
	return spec, errors.Join(errs...)
}

// setFile is what `-out` writes: one or more full sets of runs, each a
// result per workload, with the machine they ran on.
type setFile struct {
	Nproc     int                 `json:"nproc"`
	GoVersion string              `json:"go_version"`
	Date      string              `json:"date"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Trace     bool                `json:"trace"`
	Sets      []map[string]result `json:"sets"`
}

func readSetFile(path string) (setFile, error) {
	var f setFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects a metric of a workload across every set of a file.
func (f setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if m, ok := set[workload].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict judges B against A for one metric: "REGRESSION" when B's
// median is worse than A's by more than the bound, "better" when it is
// better by more, "ok" otherwise. When either side's run-to-run spread
// is wider than the bound the medians cannot be told apart, and the
// verdict is "unresolved" unless every run of B beats every run of A.
// A side with a single run has no known spread: a move beyond the bound
// is then "unresolved" too.
func verdict(a, b []float64, m boundedMetric) (change float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		if allBetter(a, b, m.Better) {
			return change, "better"
		}
		return change, "unresolved"
	case math.Abs(worse) <= m.Bound:
		return change, "ok"
	case len(a) < 2 || len(b) < 2:
		return change, "unresolved"
	case worse > 0:
		return change, "REGRESSION"
	}
	return change, "better"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// compareMain implements `bench compare A.json B.json`: per workload and
// end-to-end metric, both sides' medians and quartiles and the verdict
// under the metric's bound from BENCHMARK.json. It exits 1 when any
// metric regressed.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: reading BENCHMARK.json:", err)
		return 2
	}
	a, err := readSetFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readSetFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict\n")
	regressions := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			change, v := verdict(av, bv, m)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, quartileText(av), quartileText(bv), 100*change, 100*m.Bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(out, "A: %s (%d sets, %s, nproc %d)\nB: %s (%d sets, %s, nproc %d)\n",
		args[0], len(a.Sets), a.GoVersion, a.Nproc, args[1], len(b.Sets), b.GoVersion, b.Nproc)
	if regressions > 0 {
		fmt.Fprintf(out, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
