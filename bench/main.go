// Command bench is the repository's end-to-end benchmark. It drives the
// real serving stack (internal/server on one node, or three nodes peered
// over loopback HTTP) with seeded workloads from two closed-loop
// clients, checks the answers against the ttmcas facade, and prints
// every end-to-end metric by name with its unit. A traced run times the
// layers from outside, through their public functions, and prints the
// per-layer metrics. BENCHMARK.json at the repository root lists the
// workloads and metrics; bench/README.md explains them.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                                   # one set: every workload
//	bash bench/run.sh -trace                            # one traced set
//	bash bench/run.sh --workload explore --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh -sets 2 -out bench/results/baseline.json
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh -smoke                            # 1 s per workload
//
// With --workload it runs that one workload in this process and prints,
// as its last line, {"correct", "attempted", "failed", "metrics"}. Without
// it, it runs each workload in a child process of its own, so caches,
// heap and peak RSS do not leak from one workload into the next.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	// defaultSeconds is the measured time of one run, BENCHMARK.json's
	// run_seconds.
	defaultSeconds = 15
	// warmup runs before every measured phase and is discarded: without
	// it the first seconds of a run read well below steady state. It
	// lasts at least warmup and at most maxWarmup (see warmUp).
	warmup    = 3 * time.Second
	maxWarmup = 45 * time.Second
	// setups is how many times a run sets its stack up; setup_s is the
	// median. Single set-ups of a few milliseconds vary by 10-15% within
	// one process.
	setups = 9
	// traceDir receives the traced runs' span files.
	traceDir = "bench/out"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}
	os.Exit(benchMain(args))
}

// traceFlag is --trace: bare, or with 0/1 as the next argument.
type traceFlag bool

func (t *traceFlag) String() string   { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) IsBoolFlag() bool { return true }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// joinTraceValue rewrites "--trace 0" and "--trace 1" as "--trace=0"
// and "--trace=1": the flag package never gives a boolean flag the next
// argument, and a bare -trace must keep working.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run")
	var trace traceFlag
	fs.Var(&trace, "trace", "traced run: per-layer metrics, spans written to "+traceDir)
	sets := fs.Int("sets", 1, "full sets to run (without --workload)")
	out := fs.String("out", "", "write the sets' results to this JSON file (without --workload)")
	smoke := fs.Bool("smoke", false, "run every workload for 1 s in this process, oracle on")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *smoke {
		if err := runSmoke(ctx, *seed, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *name == "" {
		return runSets(ctx, *seed, *seconds, bool(trace), *sets, *out)
	}
	res, err := runWorkload(ctx, runConfig{
		workload: *name, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		warmup: warmup, warmupMax: maxWarmup, setups: setups, trace: bool(trace), traceDir: traceDir,
	}, os.Stderr)
	if res.Metrics == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSmoke runs every workload for one second in this process with the
// oracle on: the quick end-to-end check the tests run.
func runSmoke(ctx context.Context, seed int64, out io.Writer) error {
	for _, w := range workloads {
		_, err := runWorkload(ctx, runConfig{
			workload: w.name, seed: seed, measure: time.Second,
			warmup: 100 * time.Millisecond, setups: 1,
		}, out)
		if err != nil {
			return err
		}
	}
	return nil
}

// runSets runs full sets, each workload in a child process of this
// binary, prints each set as a table and writes them to outPath.
func runSets(ctx context.Context, seed int64, seconds int, trace bool, sets int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := setFile{
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: seed, Seconds: seconds, Trace: trace,
	}
	failed := false
	for s := 0; s < sets; s++ {
		set := make(map[string]result)
		for _, w := range workloads {
			res, err := runChild(ctx, exe, w.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				failed = true
			}
			if res.Metrics != nil {
				set[w.name] = res
			}
			if ctx.Err() != nil {
				return 1
			}
		}
		file.Sets = append(file.Sets, set)
		fmt.Printf("set %d of %d (seed %d, %d s per workload)\n", s+1, sets, seed, seconds)
		printSet(os.Stdout, set, trace)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses its result
// line; the child's readable report goes to this process's stderr.
func runChild(ctx context.Context, exe, workload string, seed int64, seconds int, trace bool) (result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return res, runErr
}

// printSet prints one set as a table: a row per metric, a column per
// workload.
func printSet(out io.Writer, set map[string]result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range workloads {
		fmt.Fprintf(tw, "%s\t", w.name)
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s\t", d.name, d.unit)
		for _, w := range workloads {
			fmt.Fprintf(tw, "%.5g\t", set[w.name].Metrics[d.name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "correct\t\t")
	for _, w := range workloads {
		r := set[w.name]
		fmt.Fprintf(tw, "%v (%d/%d failed)\t", r.Correct, r.Failed, r.Attempted)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}
