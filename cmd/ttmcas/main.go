// Command ttmcas is the command-line front end of the supply-chain
// aware architecture framework: it evaluates time-to-market, agility
// and cost for the built-in case-study designs under configurable
// market conditions, regenerates every figure and table of the paper's
// evaluation, and runs the discrete-event fab simulator.
//
// Usage:
//
//	ttmcas nodes                         # process-node database
//	ttmcas scenarios                     # built-in market scenarios
//	ttmcas designs                       # built-in designs
//	ttmcas ttm  -design a11 -node 28 -n 10e6 [-capacity 0.8] [-queue 2]
//	ttmcas cas  -design a11 -node 7  -n 10e6 [-curve]
//	ttmcas cost -design zen2 -n 10e6
//	ttmcas sense -design a11 -node 5 -n 10e6
//	ttmcas figure 13 [-fast]             # regenerate a paper figure
//	ttmcas table 3 [-fast]               # regenerate a paper table
//	ttmcas all [-fast]                   # regenerate everything
//	ttmcas fabsim -node 28 -wafers 50000 [-queue-wafers 10000] [-disrupt 2:0.5,6:1]
//	ttmcas timeline -episode global-shortage-2020-22 -design zen2 [-inflight] [-json]
//	ttmcas timeline -spec episode.json -design a11 -node 28
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ttmcas"
	"ttmcas/internal/cost"
	"ttmcas/internal/figures"
	"ttmcas/internal/market"
	"ttmcas/internal/plan"
	"ttmcas/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmcas:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "nodes":
		return cmdNodes(rest)
	case "scenarios":
		return cmdScenarios()
	case "designs":
		return cmdDesigns()
	case "ttm":
		return cmdTTM(rest)
	case "cas":
		return cmdCAS(rest)
	case "cost":
		return cmdCost(rest)
	case "sense":
		return cmdSense(rest)
	case "compare":
		return cmdCompare(rest)
	case "plan":
		return cmdPlan(rest)
	case "breakeven":
		return cmdBreakEven(rest)
	case "figure", "table":
		return cmdFigure(cmd, rest)
	case "all":
		return cmdAll(rest)
	case "fabsim":
		return cmdFabsim(rest)
	case "timeline":
		return cmdTimeline(rest)
	case "jobs":
		return cmdJobs(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `ttmcas — supply chain aware computer architecture modeling

subcommands:
  nodes       print the process-node database (Table 2 + derived columns)
  scenarios   print the built-in market scenarios
  designs     print the built-in case-study designs
  ttm         evaluate time-to-market for a design
  cas         evaluate the Chip Agility Score for a design
  cost        evaluate chip-creation cost for a design
  sense       Sobol sensitivity of TTM to the six guarded inputs
  compare     side-by-side TTM/CAS/cost across designs or nodes
  plan        recommend a manufacturing plan under deadline/budget/agility constraints
  breakeven   volume where one node choice becomes cheaper than another
  figure N    regenerate paper figure N (3..14)
  table N     regenerate paper table N (2..4)
  all         regenerate every figure and table
  fabsim      run the discrete-event fab/packaging pipeline
  timeline    evaluate a composed disruption timeline or a historical episode
  jobs        run a batch-evaluation spec locally (same engine as POST /v1/jobs)

run 'ttmcas <subcommand> -h' for flags.
`)
}

// designFlags holds the flags shared by the evaluation subcommands.
type designFlags struct {
	fs       *flag.FlagSet
	design   *string
	node     *string
	n        *float64
	capacity *float64
	queue    *float64
	scenario *string
	nodedb   *string
	db       *ttmcas.NodeDatabase
}

func newDesignFlags(name string) *designFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &designFlags{
		fs:       fs,
		design:   fs.String("design", "a11", "design: a11, zen2, ariane16, raven, chipA, chipB"),
		node:     fs.String("node", "", "re-target the design to this node (e.g. 28nm); empty keeps its native node(s)"),
		n:        fs.Float64("n", 10e6, "number of final chips"),
		capacity: fs.Float64("capacity", 1.0, "global production capacity fraction in [0, 1]; 0 means full"),
		queue:    fs.Float64("queue", 0, "quoted foundry lead time in weeks (>= 0) at every node"),
		scenario: fs.String("scenario", "", "named market scenario (overrides -capacity/-queue once they are validated)"),
		nodedb:   fs.String("nodedb", "", "JSON process-node database (see 'ttmcas nodes -export')"),
	}
}

func (df *designFlags) parse(args []string) (ttmcas.Design, ttmcas.Conditions, error) {
	if err := df.fs.Parse(args); err != nil {
		return ttmcas.Design{}, ttmcas.Conditions{}, err
	}
	if *df.nodedb != "" {
		f, err := os.Open(*df.nodedb)
		if err != nil {
			return ttmcas.Design{}, ttmcas.Conditions{}, err
		}
		defer f.Close()
		df.db, err = ttmcas.ReadNodeDatabase(f)
		if err != nil {
			return ttmcas.Design{}, ttmcas.Conditions{}, err
		}
	}
	d, err := ttmcas.DesignAt(*df.design, *df.node)
	if err != nil {
		return ttmcas.Design{}, ttmcas.Conditions{}, err
	}
	c, err := market.Inputs{Scenario: *df.scenario, Capacity: *df.capacity, QueueWeeks: *df.queue}.Conditions()
	return d, c, err
}

func cmdNodes(args []string) error {
	fs := flag.NewFlagSet("nodes", flag.ContinueOnError)
	export := fs.Bool("export", false, "dump the database as JSON (editable, reusable via -nodedb)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *export {
		return ttmcas.WriteNodeDatabase(os.Stdout, nil)
	}
	t := report.NewTable("process-node database",
		"node", "kW/month", "D0 (/cm2)", "MTr/mm2", "L_fab (wk)", "E_tapeout (h/MTr)", "wafer $", "mask set $")
	nodes := append(ttmcas.Nodes(), ttmcas.N12)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] > nodes[j] })
	for _, n := range nodes {
		p, err := ttmcas.LookupNode(n)
		if err != nil {
			return err
		}
		t.AddRow(n.String(), report.Fmt1(p.WaferRate.KWPMValue()), fmt.Sprintf("%.2f", float64(p.DefectDensity)),
			report.Fmt1(float64(p.Density)), report.Fmt1(float64(p.FabLatency)),
			report.Fmt1(p.TapeoutEffort), fmt.Sprintf("%.0f", float64(p.WaferCost)),
			fmt.Sprintf("%.2fM", p.MaskSetCost.Millions()))
	}
	fmt.Print(t.String())
	return nil
}

func cmdScenarios() error {
	t := report.NewTable("market scenarios", "name", "description", "conditions")
	for _, s := range ttmcas.Scenarios() {
		t.AddRow(s.Name, s.Description, s.Conditions.String())
	}
	fmt.Print(t.String())
	return nil
}

func cmdDesigns() error {
	t := report.NewTable("built-in designs", "name", "dies", "nodes", "N_TT/chip", "N_die/pkg", "study")
	for _, name := range ttmcas.DesignNames() {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			return err
		}
		nodes := make([]string, 0, 2)
		for _, n := range d.Nodes() {
			nodes = append(nodes, n.String())
		}
		t.AddRow(name, len(d.Dies), strings.Join(nodes, "+"),
			fmt.Sprintf("%.2fB", d.TotalTransistorsPerChip().Billions()),
			d.DiesPerPackage(), ttmcas.DesignStudy(name))
	}
	fmt.Print(t.String())
	return nil
}

func cmdTTM(args []string) error {
	df := newDesignFlags("ttm")
	d, c, err := df.parse(args)
	if err != nil {
		return err
	}
	m := ttmcas.Model{Nodes: df.db}
	r, err := m.Evaluate(d, *df.n, c)
	if err != nil {
		return err
	}
	fmt.Printf("design %s, %s chips, %s\n\n", d.Name, report.FmtSI(*df.n), c)
	t := report.NewTable("phase breakdown", "phase", "weeks")
	t.AddRow("design+implementation", report.Fmt1(float64(r.DesignTime)))
	t.AddRow("tapeout", report.Fmt1(float64(r.Tapeout)))
	t.AddRow("fabrication", report.Fmt1(float64(r.Fabrication)))
	t.AddRow("packaging", report.Fmt1(float64(r.Packaging)))
	t.AddRow("TTM", report.Fmt1(float64(r.TTM)))
	fmt.Print(t.String())
	dt := report.NewTable("\nper die", "die", "node", "area (mm2)", "yield", "gross/wafer", "wafers")
	for _, die := range r.Dies {
		dt.AddRow(die.Name, die.Node.String(), report.Fmt1(float64(die.Area)),
			fmt.Sprintf("%.3f", die.Yield), report.Fmt1(die.GrossPerWafer),
			fmt.Sprintf("%.0f", float64(die.Wafers)))
	}
	fmt.Print(dt.String())
	nt := report.NewTable("\nper node (critical: "+r.CriticalNode.String()+")",
		"node", "wafers", "queue (wk)", "production (wk)", "total (wk)")
	for _, nf := range r.Nodes {
		nt.AddRow(nf.Node.String(), fmt.Sprintf("%.0f", float64(nf.Wafers)),
			report.Fmt1(float64(nf.Queue)), report.Fmt1(float64(nf.Production)),
			report.Fmt1(float64(nf.FabTotal)))
	}
	fmt.Print(nt.String())
	return nil
}

func cmdCAS(args []string) error {
	df := newDesignFlags("cas")
	curve := df.fs.Bool("curve", false, "print the CAS/TTM curve over 20%..100% capacity")
	d, c, err := df.parse(args)
	if err != nil {
		return err
	}
	m := ttmcas.Model{Nodes: df.db}
	if *curve {
		fracs := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
		pts, err := m.CASCurve(d, *df.n, c, fracs)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("CAS curve: %s, %s chips", d.Name, report.FmtSI(*df.n)),
			"capacity", "TTM (wk)", "CAS (wafers/week2)")
		for _, p := range pts {
			t.AddRow(fmt.Sprintf("%.0f%%", p.Capacity*100), report.Fmt1(float64(p.TTM)), fmt.Sprintf("%.0f", p.CAS))
		}
		fmt.Print(t.String())
		return nil
	}
	r, err := m.CAS(d, *df.n, c)
	if err != nil {
		return err
	}
	fmt.Printf("design %s, %s chips, %s\n", d.Name, report.FmtSI(*df.n), c)
	fmt.Printf("CAS = %.0f wafers/week²\n", r.CAS)
	for _, node := range d.Nodes() {
		fmt.Printf("  |∂TTM/∂μ_W(%s)| = %.3g weeks per wafer/week\n", node, r.Derivatives[node])
	}
	return nil
}

func cmdCost(args []string) error {
	df := newDesignFlags("cost")
	d, _, err := df.parse(args)
	if err != nil {
		return err
	}
	cm := ttmcas.CostModel{Nodes: df.db}
	b, err := cm.Evaluate(d, *df.n)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("chip creation cost: %s, %s chips", d.Name, report.FmtSI(*df.n)),
		"component", "USD")
	t.AddRow("mask sets (NRE)", fmtUSD(b.MaskNRE))
	t.AddRow("tapeout labor (NRE)", fmtUSD(b.TapeoutNRE))
	t.AddRow(fmt.Sprintf("wafers (%.0f)", float64(b.WaferCount)), fmtUSD(b.Wafers))
	t.AddRow("test/assembly/packaging", fmtUSD(b.Packaging))
	t.AddRow("total", fmtUSD(b.Total))
	t.AddRow("per chip", fmt.Sprintf("$%.2f", float64(b.PerChip)))
	fmt.Print(t.String())
	return nil
}

func cmdSense(args []string) error {
	df := newDesignFlags("sense")
	samples := df.fs.Int("samples", 512, "Saltelli base sample count")
	d, c, err := df.parse(args)
	if err != nil {
		return err
	}
	res, err := ttmcas.Sensitivity(context.Background(), ttmcas.Model{Nodes: df.db}, d, *df.n, c, ttmcas.SensitivityConfig{N: *samples})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Sobol sensitivity of TTM: %s, %s chips (N=%d)", d.Name, report.FmtSI(*df.n), *samples),
		"input", "S_T (total effect)", "S1 (first order)")
	for i, name := range res.Inputs {
		t.AddRow(name, fmt.Sprintf("%.3f", res.Total[i]), fmt.Sprintf("%.3f", res.First[i]))
	}
	fmt.Print(t.String())
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	designs := fs.String("designs", "", "comma-separated design names (default: one design across -nodes)")
	designName := fs.String("design", "a11", "design to sweep across -nodes when -designs is empty")
	nodesFlag := fs.String("nodes", "", "comma-separated nodes to re-target the design to (e.g. 28,14,7)")
	n := fs.Float64("n", 10e6, "number of final chips")
	capacity := fs.Float64("capacity", 1.0, "global production capacity fraction in [0, 1]; 0 means full")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := market.Inputs{Capacity: *capacity}.Conditions()
	if err != nil {
		return err
	}

	var rows []ttmcas.Design
	switch {
	case *designs != "":
		for _, name := range strings.Split(*designs, ",") {
			d, err := ttmcas.DesignByName(name)
			if err != nil {
				return err
			}
			rows = append(rows, d)
		}
	case *nodesFlag != "":
		for _, ns := range strings.Split(*nodesFlag, ",") {
			d, err := ttmcas.DesignAt(*designName, strings.TrimSpace(ns))
			if err != nil {
				return err
			}
			rows = append(rows, d)
		}
	default:
		return fmt.Errorf("compare needs -designs or -nodes")
	}

	t := report.NewTable(fmt.Sprintf("comparison at %s chips, %.0f%% capacity", report.FmtSI(*n), c.GlobalCapacity*100),
		"design", "TTM (wk)", "CAS (w/wk²)", "cost", "per chip")
	for _, d := range rows {
		r, err := ttmcas.Evaluate(d, *n, c)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		cas, err := ttmcas.CAS(d, *n, c)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		b, err := ttmcas.Cost(d, *n)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		t.AddRow(d.Name, report.Fmt1(float64(r.TTM)), fmt.Sprintf("%.0f", cas.CAS),
			fmtUSD(b.Total), fmt.Sprintf("$%.2f", float64(b.PerChip)))
	}
	fmt.Print(t.String())
	return nil
}

func cmdFigure(kind string, args []string) error {
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	fast := fs.Bool("fast", false, "reduced sampling budgets (quick, noisier error bars)")
	svgDir := fs.String("svg", "", "also write the figure's SVG panels into this directory")
	// Accept both `figure 3 -fast` and `figure -fast 3`.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case id == "" && fs.NArg() == 1:
		id = fs.Arg(0)
	case id == "" || fs.NArg() != 0:
		return fmt.Errorf("usage: ttmcas %s <id> [-fast]", kind)
	}
	if kind == "table" {
		id = "t" + strings.TrimPrefix(id, "t")
	}
	cfg := ttmcas.FigureConfig{}
	if *fast {
		cfg = ttmcas.FastFigures()
	}
	r, err := ttmcas.Figure(id, cfg)
	if err != nil {
		return err
	}
	fmt.Println(r.Render())
	if *svgDir != "" {
		if err := writeCharts(*svgDir, r); err != nil {
			return err
		}
	}
	return nil
}

func cmdBreakEven(args []string) error {
	fs := flag.NewFlagSet("breakeven", flag.ContinueOnError)
	designName := fs.String("design", "a11", "architecture to compare")
	aFlag := fs.String("a", "28", "first node")
	bFlag := fs.String("b", "5", "second node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := ttmcas.DesignByName(*designName)
	if err != nil {
		return err
	}
	na, err := ttmcas.ParseNode(*aFlag)
	if err != nil {
		return err
	}
	nb, err := ttmcas.ParseNode(*bFlag)
	if err != nil {
		return err
	}
	var cm ttmcas.CostModel
	da, db := base.Retarget(na), base.Retarget(nb)
	fa, va, err := cm.Affine(da)
	if err != nil {
		return err
	}
	fb, vb, err := cm.Affine(db)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("cost structure of %s", base.Name),
		"node", "NRE (fixed)", "per chip (variable)")
	t.AddRow(na.String(), fmtUSD(fa), fmt.Sprintf("$%.4f", float64(va)))
	t.AddRow(nb.String(), fmtUSD(fb), fmt.Sprintf("$%.4f", float64(vb)))
	fmt.Print(t.String())
	n, err := cm.BreakEven(da, db)
	if errors.Is(err, cost.ErrNoBreakEven) {
		fmt.Printf("\nno break-even: one node dominates at every volume\n")
		return nil
	}
	if err != nil {
		return err
	}
	cheapLow, cheapHigh := na, nb
	if vb > va {
		cheapLow, cheapHigh = nb, na
	}
	fmt.Printf("\nbreak-even at %s chips: below it %s is cheaper, above it %s is\n",
		report.FmtSI(n), cheapLow, cheapHigh)
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	designName := fs.String("design", "raven", "architecture to plan for")
	n := fs.Float64("n", 1e9, "number of final chips")
	deadline := fs.Float64("deadline", 0, "latest acceptable TTM in weeks (0 = unconstrained)")
	budget := fs.Float64("budget", 0, "largest acceptable cost in USD (0 = unconstrained)")
	minCAS := fs.Float64("min-cas", 0, "lowest acceptable agility score (0 = unconstrained)")
	multi := fs.Bool("multi", true, "also explore two-process splits")
	top := fs.Int("top", 8, "how many ranked alternatives to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := ttmcas.DesignByName(*designName)
	if err != nil {
		return err
	}
	planner := plan.Default(func(node ttmcas.Node) ttmcas.Design { return base.Retarget(node) })
	planner.MultiProcess = *multi
	req := plan.Requirements{
		Volume:   *n,
		Deadline: ttmcas.Weeks(*deadline),
		Budget:   ttmcas.USD(*budget),
		MinCAS:   *minCAS,
	}
	best, all, err := planner.Recommend(req)
	switch {
	case err == nil:
		fmt.Printf("recommended plan for %s chips of %s: %s\n\n", report.FmtSI(*n), base.Name, best.Name)
	case errors.Is(err, plan.ErrNoFeasiblePlan):
		fmt.Printf("no plan satisfies the constraints; nearest candidates:\n\n")
	default:
		return err
	}
	t := report.NewTable("ranked plans (CAS-first, the §7 objective)",
		"plan", "TTM (wk)", "CAS (w/wk²)", "cost", "feasible")
	for i, o := range all {
		if i >= *top {
			break
		}
		status := "yes"
		if !o.Feasible {
			status = strings.Join(o.Violations, "; ")
		}
		t.AddRow(o.Name, report.Fmt1(float64(o.TTM)), fmt.Sprintf("%.0f", o.CAS), fmtUSD(o.Cost), status)
	}
	fmt.Print(t.String())
	return nil
}

// writeCharts renders a figure's SVG panels into dir.
func writeCharts(dir string, r *ttmcas.FigureResult) error {
	charts := figures.BuildCharts(r)
	if len(charts) == 0 {
		fmt.Fprintf(os.Stderr, "ttmcas: %s has no chart panels (tables render as text only)\n", r.ID)
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ch := range charts {
		path := dir + "/" + ch.Name + ".svg"
		if err := os.WriteFile(path, []byte(ch.SVG), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fast := fs.Bool("fast", false, "reduced sampling budgets")
	svgDir := fs.String("svg", "", "also write every figure's SVG panels into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := ttmcas.FigureConfig{}
	if *fast {
		cfg = ttmcas.FastFigures()
	}
	for _, id := range ttmcas.FigureIDs() {
		r, err := ttmcas.Figure(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(r.Render())
		if *svgDir != "" {
			if err := writeCharts(*svgDir, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func cmdFabsim(args []string) error {
	fs := flag.NewFlagSet("fabsim", flag.ContinueOnError)
	node := fs.String("node", "28nm", "process node for rate/latency defaults")
	wafers := fs.Float64("wafers", 50_000, "wafers in the order")
	queueWafers := fs.Float64("queue-wafers", 0, "wafers committed ahead of the order")
	disrupt := fs.String("disrupt", "", "capacity schedule 'week:fraction,...' (e.g. 2:0.5,6:1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := ttmcas.ParseNode(*node)
	if err != nil {
		return err
	}
	line, err := ttmcas.FabLineFor(n)
	if err != nil {
		return err
	}
	var ds []ttmcas.FabDisruption
	if *disrupt != "" {
		for _, part := range strings.Split(*disrupt, ",") {
			kv := strings.SplitN(part, ":", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad -disrupt entry %q", part)
			}
			wk, err := strconv.ParseFloat(kv[0], 64)
			if err != nil {
				return fmt.Errorf("bad -disrupt week %q: %w", kv[0], err)
			}
			fr, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return fmt.Errorf("bad -disrupt fraction %q: %w", kv[1], err)
			}
			ds = append(ds, ttmcas.FabDisruption{AtWeek: ttmcas.Weeks(wk), Fraction: fr})
		}
	}
	res, err := ttmcas.SimulateFab(line, *wafers, *queueWafers, ds)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("fabsim: %.0f wafers at %s (%.0f wafers queued ahead)", *wafers, n, *queueWafers),
		"milestone", "week")
	t.AddRow("queue drained", report.Fmt1(float64(res.QueueDrained)))
	t.AddRow(fmt.Sprintf("last lot started (%d lots)", res.LotsStarted), report.Fmt1(float64(res.LastStart)))
	t.AddRow("last lot out of fab", report.Fmt1(float64(res.LastFabComplete)))
	t.AddRow("last lot packaged", report.Fmt1(float64(res.LastPackaged)))
	fmt.Print(t.String())
	return nil
}

func fmtUSD(u ttmcas.USD) string {
	switch v := float64(u); {
	case v >= 1e9:
		return fmt.Sprintf("$%.2fB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("$%.1fM", v/1e6)
	default:
		return fmt.Sprintf("$%.0f", v)
	}
}
