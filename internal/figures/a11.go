package figures

import (
	"context"
	"fmt"
	"math"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/mc"
	"ttmcas/internal/report"
	"ttmcas/internal/scenario"
	"ttmcas/internal/sens"
	"ttmcas/internal/stats"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

func init() {
	register("3", fig3)
	register("t1", table1)
	register("t2", table2)
	register("7", fig7)
	register("8", fig8)
	register("9", fig9)
	register("10", fig10)
	register("11", fig11)
	register("12", fig12)
}

// Fig3Data pairs the two illustrative chips' curves.
type Fig3Data struct {
	Capacity []float64
	ChipA    []core.CASPoint
	ChipB    []core.CASPoint
}

func fig3(cfg Config) (*Result, error) {
	var m core.Model
	const n = 10e6
	caps := market.CapacitySweep(0.2, 1.0, cfg.capacityPoints())
	a, err := m.CASCurve(scenario.ChipA(), n, market.Full(), caps)
	if err != nil {
		return nil, err
	}
	b, err := m.CASCurve(scenario.ChipB(), n, market.Full(), caps)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("TTM and CAS vs production capacity (10M chips)",
		"capacity", "ChipA TTM (wk)", "ChipB TTM (wk)", "ChipA CAS", "ChipB CAS")
	for i := range caps {
		t.AddRow(percentHeader(caps[i]),
			report.Fmt1(float64(a[i].TTM)), report.Fmt1(float64(b[i].TTM)),
			report.Fmt1(a[i].CAS/1000), report.Fmt1(b[i].CAS/1000))
	}
	return &Result{
		ID:       "3",
		Title:    "TTM and CAS of illustrative Chips A and B (CAS in kilo-wafers/week²)",
		Sections: []string{t.String()},
		Data:     Fig3Data{Capacity: caps, ChipA: a, ChipB: b},
	}, nil
}

func table2(Config) (*Result, error) {
	t := report.NewTable("Estimated wafer production rates across process nodes",
		"node", "kWafers/month", "wafers/week", "in production")
	for _, node := range technode.All() {
		p := technode.MustLookup(node)
		t.AddRow(node.String(), report.Fmt1(p.WaferRate.KWPMValue()),
			report.Fmt1(float64(p.WaferRate)), fmt.Sprintf("%v", p.InProduction()))
	}
	return &Result{
		ID:       "t2",
		Title:    "Wafer production rates (Table 2 of the paper, verbatim)",
		Sections: []string{t.String()},
		Data:     technode.All(),
	}, nil
}

// Fig7Row is one node's bar of Fig. 7.
type Fig7Row struct {
	Node               technode.Node
	Tapeout, Fab, Pack units.Weeks
	TTM                mc.Estimate
	CI25               mc.Estimate
	Cost               units.USD
}

func fig7(cfg Config) (*Result, error) {
	var m core.Model
	var cm cost.Model
	const n = 10e6
	var rows []Fig7Row
	for _, node := range technode.Producing() {
		d := scenario.A11At(node)
		nom, err := m.Evaluate(d, n, market.Full())
		if err != nil {
			return nil, err
		}
		e10, err := mc.TTM(context.Background(), m, d, n, market.Full(), mc.Config{Samples: cfg.mcSamples(), Variation: 0.10})
		if err != nil {
			return nil, err
		}
		e25, err := mc.TTM(context.Background(), m, d, n, market.Full(), mc.Config{Samples: cfg.mcSamples(), Variation: 0.25})
		if err != nil {
			return nil, err
		}
		total, err := cm.Total(d, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Node: node, Tapeout: nom.Tapeout, Fab: nom.Fabrication, Pack: nom.Packaging,
			TTM: e10, CI25: e25, Cost: total,
		})
	}
	t := report.NewTable("TTM and cost for 10M A11 chips per process node",
		"node", "tapeout", "fab", "package", "TTM mean", "95% CI ±10%", "95% CI ±25%", "cost ($B)")
	for _, r := range rows {
		t.AddRow(r.Node.String(), report.Fmt1(float64(r.Tapeout)), report.Fmt1(float64(r.Fab)),
			report.Fmt1(float64(r.Pack)), report.Fmt1(r.TTM.Mean),
			fmt.Sprintf("[%.1f, %.1f]", r.TTM.CI.Lo, r.TTM.CI.Hi),
			fmt.Sprintf("[%.1f, %.1f]", r.CI25.CI.Lo, r.CI25.CI.Hi),
			report.Fmt2(r.Cost.Billions()))
	}
	return &Result{
		ID:       "7",
		Title:    "Time-to-market and chip creation cost for 10 million A11 chips",
		Sections: []string{t.String()},
		Data:     rows,
	}, nil
}

// Fig8Data is the sensitivity heatmap: Total[input][node], with
// bootstrap 95% CI half-widths in TotalCI.
type Fig8Data struct {
	Inputs  []string
	Nodes   []technode.Node
	Total   map[string]map[technode.Node]float64
	TotalCI map[string]map[technode.Node]stats.Interval
}

func fig8(cfg Config) (*Result, error) {
	var base core.Model
	const n = 10e6
	nodes := technode.Producing()
	data := Fig8Data{
		Inputs: core.Inputs, Nodes: nodes,
		Total:   map[string]map[technode.Node]float64{},
		TotalCI: map[string]map[technode.Node]stats.Interval{},
	}
	for _, in := range core.Inputs {
		data.Total[in] = map[technode.Node]float64{}
		data.TotalCI[in] = map[technode.Node]stats.Interval{}
	}
	for _, node := range nodes {
		ev, err := base.Compile(scenario.A11At(node), n, market.Full())
		if err != nil {
			return nil, err
		}
		res, err := sens.TotalEffectWithCI(context.Background(), core.Inputs,
			sens.Config{N: cfg.sobolN(), Variation: 0.10, Seed: 7}, 200, sens.TTMFactory(ev, nil))
		if err != nil {
			return nil, err
		}
		for i, in := range core.Inputs {
			data.Total[in][node] = res.Total[i]
			data.TotalCI[in][node] = res.TotalCI[i]
		}
	}
	cols := make([]string, len(nodes))
	for i, nd := range nodes {
		cols[i] = nd.String()
	}
	mx := report.NewMatrix("Total-effect index S_T by input and node (10M A11 chips)", core.Inputs, cols)
	mx.CornerTag = "input"
	ciMx := report.NewMatrix("bootstrap 95% CI half-width of S_T (200 resamples)", core.Inputs, cols)
	ciMx.CornerTag = "input"
	for i, in := range core.Inputs {
		for j, nd := range nodes {
			mx.Set(i, j, report.Fmt2(data.Total[in][nd]))
			ciMx.Set(i, j, fmt.Sprintf("±%.2f", data.TotalCI[in][nd].Width()/2))
		}
	}
	return &Result{
		ID:       "8",
		Title:    "Sobol sensitivity of A11 time-to-market (higher S_T = more output variance)",
		Sections: []string{mx.String(), ciMx.String()},
		Data:     data,
	}, nil
}

// Fig9Data holds per-node CAS band curves.
type Fig9Data struct {
	Nodes    []technode.Node
	Capacity []float64
	// Bands[node][i] aligns with Capacity.
	Bands map[technode.Node][]mc.Band
}

// fig9Nodes are the five most advanced producing nodes of Fig. 9.
var fig9Nodes = []technode.Node{technode.N40, technode.N28, technode.N14, technode.N7, technode.N5}

func fig9(cfg Config) (*Result, error) {
	var m core.Model
	const n = 10e6
	caps := market.CapacitySweep(0.2, 1.0, cfg.capacityPoints())
	data := Fig9Data{Nodes: fig9Nodes, Capacity: caps, Bands: map[technode.Node][]mc.Band{}}
	for _, node := range fig9Nodes {
		bands, err := mc.BandCurveEval(context.Background(), m, mc.Config{Samples: cfg.curveSamples()},
			scenario.A11At(node), n, market.Full(), caps, mc.MetricCAS, nil)
		if err != nil {
			return nil, err
		}
		data.Bands[node] = bands
	}
	t := report.NewTable("CAS vs production capacity for 10M A11 chips (mean [95% CI ±10%])",
		append([]string{"capacity"}, nodeNames(fig9Nodes)...)...)
	for i, c := range caps {
		row := []interface{}{percentHeader(c)}
		for _, node := range fig9Nodes {
			b := data.Bands[node][i]
			row = append(row, fmt.Sprintf("%.0f [%.0f, %.0f]", b.Mean/1000, b.CI10.Lo/1000, b.CI10.Hi/1000))
		}
		t.AddRow(row...)
	}
	return &Result{
		ID:       "9",
		Title:    "Chip Agility Score for 10 million A11 chips (kilo-wafers/week²)",
		Sections: []string{t.String()},
		Data:     data,
	}, nil
}

// Fig10Data is TTM[node][quantity].
type Fig10Data struct {
	Nodes      []technode.Node
	Quantities []float64
	TTM        map[technode.Node]map[float64]units.Weeks
	// Fastest[q] is the quickest node at quantity q (the blue outline
	// of the paper's matrix).
	Fastest map[float64]technode.Node
}

func fig10(Config) (*Result, error) {
	var m core.Model
	nodes := technode.Producing()
	data := Fig10Data{
		Nodes: nodes, Quantities: Quantities,
		TTM:     map[technode.Node]map[float64]units.Weeks{},
		Fastest: map[float64]technode.Node{},
	}
	for _, node := range nodes {
		data.TTM[node] = map[float64]units.Weeks{}
	}
	for _, q := range Quantities {
		best, bestTTM := technode.Node(0), math.Inf(1)
		for _, node := range nodes {
			ttm, err := m.TTM(scenario.A11At(node), q, market.Full())
			if err != nil {
				return nil, err
			}
			data.TTM[node][q] = ttm
			if float64(ttm) < bestTTM {
				best, bestTTM = node, float64(ttm)
			}
		}
		data.Fastest[q] = best
	}
	rows := make([]string, len(Quantities))
	for i, q := range Quantities {
		rows[i] = report.FmtSI(q)
	}
	mx := report.NewMatrix("TTM (weeks) for A11 by node and final chip count; * marks the fastest node per row",
		rows, nodeNames(nodes))
	mx.CornerTag = "chips"
	for i, q := range Quantities {
		for j, node := range nodes {
			cell := report.Fmt1(float64(data.TTM[node][q]))
			if data.Fastest[q] == node {
				cell += "*"
			}
			mx.Set(i, j, cell)
		}
	}
	return &Result{
		ID:       "10",
		Title:    "Time-to-market matrix for A11 chips",
		Sections: []string{mx.String()},
		Data:     data,
	}, nil
}

// QueueCurves holds Figs. 11/12 data: per queue length, a band curve
// over capacity.
type QueueCurves struct {
	QueueWeeks []units.Weeks
	Capacity   []float64
	Bands      map[units.Weeks][]mc.Band
}

var queueSweep = []units.Weeks{0, 1, 2, 4}

func queueStudy(cfg Config, metric mc.Metric) (QueueCurves, error) {
	var m core.Model
	const n = 10e6
	d := scenario.A11At(technode.N7)
	caps := market.CapacitySweep(0.25, 1.0, cfg.capacityPoints())
	data := QueueCurves{QueueWeeks: queueSweep, Capacity: caps, Bands: map[units.Weeks][]mc.Band{}}
	for _, q := range queueSweep {
		base := market.Full()
		if q > 0 {
			base = base.WithQueue(technode.N7, q)
		}
		bands, err := mc.BandCurveEval(context.Background(), m, mc.Config{Samples: cfg.curveSamples()},
			d, n, base, caps, metric, nil)
		if err != nil {
			return QueueCurves{}, err
		}
		data.Bands[q] = bands
	}
	return data, nil
}

func queueTable(title, unit string, data QueueCurves, scale float64) *report.Table {
	headers := []string{"capacity"}
	for _, q := range data.QueueWeeks {
		headers = append(headers, fmt.Sprintf("queue %.0fwk (%s)", float64(q), unit))
	}
	t := report.NewTable(title, headers...)
	for i, c := range data.Capacity {
		row := []interface{}{percentHeader(c)}
		for _, q := range data.QueueWeeks {
			b := data.Bands[q][i]
			row = append(row, fmt.Sprintf("%.1f [%.1f, %.1f]", b.Mean*scale, b.CI10.Lo*scale, b.CI10.Hi*scale))
		}
		t.AddRow(row...)
	}
	return t
}

func fig11(cfg Config) (*Result, error) {
	data, err := queueStudy(cfg, mc.MetricTTM)
	if err != nil {
		return nil, err
	}
	t := queueTable("TTM vs capacity by quoted queue (10M A11 chips at 7nm)", "wk", data, 1)
	return &Result{
		ID:       "11",
		Title:    "Time-to-market under foundry queues (T_fab,queue study)",
		Sections: []string{t.String()},
		Data:     data,
	}, nil
}

func fig12(cfg Config) (*Result, error) {
	data, err := queueStudy(cfg, mc.MetricCAS)
	if err != nil {
		return nil, err
	}
	t := queueTable("CAS vs capacity by quoted queue (10M A11 chips at 7nm)", "kW/wk²", data, 1.0/1000)
	return &Result{
		ID:       "12",
		Title:    "Chip Agility Score under foundry queues",
		Sections: []string{t.String()},
		Data:     data,
	}, nil
}

func nodeNames(nodes []technode.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.String()
	}
	return out
}

// table1 reproduces the paper's Table 1: the chip creation process
// model parameters, with this implementation's units and the module
// that owns each.
func table1(Config) (*Result, error) {
	t := report.NewTable("Chip creation process model parameters",
		"parameter", "explanation", "units here", "owned by")
	rows := [][4]string{
		{"N_TT", "Number of Total Transistors", "transistors", "design.Die.TotalTransistors"},
		{"N_UT", "Number of Unique/Unverified Transistors", "transistors", "design.Die.UniqueTransistors"},
		{"E_tapeout", "Tapeout Engineering Effort", "engineer-hours / M transistors", "technode.Params.TapeoutEffort"},
		{"N_W", "Number of Wafers", "wafers (expected)", "core.NodeFabResult.Wafers"},
		{"mu_W", "Wafer Production Rate of the Foundry", "wafers / week", "technode.Params.WaferRate"},
		{"L_fab", "Foundry Fabrication Latency", "weeks", "technode.Params.FabLatency"},
		{"n", "Number of Final Chips", "chips", "core.Model.Evaluate argument"},
		{"Y", "Die Yield", "fraction", "yield.Yield (Eq. 6)"},
		{"A_die", "Die Area", "mm^2", "design.Die.Area"},
		{"N_die_package", "Number of Dies per Package", "dies", "design.Design.DiesPerPackage"},
		{"L_TAP", "Testing, Assembly, and Packaging Latency", "weeks", "technode.Params.TAPLatency"},
		{"E_testing", "Testing Engineering Effort", "weeks / transistor tested", "technode.Params.TestingEffort"},
		{"E_packaging", "Packaging Engineering Effort", "weeks / (chip*mm^2)", "technode.Params.PackageEffort"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return &Result{
		ID:       "t1",
		Title:    "Model parameter glossary (Table 1 of the paper, mapped to this implementation)",
		Sections: []string{t.String()},
		Data:     rows,
	}, nil
}
