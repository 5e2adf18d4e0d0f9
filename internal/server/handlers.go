package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"time"

	"ttmcas"
	"ttmcas/internal/cluster"
)

// ---- request types -------------------------------------------------

// EvalRequest is the shared request body of the evaluation routes:
// a design (by built-in name or inline spec), a chip count, and the
// market conditions to evaluate under — mirroring the CLI flags.
type EvalRequest struct {
	// Design names a built-in design (a11, zen2, ariane16, raven,
	// chipA, chipB); mutually exclusive with Spec.
	Design string `json:"design,omitempty"`
	// Spec is an inline design description.
	Spec *DesignSpec `json:"spec,omitempty"`
	// Node, when set, re-targets the design to this process node
	// ("28nm" or "28").
	Node string `json:"node,omitempty"`
	// N is the number of final chips.
	N float64 `json:"n"`
	// Scenario selects a named market scenario and overrides the
	// capacity/queue fields below.
	Scenario string `json:"scenario,omitempty"`
	// Capacity is the global production capacity fraction in (0, 1];
	// zero means full capacity.
	Capacity float64 `json:"capacity,omitempty"`
	// QueueWeeks quotes the same foundry lead time at every node.
	QueueWeeks float64 `json:"queue_weeks,omitempty"`
	// NodeCapacity scales individual nodes ("12nm": 0.6) on top of
	// Capacity; zero is a valid value (the line is down).
	NodeCapacity map[string]float64 `json:"node_capacity,omitempty"`
	// NodeQueueWeeks quotes per-node lead times ("7nm": 4).
	NodeQueueWeeks map[string]float64 `json:"node_queue_weeks,omitempty"`
	// Curve, for /v1/cas only, evaluates the CAS/TTM curve at these
	// global capacity fractions instead of a single point.
	Curve []float64 `json:"curve,omitempty"`
	// Samples, for /v1/sensitivity only, is the Saltelli base sample
	// count (default 512, max 8192).
	Samples int `json:"samples,omitempty"`
	// Variation, for /v1/sensitivity only, is the uniform half-range
	// of the input multipliers (default 0.10).
	Variation float64 `json:"variation,omitempty"`
	// Seed, for /v1/sensitivity only, fixes the sample stream.
	Seed int64 `json:"seed,omitempty"`
}

// DesignSpec is an inline design: the JSON shape of ttmcas.Design with
// process nodes as strings and explicit units in the field names.
type DesignSpec struct {
	Name            string    `json:"name,omitempty"`
	Dies            []DieSpec `json:"dies"`
	TapeoutTeam     int       `json:"tapeout_team,omitempty"`
	DesignTimeWeeks float64   `json:"design_time_weeks,omitempty"`
}

// DieSpec is one die type of an inline design.
type DieSpec struct {
	Name string `json:"name,omitempty"`
	// Node is the process node the die is fabricated at ("7nm").
	Node   string      `json:"node"`
	Blocks []BlockSpec `json:"blocks,omitempty"`
	// TotalTransistors and UniqueTransistors set N_TT and N_UT
	// directly when Blocks is empty.
	TotalTransistors  float64 `json:"total_transistors,omitempty"`
	UniqueTransistors float64 `json:"unique_transistors,omitempty"`
	CountPerPackage   int     `json:"count_per_package,omitempty"`
	AreaMM2           float64 `json:"area_mm2,omitempty"`
	MinAreaMM2        float64 `json:"min_area_mm2,omitempty"`
	YieldOverride     float64 `json:"yield_override,omitempty"`
	SkipTapeout       bool    `json:"skip_tapeout,omitempty"`
}

// BlockSpec is one reusable block of an inline die.
type BlockSpec struct {
	Name        string  `json:"name,omitempty"`
	Transistors float64 `json:"transistors"`
	Instances   int     `json:"instances,omitempty"`
	PreVerified bool    `json:"pre_verified,omitempty"`
}

// PlanRequest asks /v1/plan for a manufacturing plan recommendation.
type PlanRequest struct {
	Design        string      `json:"design,omitempty"`
	Spec          *DesignSpec `json:"spec,omitempty"`
	N             float64     `json:"n"`
	DeadlineWeeks float64     `json:"deadline_weeks,omitempty"`
	BudgetUSD     float64     `json:"budget_usd,omitempty"`
	MinCAS        float64     `json:"min_cas,omitempty"`
	// Multi also explores two-process splits; defaults to true.
	Multi *bool `json:"multi,omitempty"`
	// Top bounds the ranked alternatives returned (default 8).
	Top int `json:"top,omitempty"`
}

// ---- request resolution --------------------------------------------

func (spec *DesignSpec) design() (ttmcas.Design, error) {
	if len(spec.Dies) == 0 {
		return ttmcas.Design{}, badRequestf("inline spec needs at least one die")
	}
	d := ttmcas.Design{
		Name:        spec.Name,
		TapeoutTeam: spec.TapeoutTeam,
		DesignTime:  ttmcas.Weeks(spec.DesignTimeWeeks),
	}
	if d.Name == "" {
		d.Name = "inline"
	}
	for i, ds := range spec.Dies {
		node, err := ttmcas.ParseNode(ds.Node)
		if err != nil {
			return ttmcas.Design{}, badRequestf("die %d: %v", i, err)
		}
		die := ttmcas.Die{
			Name:            ds.Name,
			Node:            node,
			NTT:             ttmcas.Transistors(ds.TotalTransistors),
			NUT:             ttmcas.Transistors(ds.UniqueTransistors),
			CountPerPackage: ds.CountPerPackage,
			AreaOverride:    ttmcas.MM2(ds.AreaMM2),
			MinArea:         ttmcas.MM2(ds.MinAreaMM2),
			YieldOverride:   ds.YieldOverride,
			SkipTapeout:     ds.SkipTapeout,
		}
		for _, bs := range ds.Blocks {
			die.Blocks = append(die.Blocks, ttmcas.Block{
				Name:        bs.Name,
				Transistors: ttmcas.Transistors(bs.Transistors),
				Instances:   bs.Instances,
				PreVerified: bs.PreVerified,
			})
		}
		d.Dies = append(d.Dies, die)
	}
	if err := d.Validate(); err != nil {
		return ttmcas.Design{}, unprocessablef("invalid design: %v", err)
	}
	return d, nil
}

// resolveDesign turns the name/spec pair into a design, applying the
// optional re-target node.
func resolveDesign(name string, spec *DesignSpec, node string) (ttmcas.Design, error) {
	var d ttmcas.Design
	switch {
	case name != "" && spec != nil:
		return d, badRequestf(`"design" and "spec" are mutually exclusive`)
	case spec != nil:
		var err error
		if d, err = spec.design(); err != nil {
			return d, err
		}
	case name != "":
		var err error
		if d, err = ttmcas.DesignByName(name); err != nil {
			return d, badRequestf("%v", err)
		}
	default:
		return d, badRequestf(`request needs a "design" name or an inline "spec"`)
	}
	if node != "" {
		n, err := ttmcas.ParseNode(node)
		if err != nil {
			return d, badRequestf("%v", err)
		}
		d = d.Retarget(n)
	}
	return d, nil
}

// conditions builds the market conditions, mirroring the CLI: a named
// scenario overrides the explicit capacity/queue fields.
func (req EvalRequest) conditions() (ttmcas.Conditions, error) {
	if req.Scenario != "" {
		s, ok := ttmcas.FindScenario(req.Scenario)
		if !ok {
			return ttmcas.Conditions{}, badRequestf("unknown scenario %q", req.Scenario)
		}
		return s.Conditions, nil
	}
	c := ttmcas.FullCapacity()
	if req.Capacity != 0 {
		if req.Capacity < 0 || req.Capacity > 1 {
			return c, badRequestf("capacity %v outside (0, 1]", req.Capacity)
		}
		c = c.AtCapacity(req.Capacity)
	}
	if req.QueueWeeks < 0 {
		return c, badRequestf("negative queue_weeks %v", req.QueueWeeks)
	}
	if req.QueueWeeks > 0 {
		c = c.WithQueueAll(ttmcas.Weeks(req.QueueWeeks))
	}
	err := eachNode("node_capacity", req.NodeCapacity, func(n ttmcas.Node, name string, f float64) error {
		if f < 0 || f > 1 {
			return badRequestf("node_capacity[%s] = %v outside [0, 1]", name, f)
		}
		c = c.WithNodeCapacity(n, f)
		return nil
	})
	if err != nil {
		return c, err
	}
	err = eachNode("node_queue_weeks", req.NodeQueueWeeks, func(n ttmcas.Node, name string, w float64) error {
		if w < 0 {
			return badRequestf("node_queue_weeks[%s] = %v is negative", name, w)
		}
		c = c.WithQueue(n, ttmcas.Weeks(w))
		return nil
	})
	return c, err
}

// eachNode calls fn on the entries of the per-node map field in key
// order, so a body with several bad entries always names the same one.
// Two keys that spell one node ("7" and "7nm") are a 400: applied in
// map order, either could win, and one body would have two answers.
func eachNode(field string, m map[string]float64, fn func(n ttmcas.Node, name string, v float64) error) error {
	var buf [8]string
	names := sortedKeys(buf[:0], m)
	nodes := make([]ttmcas.Node, 0, 8)
	for _, name := range names {
		n, err := ttmcas.ParseNode(name)
		if err != nil {
			return badRequestf("%s: %v", field, err)
		}
		if j := slices.Index(nodes, n); j >= 0 {
			return badRequestf("%s: node %v given twice (%q, %q)", field, n, names[j], name)
		}
		nodes = append(nodes, n)
		if err := fn(n, name, m[name]); err != nil {
			return err
		}
	}
	return nil
}

func (req EvalRequest) resolve() (ttmcas.Design, ttmcas.Conditions, error) {
	d, err := resolveDesign(req.Design, req.Spec, req.Node)
	if err != nil {
		return d, ttmcas.Conditions{}, err
	}
	if req.N <= 0 {
		return d, ttmcas.Conditions{}, badRequestf(`"n" (number of chips) must be positive`)
	}
	c, err := req.conditions()
	return d, c, err
}

// ---- response types ------------------------------------------------

// TTMResponse is the JSON form of a full TTM evaluation.
type TTMResponse struct {
	Design           string         `json:"design"`
	Chips            float64        `json:"chips"`
	Conditions       string         `json:"conditions"`
	DesignWeeks      float64        `json:"design_weeks"`
	TapeoutWeeks     float64        `json:"tapeout_weeks"`
	FabricationWeeks float64        `json:"fabrication_weeks"`
	PackagingWeeks   float64        `json:"packaging_weeks"`
	TTMWeeks         float64        `json:"ttm_weeks"`
	CriticalNode     string         `json:"critical_node"`
	Dies             []DieResponse  `json:"dies"`
	Nodes            []NodeResponse `json:"nodes"`
}

// DieResponse details one die type of a TTM evaluation.
type DieResponse struct {
	Name          string  `json:"name"`
	Node          string  `json:"node"`
	AreaMM2       float64 `json:"area_mm2"`
	Yield         float64 `json:"yield"`
	GrossPerWafer float64 `json:"gross_per_wafer"`
	Wafers        float64 `json:"wafers"`
}

// NodeResponse decomposes one node's fabrication phase.
type NodeResponse struct {
	Node            string  `json:"node"`
	Wafers          float64 `json:"wafers"`
	QueueWeeks      float64 `json:"queue_weeks"`
	ProductionWeeks float64 `json:"production_weeks"`
	TotalWeeks      float64 `json:"total_weeks"`
}

// CASResponse reports a Chip Agility Score, and optionally the
// CAS/TTM curve when the request asked for one.
type CASResponse struct {
	Design      string             `json:"design"`
	Chips       float64            `json:"chips"`
	Conditions  string             `json:"conditions"`
	CAS         float64            `json:"cas"`
	Derivatives map[string]float64 `json:"derivatives,omitempty"`
	Curve       []CASPointResponse `json:"curve,omitempty"`
}

// CASPointResponse is one sample of a CAS/TTM curve. TTMWeeks is
// omitted (and Stalled set) where production never completes.
type CASPointResponse struct {
	Capacity float64  `json:"capacity"`
	CAS      float64  `json:"cas"`
	TTMWeeks *float64 `json:"ttm_weeks,omitempty"`
	Stalled  bool     `json:"stalled,omitempty"`
}

// CostResponse decomposes chip-creation cost.
type CostResponse struct {
	Design        string  `json:"design"`
	Chips         float64 `json:"chips"`
	MaskNREUSD    float64 `json:"mask_nre_usd"`
	TapeoutNREUSD float64 `json:"tapeout_nre_usd"`
	WafersUSD     float64 `json:"wafers_usd"`
	WaferCount    float64 `json:"wafer_count"`
	PackagingUSD  float64 `json:"packaging_usd"`
	TotalUSD      float64 `json:"total_usd"`
	PerChipUSD    float64 `json:"per_chip_usd"`
}

// SensitivityResponse holds Sobol indices per guarded input.
type SensitivityResponse struct {
	Design      string    `json:"design"`
	Chips       float64   `json:"chips"`
	Conditions  string    `json:"conditions"`
	Inputs      []string  `json:"inputs"`
	TotalEffect []float64 `json:"total_effect"`
	FirstOrder  []float64 `json:"first_order"`
	VarY        float64   `json:"var_y"`
	Evaluations int       `json:"evaluations"`
}

// PlanResponse ranks manufacturing plans; Recommended is nil when no
// plan satisfies the constraints.
type PlanResponse struct {
	Design      string               `json:"design"`
	Chips       float64              `json:"chips"`
	Feasible    bool                 `json:"feasible"`
	Recommended *PlanOptionResponse  `json:"recommended,omitempty"`
	Options     []PlanOptionResponse `json:"options"`
}

// PlanOptionResponse is one evaluated manufacturing plan.
type PlanOptionResponse struct {
	Name        string   `json:"name"`
	Primary     string   `json:"primary"`
	Secondary   string   `json:"secondary,omitempty"`
	FracPrimary float64  `json:"frac_primary,omitempty"`
	TTMWeeks    *float64 `json:"ttm_weeks,omitempty"`
	CostUSD     float64  `json:"cost_usd"`
	CAS         float64  `json:"cas"`
	Feasible    bool     `json:"feasible"`
	Violations  []string `json:"violations,omitempty"`
}

// finiteWeeks returns a pointer to w's value, or nil when it is not
// finite (production stalled) — JSON has no encoding for +Inf.
func finiteWeeks(w ttmcas.Weeks) *float64 {
	v := float64(w)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// ---- evaluation handlers -------------------------------------------

// evalRoute builds the handler of a cached evaluation route: it serves
// the request through respondCached, decoding the body into a fresh *T
// only when the raw-body lookup misses, and answers it with eval. A
// plain EvalRequest body is filled by the accept-only scanner; any
// other body, every rejection included, is decodeStrict's.
func evalRoute[T any](s *Server, route string, heavy bool, eval func(ctx context.Context, req *T) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.respondCached(w, r, route, heavy, func(body []byte) (any, func(ctx context.Context) (any, error), error) {
			req := new(T)
			if er, ok := any(req).(*EvalRequest); !ok || !scanEvalRequest(body, er) {
				if err := decodeStrict(body, req); err != nil {
					return nil, nil, err
				}
			}
			return req, func(ctx context.Context) (any, error) { return eval(ctx, req) }, nil
		})
	}
}

func (s *Server) evalTTM(_ context.Context, req *EvalRequest) (any, error) {
	d, c, err := req.resolve()
	if err != nil {
		return nil, err
	}
	ce, err := s.evaluatorFor(req, d, c)
	if err != nil {
		return nil, err
	}
	ev := ce.acquire(c)
	res, err := ev.EvalResultChips(ttmcas.Perturbation{}, req.N)
	ce.release(ev)
	if err != nil {
		return nil, unprocessablef("%v", err)
	}
	if finiteWeeks(res.TTM) == nil {
		return nil, unprocessablef("time-to-market is infinite under these conditions (a required node is at zero capacity)")
	}
	out := TTMResponse{
		Design:           d.Name,
		Chips:            req.N,
		Conditions:       c.String(),
		DesignWeeks:      float64(res.DesignTime),
		TapeoutWeeks:     float64(res.Tapeout),
		FabricationWeeks: float64(res.Fabrication),
		PackagingWeeks:   float64(res.Packaging),
		TTMWeeks:         float64(res.TTM),
		CriticalNode:     res.CriticalNode.String(),
	}
	for _, die := range res.Dies {
		out.Dies = append(out.Dies, DieResponse{
			Name: die.Name, Node: die.Node.String(), AreaMM2: float64(die.Area),
			Yield: die.Yield, GrossPerWafer: die.GrossPerWafer, Wafers: float64(die.Wafers),
		})
	}
	for _, nf := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeResponse{
			Node: nf.Node.String(), Wafers: float64(nf.Wafers),
			QueueWeeks: float64(nf.Queue), ProductionWeeks: float64(nf.Production),
			TotalWeeks: float64(nf.FabTotal),
		})
	}
	return out, nil
}

func (s *Server) evalCAS(_ context.Context, req *EvalRequest) (any, error) {
	d, c, err := req.resolve()
	if err != nil {
		return nil, err
	}
	out := CASResponse{Design: d.Name, Chips: req.N, Conditions: c.String()}
	ce, err := s.evaluatorFor(req, d, c)
	if err != nil {
		return nil, err
	}
	ev := ce.acquire(c)
	defer ce.release(ev)
	res, err := ev.CASResultChips(ttmcas.Perturbation{}, req.N)
	if err != nil {
		return nil, unprocessablef("%v", err)
	}
	out.CAS = res.CAS
	out.Derivatives = make(map[string]float64, len(res.Derivatives))
	for node, der := range res.Derivatives {
		out.Derivatives[node.String()] = der
	}
	if len(req.Curve) > s.cfg.MaxCurvePoints {
		return nil, unprocessablef("curve has %d points, max %d", len(req.Curve), s.cfg.MaxCurvePoints)
	}
	for i, f := range req.Curve {
		if f <= 0 || f > 1 {
			return nil, badRequestf("curve[%d] = %v outside (0, 1]", i, f)
		}
	}
	// The curve rides the same cached evaluator: each point is one
	// TTM pass plus the CAS stencil, all on the compiled kernel.
	for _, f := range req.Curve {
		ttm, err := ev.EvalChipsAtCapacity(ttmcas.Perturbation{}, req.N, f)
		if err != nil {
			return nil, unprocessablef("%v", err)
		}
		cas, err := ev.CASChipsAtCapacity(ttmcas.Perturbation{}, req.N, f)
		if err != nil {
			return nil, unprocessablef("%v", err)
		}
		fw := finiteWeeks(ttm)
		out.Curve = append(out.Curve, CASPointResponse{
			Capacity: f, CAS: cas, TTMWeeks: fw, Stalled: fw == nil,
		})
	}
	return out, nil
}

func (s *Server) evalCost(_ context.Context, req *EvalRequest) (any, error) {
	d, _, err := req.resolve()
	if err != nil {
		return nil, err
	}
	b, err := ttmcas.Cost(d, req.N)
	if err != nil {
		return nil, unprocessablef("%v", err)
	}
	return CostResponse{
		Design:        d.Name,
		Chips:         req.N,
		MaskNREUSD:    float64(b.MaskNRE),
		TapeoutNREUSD: float64(b.TapeoutNRE),
		WafersUSD:     float64(b.Wafers),
		WaferCount:    float64(b.WaferCount),
		PackagingUSD:  float64(b.Packaging),
		TotalUSD:      float64(b.Total),
		PerChipUSD:    float64(b.PerChip),
	}, nil
}

func (s *Server) evalSensitivity(_ context.Context, req *EvalRequest) (any, error) {
	// The sample count multiplies into N·(k+2) model evaluations:
	// a well-formed request can still ask for more work than the
	// server accepts, hence 422 rather than 400.
	if req.Samples < 0 || req.Samples > s.cfg.MaxSamples {
		return nil, unprocessablef("samples %d outside [0, %d]", req.Samples, s.cfg.MaxSamples)
	}
	d, c, err := req.resolve()
	if err != nil {
		return nil, err
	}
	cfg := ttmcas.SensitivityConfig{N: req.Samples, Variation: req.Variation, Seed: req.Seed}
	res, err := ttmcas.Sensitivity(d, req.N, c, cfg)
	if err != nil {
		return nil, unprocessablef("%v", err)
	}
	return SensitivityResponse{
		Design: d.Name, Chips: req.N, Conditions: c.String(),
		Inputs: res.Inputs, TotalEffect: res.Total, FirstOrder: res.First,
		VarY: res.VarY, Evaluations: res.Evaluations,
	}, nil
}

func (s *Server) evalPlan(_ context.Context, req *PlanRequest) (any, error) {
	d, err := resolveDesign(req.Design, req.Spec, "")
	if err != nil {
		return nil, err
	}
	if req.N <= 0 {
		return nil, badRequestf(`"n" (number of chips) must be positive`)
	}
	if req.DeadlineWeeks < 0 || req.BudgetUSD < 0 || req.MinCAS < 0 {
		return nil, badRequestf("constraints must be non-negative")
	}
	planner := ttmcas.NewPlanner(d)
	if req.Multi != nil {
		planner.MultiProcess = *req.Multi
	}
	best, all, err := planner.Recommend(ttmcas.PlanRequirements{
		Volume:   req.N,
		Deadline: ttmcas.Weeks(req.DeadlineWeeks),
		Budget:   ttmcas.USD(req.BudgetUSD),
		MinCAS:   req.MinCAS,
	})
	out := PlanResponse{Design: d.Name, Chips: req.N}
	switch {
	case err == nil:
		out.Feasible = true
		rec := planOption(best)
		out.Recommended = &rec
	case errors.Is(err, ttmcas.ErrNoFeasiblePlan):
		// Feasible stays false; the ranked nearest candidates
		// below tell the caller what to relax.
	default:
		return nil, unprocessablef("%v", err)
	}
	top := req.Top
	if top <= 0 {
		top = 8
	}
	for i, o := range all {
		if i >= top {
			break
		}
		out.Options = append(out.Options, planOption(o))
	}
	return out, nil
}

func planOption(o ttmcas.PlanOption) PlanOptionResponse {
	resp := PlanOptionResponse{
		Name:        o.Name,
		Primary:     o.Primary.String(),
		FracPrimary: o.FracPrimary,
		TTMWeeks:    finiteWeeks(o.TTM),
		CostUSD:     float64(o.Cost),
		CAS:         o.CAS,
		Feasible:    o.Feasible,
		Violations:  o.Violations,
	}
	if o.Secondary != 0 {
		resp.Secondary = o.Secondary.String()
	}
	return resp
}

// ---- read-only handlers --------------------------------------------

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := ttmcas.WriteNodeDatabase(&buf, nil); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// ScenarioResponse is one built-in market scenario.
type ScenarioResponse struct {
	Name           string             `json:"name"`
	Description    string             `json:"description"`
	Capacity       float64            `json:"capacity"`
	NodeCapacity   map[string]float64 `json:"node_capacity,omitempty"`
	NodeQueueWeeks map[string]float64 `json:"node_queue_weeks,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	out := make([]ScenarioResponse, 0)
	for _, sc := range ttmcas.Scenarios() {
		resp := ScenarioResponse{
			Name:        sc.Name,
			Description: sc.Description,
			Capacity:    sc.Conditions.GlobalCapacity,
		}
		if resp.Capacity == 0 {
			resp.Capacity = 1
		}
		for n, f := range sc.Conditions.NodeCapacity {
			if resp.NodeCapacity == nil {
				resp.NodeCapacity = make(map[string]float64)
			}
			resp.NodeCapacity[n.String()] = f
		}
		for n, q := range sc.Conditions.QueueWeeks {
			if resp.NodeQueueWeeks == nil {
				resp.NodeQueueWeeks = make(map[string]float64)
			}
			resp.NodeQueueWeeks[n.String()] = float64(q)
		}
		out = append(out, resp)
	}
	writeJSON(w, http.StatusOK, out)
}

// DesignResponse summarizes one built-in design.
type DesignResponse struct {
	Name               string   `json:"name"`
	Dies               int      `json:"dies"`
	Nodes              []string `json:"nodes"`
	TransistorsPerChip float64  `json:"transistors_per_chip"`
	DiesPerPackage     int      `json:"dies_per_package"`
	Study              string   `json:"study"`
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	out := make([]DesignResponse, 0)
	for _, name := range ttmcas.DesignNames() {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		nodes := make([]string, 0, 2)
		for _, n := range d.Nodes() {
			nodes = append(nodes, n.String())
		}
		out = append(out, DesignResponse{
			Name:               name,
			Dies:               len(d.Dies),
			Nodes:              nodes,
			TransistorsPerChip: float64(d.TotalTransistorsPerChip()),
			DiesPerPackage:     d.DiesPerPackage(),
			Study:              ttmcas.DesignStudy(name),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is the liveness probe and the cluster gossip payload:
// peers probing it learn this node's identity, uptime, and ring epoch,
// not just that something answered 200 on the port.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := cluster.Health{
		Status:  "ok",
		NodeID:  s.cfg.NodeID,
		UptimeS: time.Since(s.started).Seconds(),
	}
	if s.cluster != nil {
		h.RingEpoch = s.cluster.Epoch()
	}
	writeJSON(w, http.StatusOK, h)
}

// handleCluster reports the node's view of cluster membership: ring
// epoch and members, peer health states, and the routing counters.
// On a non-clustered node it answers {"enabled": false, ...} so
// operators can distinguish "solo" from "broken".
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, cluster.Status{
			Self: cluster.PeerStatus{ID: s.cfg.NodeID, State: "alive"},
		})
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.WriteTo(w)
}
