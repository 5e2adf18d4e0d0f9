package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"ttmcas"
	"ttmcas/internal/server"
)

// The correctness oracle. A sampled response is re-derived through the
// ttmcas facade (Compile + EvalResultChips/CASResultChips, Cost) from
// the parameters the benchmark generated, and every numeric field must
// match bit for bit; the serving stack's caches, forwarding and JSON
// encoding must not change a single value. A sampled job is re-run on a
// fresh single-node server after the timed phase and its result bytes
// must match, which for cluster-dist also proves scatter/gather
// byte-identical to a serial run.

// oracleEvery and jobOracleEvery set the sampling: 1 in 64 responses
// and 1 in 16 jobs.
const (
	oracleEvery    = 64
	jobOracleEvery = 16
)

// expected returns the response the server must send for q.
func expected(q *query) (any, error) {
	d, c, err := q.resolve()
	if err != nil {
		return nil, err
	}
	if q.route == routeCost {
		b, err := ttmcas.Cost(d, q.n)
		if err != nil {
			return nil, err
		}
		return server.CostResponse{
			Design: d.Name, Chips: q.n,
			MaskNREUSD: float64(b.MaskNRE), TapeoutNREUSD: float64(b.TapeoutNRE),
			WafersUSD: float64(b.Wafers), WaferCount: float64(b.WaferCount),
			PackagingUSD: float64(b.Packaging), TotalUSD: float64(b.Total), PerChipUSD: float64(b.PerChip),
		}, nil
	}
	ev, err := ttmcas.Compile(d, 1, c)
	if err != nil {
		return nil, err
	}
	if q.route == routeTTM {
		res, err := ev.EvalResultChips(ttmcas.Perturbation{}, q.n)
		if err != nil {
			return nil, err
		}
		if finite(float64(res.TTM)) == nil {
			return nil, fmt.Errorf("%s stalls under %s", d.Name, c)
		}
		out := server.TTMResponse{
			Design: d.Name, Chips: q.n, Conditions: c.String(),
			DesignWeeks: float64(res.DesignTime), TapeoutWeeks: float64(res.Tapeout),
			FabricationWeeks: float64(res.Fabrication), PackagingWeeks: float64(res.Packaging),
			TTMWeeks: float64(res.TTM), CriticalNode: res.CriticalNode.String(),
		}
		for _, die := range res.Dies {
			out.Dies = append(out.Dies, server.DieResponse{
				Name: die.Name, Node: die.Node.String(), AreaMM2: float64(die.Area),
				Yield: die.Yield, GrossPerWafer: die.GrossPerWafer, Wafers: float64(die.Wafers),
			})
		}
		for _, nf := range res.Nodes {
			out.Nodes = append(out.Nodes, server.NodeResponse{
				Node: nf.Node.String(), Wafers: float64(nf.Wafers), QueueWeeks: float64(nf.Queue),
				ProductionWeeks: float64(nf.Production), TotalWeeks: float64(nf.FabTotal),
			})
		}
		return out, nil
	}
	res, err := ev.CASResultChips(ttmcas.Perturbation{}, q.n)
	if err != nil {
		return nil, err
	}
	out := server.CASResponse{Design: d.Name, Chips: q.n, Conditions: c.String(), CAS: res.CAS,
		Derivatives: make(map[string]float64, len(res.Derivatives))}
	for node, der := range res.Derivatives {
		out.Derivatives[node.String()] = der
	}
	if q.curve {
		for _, f := range casCurve {
			ttm, err := ev.EvalChipsAtCapacity(ttmcas.Perturbation{}, q.n, f)
			if err != nil {
				return nil, err
			}
			cas, err := ev.CASChipsAtCapacity(ttmcas.Perturbation{}, q.n, f)
			if err != nil {
				return nil, err
			}
			w := finite(float64(ttm))
			out.Curve = append(out.Curve, server.CASPointResponse{Capacity: f, CAS: cas, TTMWeeks: w, Stalled: w == nil})
		}
	}
	return out, nil
}

func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// checkResponse re-derives q's answer and compares it with body.
func checkResponse(q *query, body []byte) error {
	want, err := expected(q)
	if err != nil {
		return fmt.Errorf("oracle: %s: %w", q.route, err)
	}
	got := reflect.New(reflect.TypeOf(want))
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(got.Interface()); err != nil {
		return fmt.Errorf("oracle: %s: decoding response: %w", q.route, err)
	}
	if field := diffBits(reflect.ValueOf(want), got.Elem(), "response"); field != "" {
		return fmt.Errorf("oracle: %s %s: %s differs from the facade", q.route, q.appendBody(nil), field)
	}
	return nil
}

// diffBits compares two values of one type, floats by their IEEE-754
// bits, and returns the path of the first difference ("" when equal).
// Slices and maps compare by length and elements, so an empty slice
// equals a nil one, as JSON's omitempty makes them.
func diffBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path + " length"
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + " length"
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]", path, iter.Key())
			}
			if d := diffBits(iter.Value(), bv, fmt.Sprintf("%s[%v]", path, iter.Key())); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return diffBits(a.Elem(), b.Elem(), path)
	default:
		if a.Interface() != b.Interface() {
			return path
		}
	}
	return ""
}

// jobSample is one sampled job and the result bytes it produced.
type jobSample struct {
	spec   []byte
	result []byte
}

// rerunJobs re-runs every sampled job on a fresh single-node server and
// returns how many results differ from the sampled bytes.
func rerunJobs(ctx context.Context, samples []jobSample) (mismatches int, err error) {
	if len(samples) == 0 {
		return 0, nil
	}
	st := startSingle()
	defer st.close()
	c := newCaller()
	for _, s := range samples {
		out, err := c.jobWorkflow(ctx, st.nodes[0], s.spec, nil)
		if err != nil {
			return mismatches, fmt.Errorf("oracle re-run: %w", err)
		}
		if !bytes.Equal(out.result, s.result) {
			mismatches++
		}
	}
	return mismatches, nil
}
