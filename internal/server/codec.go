package server

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// The what-if path — an evaluation request under new market conditions,
// which misses both caches — spends more time in reflective JSON than in
// the model. This file replaces encoding/json there with append-built
// code for the fixed types: the canonical key of a spec-free
// EvalRequest, the TTM, CAS and cost response bodies, and an accept-only
// scanner for plain EvalRequest bodies. Every output is byte-identical
// to encoding/json's, errors included (FuzzEvalCodec is the oracle);
// anything outside the fixed shapes still goes through encoding/json.

// appendJSON appends v's encoding/json encoding, newline-terminated as
// Encoder.Encode writes it, to dst when v is one of the fixed what-if
// types. ok is false for any other value (and for spec-bearing
// requests), which the caller encodes with encoding/json. On error dst
// is returned unchanged, as Encoder.Encode writes nothing on error.
func appendJSON(dst []byte, v any) (out []byte, ok bool, err error) {
	a := jsonAppender{b: dst}
	switch v := v.(type) {
	case EvalRequest:
		return appendJSON(dst, &v)
	case *EvalRequest:
		if v == nil || v.Spec != nil {
			return dst, false, nil
		}
		a.evalRequest(v)
	case TTMResponse:
		a.ttm(&v)
	case CASResponse:
		a.cas(&v)
	case CostResponse:
		a.cost(&v)
	default:
		return dst, false, nil
	}
	if a.err != nil {
		return dst, true, a.err
	}
	return append(a.b, '\n'), true, nil
}

// jsonAppender appends encoding/json's encoding of the fixed types to b.
// The first unencodable value is kept in err; later output is discarded.
type jsonAppender struct {
	b   []byte
	err error
}

// key opens an object member: a comma unless it is the first, then the
// quoted name, which must need no escaping.
func (a *jsonAppender) key(name string) {
	if a.b[len(a.b)-1] != '{' {
		a.b = append(a.b, ',')
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, name...)
	a.b = append(a.b, '"', ':')
}

// num and text append one member with a float or string value.
func (a *jsonAppender) num(name string, f float64) { a.key(name); a.float(f) }
func (a *jsonAppender) text(name, s string)        { a.key(name); a.str(s) }

// optNum and optText append an omitempty member unless it is zero.
func (a *jsonAppender) optNum(name string, f float64) {
	if f != 0 {
		a.num(name, f)
	}
}

func (a *jsonAppender) optText(name, s string) {
	if s != "" {
		a.text(name, s)
	}
}

// float appends f as encoding/json does: the shortest 'f' form, or 'e'
// with a single-digit negative exponent cleaned up (1e-07 → 1e-7) for
// magnitudes below 1e-6 or from 1e21 up. NaN and ±Inf are encoding/json's
// UnsupportedValueError.
func (a *jsonAppender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if a.err == nil {
			a.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	a.b = b
}

// str appends s quoted. Plain printable ASCII free of `"\<>&` is copied
// as is; any other string takes encoding/json's own string encoding,
// which owns HTML escaping, U+2028/U+2029 and invalid UTF-8.
func (a *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			a.b = append(a.b, q...)
			return
		}
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, s...)
	a.b = append(a.b, '"')
}

// optMap appends an omitempty map member unless the map is empty, its
// keys in encoding/json's order.
func (a *jsonAppender) optMap(name string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	var buf [8]string
	a.key(name)
	a.b = append(a.b, '{')
	for i, k := range sortedKeys(buf[:0], m) {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.str(k)
		a.b = append(a.b, ':')
		a.float(m[k])
	}
	a.b = append(a.b, '}')
}

// sortedKeys appends m's keys to dst in byte order, the order
// encoding/json writes map members in.
func sortedKeys(dst []string, m map[string]float64) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendArray appends xs as an array, each element by elem, or null
// when xs is nil.
func appendArray[T any](a *jsonAppender, xs []T, elem func(*T)) {
	if xs == nil {
		a.b = append(a.b, "null"...)
		return
	}
	a.b = append(a.b, '[')
	for i := range xs {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		elem(&xs[i])
	}
	a.b = append(a.b, ']')
}

// evalRequest appends a spec-free request: the canonical cache key.
func (a *jsonAppender) evalRequest(r *EvalRequest) {
	a.b = append(a.b, '{')
	a.optText("design", r.Design)
	a.optText("node", r.Node)
	a.num("n", r.N)
	a.optText("scenario", r.Scenario)
	a.optNum("capacity", r.Capacity)
	a.optNum("queue_weeks", r.QueueWeeks)
	a.optMap("node_capacity", r.NodeCapacity)
	a.optMap("node_queue_weeks", r.NodeQueueWeeks)
	if len(r.Curve) > 0 {
		a.key("curve")
		appendArray(a, r.Curve, func(f *float64) { a.float(*f) })
	}
	if r.Samples != 0 {
		a.key("samples")
		a.b = strconv.AppendInt(a.b, int64(r.Samples), 10)
	}
	a.optNum("variation", r.Variation)
	if r.Seed != 0 {
		a.key("seed")
		a.b = strconv.AppendInt(a.b, r.Seed, 10)
	}
	a.b = append(a.b, '}')
}

func (a *jsonAppender) ttm(r *TTMResponse) {
	a.b = append(a.b, '{')
	a.text("design", r.Design)
	a.num("chips", r.Chips)
	a.text("conditions", r.Conditions)
	a.num("design_weeks", r.DesignWeeks)
	a.num("tapeout_weeks", r.TapeoutWeeks)
	a.num("fabrication_weeks", r.FabricationWeeks)
	a.num("packaging_weeks", r.PackagingWeeks)
	a.num("ttm_weeks", r.TTMWeeks)
	a.text("critical_node", r.CriticalNode)
	a.key("dies")
	appendArray(a, r.Dies, func(d *DieResponse) {
		a.b = append(a.b, '{')
		a.text("name", d.Name)
		a.text("node", d.Node)
		a.num("area_mm2", d.AreaMM2)
		a.num("yield", d.Yield)
		a.num("gross_per_wafer", d.GrossPerWafer)
		a.num("wafers", d.Wafers)
		a.b = append(a.b, '}')
	})
	a.key("nodes")
	appendArray(a, r.Nodes, func(n *NodeResponse) {
		a.b = append(a.b, '{')
		a.text("node", n.Node)
		a.num("wafers", n.Wafers)
		a.num("queue_weeks", n.QueueWeeks)
		a.num("production_weeks", n.ProductionWeeks)
		a.num("total_weeks", n.TotalWeeks)
		a.b = append(a.b, '}')
	})
	a.b = append(a.b, '}')
}

func (a *jsonAppender) cas(r *CASResponse) {
	a.b = append(a.b, '{')
	a.text("design", r.Design)
	a.num("chips", r.Chips)
	a.text("conditions", r.Conditions)
	a.num("cas", r.CAS)
	a.optMap("derivatives", r.Derivatives)
	if len(r.Curve) > 0 {
		a.key("curve")
		appendArray(a, r.Curve, func(p *CASPointResponse) {
			a.b = append(a.b, '{')
			a.num("capacity", p.Capacity)
			a.num("cas", p.CAS)
			if p.TTMWeeks != nil {
				a.num("ttm_weeks", *p.TTMWeeks)
			}
			if p.Stalled {
				a.key("stalled")
				a.b = append(a.b, "true"...)
			}
			a.b = append(a.b, '}')
		})
	}
	a.b = append(a.b, '}')
}

func (a *jsonAppender) cost(r *CostResponse) {
	a.b = append(a.b, '{')
	a.text("design", r.Design)
	a.num("chips", r.Chips)
	a.num("mask_nre_usd", r.MaskNREUSD)
	a.num("tapeout_nre_usd", r.TapeoutNREUSD)
	a.num("wafers_usd", r.WafersUSD)
	a.num("wafer_count", r.WaferCount)
	a.num("packaging_usd", r.PackagingUSD)
	a.num("total_usd", r.TotalUSD)
	a.num("per_chip_usd", r.PerChipUSD)
	a.b = append(a.b, '}')
}

// scanEvalRequest fills req from body when body has the plain common
// shape of a ttm, cas or cost request: one object of exact-case keys
// among design, node, n, scenario, capacity, queue_weeks,
// node_capacity, node_queue_weeks and curve, each at most once (a
// repeated map would merge in encoding/json); strings of printable ASCII
// without escapes; numbers in JSON grammar that strconv.ParseFloat
// accepts; no null; only whitespace around it.
// It reports false for any other body and leaves req untouched: the
// caller then decodes with decodeStrict, so encoding/json owns every
// rejection and every exotic input. Whatever it accepts, decodeStrict
// accepts too, into a reflect.DeepEqual struct.
func scanEvalRequest(body []byte, req *EvalRequest) bool {
	s := evalScanner{b: body}
	var r EvalRequest
	if !s.request(&r) || s.ws() != len(s.b) {
		return false
	}
	*req = r
	return true
}

// evalScanner walks a request body; i is the read offset.
type evalScanner struct {
	b []byte
	i int
}

// ws skips whitespace and returns the new offset.
func (s *evalScanner) ws() int {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i
}

// lit consumes c after optional whitespace.
func (s *evalScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the body.
func (s *evalScanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		if c := s.b[j]; c == '"' {
			t := s.b[s.i:j]
			s.i = j + 1
			return t, true
		} else if c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *evalScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// next consumes one byte if it is one of set.
func (s *evalScanner) next(set string) bool {
	if s.i < len(s.b) && strings.IndexByte(set, s.b[s.i]) >= 0 {
		s.i++
		return true
	}
	return false
}

// number scans a number in JSON grammar and returns its text.
func (s *evalScanner) number() ([]byte, bool) {
	start := s.ws()
	s.next("-")
	if !s.next("0") && !s.digits() {
		return nil, false
	}
	if s.next(".") && !s.digits() {
		return nil, false
	}
	if s.next("eE") {
		s.next("+-")
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// float scans a number the way encoding/json decodes a float64.
func (s *evalScanner) float(dst *float64) bool {
	t, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(t), 64)
	*dst = f
	return err == nil
}

func (s *evalScanner) text(dst *string) bool {
	t, ok := s.str()
	*dst = string(t)
	return ok
}

// list scans an array or object, open to close, each element by elem.
func (s *evalScanner) list(open, close byte, elem func() bool) bool {
	if !s.lit(open) {
		return false
	}
	if s.lit(close) {
		return true
	}
	for elem() {
		if !s.lit(',') {
			return s.lit(close)
		}
	}
	return false
}

func (s *evalScanner) floatMap(dst *map[string]float64) bool {
	m := make(map[string]float64)
	*dst = m
	return s.list('{', '}', func() bool {
		var f float64
		k, ok := s.str()
		if !ok || !s.lit(':') || !s.float(&f) {
			return false
		}
		m[string(k)] = f // a repeated key: the last wins, as in encoding/json
		return true
	})
}

func (s *evalScanner) floats(dst *[]float64) bool {
	*dst = make([]float64, 0, 8)
	return s.list('[', ']', func() bool {
		var f float64
		ok := s.float(&f)
		*dst = append(*dst, f)
		return ok
	})
}

// request scans the request object into r. Each key may appear once:
// seen holds a bit per key read.
func (s *evalScanner) request(r *EvalRequest) bool {
	var seen uint16
	return s.list('{', '}', func() bool {
		k, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		var bit uint16
		switch string(k) {
		case "design":
			bit, ok = 1<<0, s.text(&r.Design)
		case "node":
			bit, ok = 1<<1, s.text(&r.Node)
		case "n":
			bit, ok = 1<<2, s.float(&r.N)
		case "scenario":
			bit, ok = 1<<3, s.text(&r.Scenario)
		case "capacity":
			bit, ok = 1<<4, s.float(&r.Capacity)
		case "queue_weeks":
			bit, ok = 1<<5, s.float(&r.QueueWeeks)
		case "node_capacity":
			bit, ok = 1<<6, s.floatMap(&r.NodeCapacity)
		case "node_queue_weeks":
			bit, ok = 1<<7, s.floatMap(&r.NodeQueueWeeks)
		case "curve":
			bit, ok = 1<<8, s.floats(&r.Curve)
		default:
			return false
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
}
