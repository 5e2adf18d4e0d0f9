package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecBodies are request bodies for the scanner's differential check:
// first the plain shapes it accepts (plainBodies), then every kind it
// must leave to encoding/json — exotic numbers and strings, escaped and
// case-folded keys, duplicates, null, wrong types, trailing data, a BOM.
var codecBodies = []string{
	`{}`,
	` { "design" : "a11" , "n" : 1e7 } `,
	`{"design":"a11","n":-0}`,
	`{"design":"a11","n":1e-7,"capacity":1e-7,"queue_weeks":1e-6}`,
	`{"design":"zen2","n":1e21,"queue_weeks":999999999999999999999}`,
	`{"design":"zen2","n":5e-324,"queue_weeks":5e-324}`,
	`{"design":"zen2","n":1.7976931348623157e308}`,
	`{"design":"zen2","n":1e-400}`,
	`{"design":"zen2","capacity":0.73,"queue_weeks":3.2,"node_capacity":{"7nm":0.5,"12nm":0.6},"curve":[0.3,0.4,0.5,0.6,0.7,0.8,0.9,1],"n":123456.5}`,
	`{"design":"zen2","node_queue_weeks":{"7nm":4,"12":0},"scenario":"fab-fire","node":"12nm","n":1E+5}`,
	`{"design":"a11","n":1,"node_capacity":{},"curve":[]}`,
	`{"design":"<a&b>","scenario":"fab-fire","node":"x<y","n":1}`,
	`{"design":"<a&b>","node":"x\u2028y","n":1}`,
	`{"design":"zen2","n":1e400}`,
	"{\"design\":\"<a&b>\u2028\",\"n\":1}",
	`{"spec":{"name":"<a&b>\u2028","dies":[{"node":"7nm","total_transistors":1e9}]},"n":1e6}`,
	"{\"design\":\"\xff\",\"n\":1}",
	"{\"node_capacity\":{\"\xfe7nm\":1},\"n\":1}",
	`{"design":"a\"11","n":1}`,
	`{"d\u0065sign":"a11","n":1}`,
	`{"Design":"a11","n":1}`,
	`{"design":"a11","design":"zen2","n":1}`,
	`{"design":"a11","n":1,"node_capacity":{"7nm":0.1,"7nm":0.2}}`,
	`{"design":"a11","n":1,"node_capacity":{"7nm":0.1},"node_capacity":{"12nm":0.2}}`,
	`{"design":null,"n":1}`,
	`{"design":"a11","n":1,"node_capacity":null}`,
	`{"design":"a11","n":1,"node_capacity":{"7nm":null}}`,
	`{"design":"a11","n":1,"samples":1.0}`,
	`{"design":"a11","n":1e6,"samples":16,"seed":3,"variation":0.2}`,
	`{"design":"a11","n":1} x`,
	`{"design":"a11","n":1}{"n":2}`,
	"\ufeff{\"design\":\"a11\",\"n\":1}",
	`{"design":"a11","n":01}`,
	`{"design":"a11","n":1.}`,
	`{"design":"a11","n":.5}`,
	`{"design":"a11","n":+1}`,
	`{"design":"a11","n":-}`,
	`{"design":"a11","n":1e}`,
	`{"design":"a11","n":"1"}`,
	`{"design":1,"n":1}`,
	`{"design":"a11","n":1,}`,
	`{"design":"a11" "n":1}`,
	`{"design":"a11","curve":[0.5,],"n":1}`,
	`{"design":"a11","curve":[0.5 0.6],"n":1}`,
	`{"design":"a11","n":1,"bogus":1}`,
	`{"design":"a11","n":1`,
	`[]`,
	``,
}

const plainBodies = 12

// codecFloats seed the response values: every float-format boundary
// encoding/json has, and the non-finite values it refuses.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 999999999999999999999, 5e-324, math.MaxFloat64,
	-1.5, 26.020833, 1e20, 123456789, math.NaN(), math.Inf(1), math.Inf(-1),
}

// codecStrings seed the response strings: plain, HTML-escaped, U+2028,
// invalid UTF-8, control bytes and quotes.
var codecStrings = []string{"a11", "", "<a&b>", "x<y", "x>y", "x\u2028y\u2029", "\xff\xfe", "tab\there", `q"uo\te`, "full capacity, 7nm×0.5"}

// FuzzEvalCodec is the append codec's differential oracle: encoding/json
// is the reference for all of it.
//   - Whenever scanEvalRequest accepts a body, decodeStrict accepts it
//     too, into a reflect.DeepEqual struct; a rejected body leaves the
//     struct untouched.
//   - The appended cache key of every decoded request, and of requests
//     built from the fuzzed values, equals encoding/json's bytes, as
//     does CacheKey.
//   - The appended TTMResponse, CASResponse and CostResponse bodies of
//     the fuzzed values, NaN and ±Inf included, equal encoding/json's
//     bytes, and any error is the same *json.UnsupportedValueError.
//
// The seeds run with plain `go test`; to fuzz:
//
//	go test -run '^$' -fuzz FuzzEvalCodec -fuzztime 60s ./internal/server
func FuzzEvalCodec(f *testing.F) {
	for i, body := range append(append([]string(nil), codecBodies...), evalSeeds...) {
		f.Add(body, codecFloats[i%len(codecFloats)], codecFloats[(i+5)%len(codecFloats)],
			codecStrings[i%len(codecStrings)], uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, body string, x, y float64, s string, shape uint8) {
		checkScan(t, []byte(body))
		for _, v := range codecValues(x, y, s, shape) {
			checkAppend(t, v)
		}
	})
}

// checkScan holds scanEvalRequest to decodeStrict on one body, and the
// decoded request's key to encoding/json.
func checkScan(t *testing.T, body []byte) {
	t.Helper()
	var want, got EvalRequest
	werr := decodeStrict(body, &want)
	if scanEvalRequest(body, &got) {
		if werr != nil {
			t.Fatalf("scanner accepted %q, decodeStrict rejects it: %v", body, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan of %q = %+v, decodeStrict %+v", body, got, want)
		}
	} else if !reflect.DeepEqual(got, EvalRequest{}) {
		t.Fatalf("scanner rejected %q but wrote %+v", body, got)
	}
	if werr == nil {
		checkAppend(t, want)
		checkAppend(t, &want)
	}
}

// checkAppend requires appendJSON, encodeJSON and, for requests,
// CacheKey to encode v exactly as a json.Encoder does.
func checkAppend(t *testing.T, v any) {
	t.Helper()
	var ref bytes.Buffer
	werr := json.NewEncoder(&ref).Encode(v)
	isReq, spec := false, false
	switch r := v.(type) {
	case EvalRequest:
		isReq, spec = true, r.Spec != nil
	case *EvalRequest:
		isReq, spec = true, r.Spec != nil
	}
	const prefix = "prefix"
	got, ok, err := appendJSON([]byte(prefix), v)
	if ok == spec {
		t.Fatalf("appendJSON(%T %+v) took it %v; only spec-bearing requests are declined", v, v, ok)
	}
	if ok {
		sameEncoding(t, v, ref.Bytes(), werr, got[len(prefix):], err)
		if err != nil && string(got) != prefix {
			t.Fatalf("appendJSON(%+v) failed yet wrote %q", v, got[len(prefix):])
		}
	}
	pooled, release, err := encodeJSON(v)
	sameEncoding(t, v, ref.Bytes(), werr, pooled, err)
	if err == nil {
		release()
	}
	if isReq {
		const route = "POST /v1/ttm"
		key, err := CacheKey(route, v)
		if err == nil && !strings.HasPrefix(key, route+"|") {
			t.Fatalf("CacheKey(%+v) = %q lacks the route prefix", v, key)
		}
		sameEncoding(t, v, ref.Bytes(), werr, []byte(strings.TrimPrefix(key, route+"|")), err)
	}
}

func sameEncoding(t *testing.T, v any, want []byte, werr error, got []byte, err error) {
	t.Helper()
	if werr != nil || err != nil {
		var wu, gu *json.UnsupportedValueError
		if !errors.As(werr, &wu) || !errors.As(err, &gu) || wu.Str != gu.Str || werr.Error() != err.Error() {
			t.Fatalf("encoding %+v: error %v, encoding/json %v", v, err, werr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding %+v:\n got %q\nwant %q", v, got, want)
	}
}

// codecValues builds a request and the three response types from fuzzed
// values; shape's bits choose nil, empty or filled slices and maps.
func codecValues(x, y float64, s string, shape uint8) []any {
	pick := func(bit uint8) int { // 0: nil, 1: empty, 2: filled
		switch {
		case shape&bit != 0:
			return 2
		case shape&(bit<<1) != 0:
			return 1
		}
		return 0
	}
	floatMap := func(n int) map[string]float64 {
		m := map[string]float64{s: x, "7nm": y, "12nm": x / y, "28": x * y, "7": -x}
		if n == 1 {
			return map[string]float64{}
		}
		for i := 0; shape&64 != 0 && i < 6; i++ {
			m[string(rune('a'+i))+s] = float64(i) * y
		}
		return m
	}
	req := EvalRequest{Design: s, Node: s, N: x, Scenario: s, Capacity: y, QueueWeeks: x * y,
		Samples: int(shape) - 128, Variation: y - x, Seed: int64(shape) << 40}
	ttm := TTMResponse{Design: s, Chips: x, Conditions: s, DesignWeeks: y, TapeoutWeeks: x / y,
		FabricationWeeks: -x, PackagingWeeks: x - y, TTMWeeks: x + y, CriticalNode: s}
	cas := CASResponse{Design: s, Chips: x, Conditions: s, CAS: y}
	switch pick(1) {
	case 2:
		req.NodeCapacity, req.Curve = floatMap(2), []float64{x, y, x * y}
		ttm.Dies = []DieResponse{{Name: s, Node: "7nm", AreaMM2: x, Yield: y, GrossPerWafer: x * y, Wafers: 1 / x}, {}}
		cas.Derivatives = floatMap(2)
	case 1:
		req.NodeCapacity, req.Curve = floatMap(1), []float64{}
		ttm.Dies = []DieResponse{}
		cas.Derivatives = floatMap(1)
	}
	switch pick(4) {
	case 2:
		req.NodeQueueWeeks = floatMap(2)
		ttm.Nodes = []NodeResponse{{Node: s, Wafers: x, QueueWeeks: y, ProductionWeeks: x / y, TotalWeeks: x + y}}
		cas.Curve = []CASPointResponse{{Capacity: x, CAS: y, TTMWeeks: &y}, {Capacity: y, CAS: x, Stalled: true}}
	case 1:
		req.NodeQueueWeeks = floatMap(1)
		ttm.Nodes = []NodeResponse{}
		cas.Curve = []CASPointResponse{}
	}
	cost := CostResponse{Design: s, Chips: x, MaskNREUSD: y, TapeoutNREUSD: x * y, WafersUSD: x / y,
		WaferCount: -y, PackagingUSD: x - y, TotalUSD: x + y, PerChipUSD: y / x}
	return []any{req, &req, ttm, cas, cost}
}

// TestScanAcceptsPlainBodies pins the scanner's reach: the plain what-if
// shapes take the fast path and decode as decodeStrict would.
func TestScanAcceptsPlainBodies(t *testing.T) {
	for _, body := range codecBodies[:plainBodies] {
		var got, want EvalRequest
		if !scanEvalRequest([]byte(body), &got) {
			t.Errorf("scanner declined %q", body)
		} else if err := decodeStrict([]byte(body), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("scan of %q = %+v; decodeStrict %+v, %v", body, got, want, err)
		}
	}
}

// TestCodecAppendsWithoutAllocating pins the append codec's cost: a key
// and a TTM, CAS and cost body appended into a buffer with room for them
// allocate nothing.
func TestCodecAppendsWithoutAllocating(t *testing.T) {
	ttmFor := 26.5
	values := []any{
		&EvalRequest{Design: "zen2", N: 123456.5, Capacity: 0.73, QueueWeeks: 3.2,
			NodeCapacity: map[string]float64{"7nm": 0.5, "12nm": 0.6},
			Curve:        []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}},
		benchPayload(),
		CASResponse{Design: "zen2", Chips: 1e6, Conditions: "capacity 73%", CAS: 1234.5,
			Derivatives: map[string]float64{"7nm": -2.5e-7, "12nm": 31.25},
			Curve:       []CASPointResponse{{Capacity: 0.3, CAS: 12, TTMWeeks: &ttmFor}, {Capacity: 0.4, Stalled: true}}},
		CostResponse{Design: "zen2", Chips: 1e6, MaskNREUSD: 1.5e7, TapeoutNREUSD: 2e6, WafersUSD: 3.25e8,
			WaferCount: 21000, PackagingUSD: 4e6, TotalUSD: 3.465e8, PerChipUSD: 346.5},
	}
	buf := make([]byte, 0, 4096)
	for _, v := range values {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok, err := appendJSON(buf[:0], v); !ok || err != nil {
				t.Fatalf("appendJSON(%T) = %v, %v", v, ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("appendJSON(%T) allocates %v times, want 0", v, allocs)
		}
	}
}
