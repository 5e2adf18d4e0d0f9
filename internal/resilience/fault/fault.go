// Package fault makes failure paths testable: one seeded injector that
// adds latency, errors and panics to a node's routes, and latency,
// drops, connection resets and partitions to the links between cluster
// nodes. It is off unless a spec is supplied, and it drives the load
// generator's chaos and netsplit scenarios — the serving stack's
// degradation machinery and the cluster's breakers, retry budgets and
// gossip suspicion are only trustworthy if something exercises them.
//
// A spec is one or more rules separated by ';'. Each rule is a list of
// key=value fields separated by whitespace:
//
//	route=/v1/ttm latency=50ms latency-rate=0.02 error-rate=0.05 panics=1
//	to=10.0.0.3:8080 latency=20ms error-rate=0.1 reset-rate=0.01
//	partition=10.0.0.1:8080->10.0.0.3:8080
//
// The scope fields pick the rule's layer:
//
//	route        request-path prefix of a route rule ("*" matches all); a
//	             rule with no scope field is a route rule for every path
//	from, to     source and destination endpoint of a link rule
//	             (host:port; "*" matches all)
//	partition    a link rule blocking all traffic between two endpoints:
//	             "a,b" (both directions) or "a->b" (only a's requests to
//	             b); it takes no other field
//
// The fault fields:
//
//	latency      injected delay before the request proceeds
//	latency-rate probability of the delay (default 1 when latency is set)
//	error-rate   probability of failing the request with ErrInjected; on
//	             a link the request is dropped before any I/O
//	panics       route rules only: total panics injected over the
//	             injector's life
//	reset-rate   link rules only: probability that the request is
//	             delivered but its response destroyed, so the caller
//	             cannot tell whether the peer acted on it — the case an
//	             idempotency gate exists for
//
// A rule that mixes layers, injects nothing, or adds a field to a
// partition is a parse error. Every rule that matches a request
// applies: latencies add, and any drawn error fails the request.
// Endpoints are host:port strings (a peer URL minus its scheme). The
// route layer calls Inject with the request path; the link layer wraps
// a node's outbound transport with Bind(self).Transport, and matches
// from= against self and to= against the request URL's host.
//
// Decisions are drawn from one deterministic splitmix64 stream, so a
// fixed seed reproduces a fault sequence exactly. Pause and Resume flip
// the whole injector atomically, which is how harnesses warm caches
// faultlessly and open and heal a partition mid-run.
package fault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks a deliberately injected error — a failed route or
// a dropped link request — so callers can tell chaos from genuine
// failures.
var ErrInjected = errors.New("fault: injected error")

// ErrPartitioned marks a request blocked by a partition rule: no route
// between the two endpoints.
var ErrPartitioned = errors.New("fault: link partitioned")

// ErrReset marks a request whose response was destroyed after
// delivery: the caller cannot know whether the peer acted on it.
var ErrReset = errors.New("fault: connection reset")

// Rule is one parsed spec rule. Exactly one layer is set: Route for a
// route rule, From and To (or a partition) for a link rule; unscoped
// patterns are "*".
type Rule struct {
	Route    string
	From, To string
	// PartitionA and PartitionB name a blocked endpoint pair;
	// Directional limits the block to A's requests toward B.
	PartitionA, PartitionB string
	Directional            bool

	Latency     time.Duration
	LatencyRate float64
	ErrorRate   float64
	Panics      int
	ResetRate   float64
}

// Link reports whether the rule shapes links between nodes rather than
// a node's routes.
func (r Rule) Link() bool { return r.Route == "" }

// rule is a Rule plus its live panic budget.
type rule struct {
	Rule
	panicsLeft atomic.Int64
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Latencies   uint64
	Errors      uint64
	Panics      uint64
	Resets      uint64
	Partitioned uint64
}

// Injector applies parsed fault rules. The zero of *Injector (nil) is
// valid and injects nothing, so callers can hold one unconditionally.
type Injector struct {
	rules []*rule
	seed  uint64
	ctr   atomic.Uint64

	paused atomic.Bool

	latencies   atomic.Uint64
	errors      atomic.Uint64
	panics      atomic.Uint64
	resets      atomic.Uint64
	partitioned atomic.Uint64
}

// Parse builds an Injector from a spec string. A blank spec returns
// (nil, nil): fault injection disabled.
func Parse(spec string, seed int64) (*Injector, error) {
	inj := &Injector{seed: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	for _, text := range strings.Split(spec, ";") {
		if strings.TrimSpace(text) == "" {
			continue
		}
		r, err := parseRule(text)
		if err != nil {
			return nil, err
		}
		rr := &rule{Rule: r}
		rr.panicsLeft.Store(int64(r.Panics))
		inj.rules = append(inj.rules, rr)
	}
	if len(inj.rules) == 0 {
		return nil, nil
	}
	return inj, nil
}

func parseRule(text string) (Rule, error) {
	r := Rule{LatencyRate: -1} // negative: unset
	fields := strings.Fields(text)
	var route, link, partition, injects, panics, resets bool
	for _, field := range fields {
		key, val, ok := strings.Cut(field, "=")
		if !ok || val == "" {
			return Rule{}, fmt.Errorf("fault: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "route":
			r.Route, route = val, true
		case "from":
			r.From, link = endpoint(val), true
		case "to":
			r.To, link = endpoint(val), true
		case "partition":
			err = r.parsePartition(val)
			link, partition = true, true
		case "latency":
			r.Latency, err = time.ParseDuration(val)
			if err == nil && r.Latency < 0 {
				err = errors.New("negative latency")
			}
			injects = true
		case "latency-rate":
			r.LatencyRate, err = parseRate(val)
		case "error-rate":
			r.ErrorRate, err = parseRate(val)
			injects = true
		case "panics":
			r.Panics, err = strconv.Atoi(val)
			if err == nil && r.Panics < 0 {
				err = errors.New("panics must be >= 0")
			}
			injects, panics = true, true
		case "reset-rate":
			r.ResetRate, err = parseRate(val)
			injects, resets = true, true
		default:
			return Rule{}, fmt.Errorf("fault: unknown field %q", key)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("fault: %q: %w", field, err)
		}
	}
	switch {
	case route && link:
		return Rule{}, fmt.Errorf("fault: rule %q mixes route= with link scope (from=, to=, partition=)", text)
	case partition && len(fields) > 1:
		return Rule{}, fmt.Errorf("fault: rule %q adds fields to a partition", text)
	case !partition && !injects:
		return Rule{}, fmt.Errorf("fault: rule %q injects nothing (want latency, error-rate, panics, reset-rate or partition)", text)
	case link && panics:
		return Rule{}, fmt.Errorf("fault: rule %q: panics applies to route rules only", text)
	case !link && resets:
		return Rule{}, fmt.Errorf("fault: rule %q: reset-rate applies to link rules only (scope it with from= or to=)", text)
	case r.Latency == 0 && r.LatencyRate > 0:
		return Rule{}, fmt.Errorf("fault: rule %q sets latency-rate without latency", text)
	}
	if r.LatencyRate < 0 {
		r.LatencyRate = 0
		if r.Latency > 0 {
			r.LatencyRate = 1
		}
	}
	if link {
		r.From, r.To = orAll(r.From), orAll(r.To)
	} else {
		r.Route = orAll(r.Route)
	}
	return r, nil
}

func (r *Rule) parsePartition(v string) error {
	if a, b, dir := strings.Cut(v, "->"); dir {
		r.PartitionA, r.PartitionB, r.Directional = a, b, true
	} else if a, b, pair := strings.Cut(v, ","); pair {
		r.PartitionA, r.PartitionB = a, b
	} else {
		return errors.New("partition wants a,b or a->b")
	}
	r.PartitionA, r.PartitionB = endpoint(r.PartitionA), endpoint(r.PartitionB)
	if r.PartitionA == "" || r.PartitionB == "" {
		return errors.New("partition names an empty endpoint")
	}
	return nil
}

func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) { // also rejects NaN
		return 0, errors.New("rate outside [0, 1]")
	}
	return f, nil
}

func orAll(pattern string) string {
	if pattern == "" {
		return "*"
	}
	return pattern
}

// endpoint normalizes a peer URL or host:port to host:port.
func endpoint(s string) string {
	s = strings.TrimPrefix(s, "http://")
	s = strings.TrimPrefix(s, "https://")
	return strings.TrimSuffix(s, "/")
}

// Enabled reports whether the injector exists and is not paused.
func (inj *Injector) Enabled() bool { return inj != nil && !inj.paused.Load() }

// Pause suspends all injection (the rules and panic budgets are kept)
// until Resume.
func (inj *Injector) Pause() {
	if inj != nil {
		inj.paused.Store(true)
	}
}

// Resume re-enables a paused injector.
func (inj *Injector) Resume() {
	if inj != nil {
		inj.paused.Store(false)
	}
}

// Stats snapshots the injected-fault counters.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return Stats{
		Latencies:   inj.latencies.Load(),
		Errors:      inj.errors.Load(),
		Panics:      inj.panics.Load(),
		Resets:      inj.resets.Load(),
		Partitioned: inj.partitioned.Load(),
	}
}

// verdict is what the matching rules decided for one request.
type verdict struct {
	latency time.Duration
	panic   bool
	fail    bool
	reset   bool
}

// decide draws the faults of every rule that matches, in spec order:
// latency, then the panic budget, then error, then reset per rule.
func (inj *Injector) decide(match func(*rule) bool) verdict {
	var v verdict
	for _, r := range inj.rules {
		if !match(r) {
			continue
		}
		if r.Latency > 0 && inj.draw() < r.LatencyRate {
			v.latency += r.Latency
		}
		if !v.panic && r.panicsLeft.Load() > 0 && r.panicsLeft.Add(-1) >= 0 {
			v.panic = true
		}
		if r.ErrorRate > 0 && inj.draw() < r.ErrorRate {
			v.fail = true
		}
		if r.ResetRate > 0 && inj.draw() < r.ResetRate {
			v.reset = true
		}
	}
	return v
}

// Inject applies the route rules matching path to one request: it may
// sleep for the summed latency, panic (consuming one unit of a rule's
// panic budget), or return an error wrapping ErrInjected. A nil or
// paused injector injects nothing.
func (inj *Injector) Inject(path string) error {
	if !inj.Enabled() {
		return nil
	}
	v := inj.decide(func(r *rule) bool {
		return !r.Link() && (r.Route == "*" || strings.HasPrefix(path, r.Route))
	})
	if v.latency > 0 {
		inj.latencies.Add(1)
		time.Sleep(v.latency)
	}
	if v.panic {
		inj.panics.Add(1)
		panic("fault: injected panic on " + path)
	}
	if v.fail {
		inj.errors.Add(1)
		return fmt.Errorf("%w on %s", ErrInjected, path)
	}
	return nil
}

// Bound is an injector bound to one source endpoint: the view of the
// link rules from one node's outbound transport.
type Bound struct {
	inj  *Injector
	self string
}

// Bind binds the injector to its source endpoint (this node's URL or
// host:port), against which from= and partition endpoints match.
func (inj *Injector) Bind(self string) Bound { return Bound{inj: inj, self: endpoint(self)} }

// Transport wraps base (nil means http.DefaultTransport) with the link
// rules. A nil injector returns base unchanged, so wiring is
// unconditional at call sites.
func (b Bound) Transport(base http.RoundTripper) http.RoundTripper {
	if b.inj == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{Bound: b, base: base}
}

type transport struct {
	Bound
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inj, self, to := t.inj, t.self, req.URL.Host
	if !inj.Enabled() {
		return t.base.RoundTrip(req)
	}
	for _, r := range inj.rules {
		if r.PartitionA != "" && r.blocks(self, to) {
			inj.partitioned.Add(1)
			return nil, fmt.Errorf("%w: %s -> %s", ErrPartitioned, self, to)
		}
	}
	v := inj.decide(func(r *rule) bool {
		return r.Link() && (r.From == "*" || r.From == self) && (r.To == "*" || r.To == to)
	})
	if v.fail {
		inj.errors.Add(1)
		return nil, fmt.Errorf("%w: dropped %s -> %s", ErrInjected, self, to)
	}
	if v.latency > 0 {
		inj.latencies.Add(1)
		timer := time.NewTimer(v.latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if v.reset {
		// The request reached the peer — the peer may have acted on
		// it — but the response is lost on the wire. Only retries of
		// idempotent requests are safe after this.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inj.resets.Add(1)
		return nil, fmt.Errorf("%w: %s -> %s", ErrReset, self, to)
	}
	return resp, nil
}

// blocks reports whether partition rule r blocks a request from self
// to the destination to.
func (r *rule) blocks(self, to string) bool {
	if r.PartitionA == self && r.PartitionB == to {
		return true
	}
	return !r.Directional && r.PartitionB == self && r.PartitionA == to
}

// draw returns the next deterministic uniform float64 in [0, 1) from
// a splitmix64 stream keyed by the seed and a global counter.
func (inj *Injector) draw() float64 {
	z := inj.seed + inj.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
