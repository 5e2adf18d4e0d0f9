package jobs

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Distributor is the cluster seam for sharded job execution: the
// server wires one over its peer transport; nil keeps every job
// single-node. Implementations must be safe for concurrent use.
type Distributor interface {
	// Targets returns the dispatch-eligible peers (alive, not self),
	// healthiest first. An empty slice disables distribution for the
	// job at hand.
	Targets() []string
	// Dispatch executes req on target and returns its result. A
	// non-nil error is a transport-level failure — timeout, refused
	// connection, peer restart — and is retryable; deterministic
	// compute errors travel inside ShardResult.Err instead.
	Dispatch(ctx context.Context, target string, req ShardRequest) (ShardResult, error)
}

// planShards splits a spec into one shard per participant (the
// coordinator plus each target), balanced over the kind's shard space.
// nil means the job should run single-node: no peers, a kind that
// does not shard, a job too small to be worth the round-trips, or a
// space too small to split.
func planShards(s Spec, job string, targets, minEvals int) []ShardRequest {
	if targets < 1 || s.EstimatedEvaluations() < minEvals {
		return nil
	}
	space := s.shardSpace()
	p := targets + 1
	if p > space {
		p = space
	}
	if p < 2 {
		return nil
	}
	reqs := make([]ShardRequest, p)
	for i := range reqs {
		reqs[i] = ShardRequest{Job: job, Index: i, Lo: i * space / p, Hi: (i + 1) * space / p, Spec: s}
	}
	return reqs
}

// runSpec executes a job's spec, distributed across the ring when a
// Distributor is wired, peers are alive, and the spec is heavy enough
// to shard; otherwise it is the plain single-node run. The runHook
// test seam always runs locally — it replaces the runner itself.
func (m *Manager) runSpec(ctx context.Context, j *Job) (any, error) {
	if runHook == nil {
		d := m.cfg.Distributor
		var targets []string
		if d != nil {
			targets = d.Targets()
		}
		// A restored checkpoint resumes the persisted scatter plan —
		// NOT a freshly computed one, whose shard boundaries could
		// differ and misalign the completed results. With no (or a
		// dead) distributor the missing shards simply run locally.
		reqs := j.shardPlan()
		if reqs == nil && d != nil {
			reqs = planShards(j.spec, j.id, len(targets), m.cfg.DistMinEvaluations)
		}
		if reqs != nil {
			p, err := j.spec.prepare()
			if err != nil {
				return nil, err
			}
			return m.runDistributed(ctx, j, &p, d, targets, reqs)
		}
	}
	return j.spec.run(ctx, Tracker{j})
}

// runDistributed scatters the planned shards and gathers their partial
// results into the exact single-node answer. Shard 0 always runs
// locally on the worker's goroutine — the coordinator is a participant,
// not just a router — while shards 1..P-1 dispatch concurrently.
//
// Failure semantics: the gathered job can only fail in ways the
// single-node run could. Transport failures hedge to the next-alive
// peer and finally fall back to local compute, so a dead ring
// degrades throughput, never correctness. A deterministic compute
// error is surfaced from the lowest-index erroring shard, which — each
// shard reports its internally-first error — is exactly the error the
// one-shard plan returns.
func (m *Manager) runDistributed(ctx context.Context, j *Job, p *prepared, d Distributor, targets []string, reqs []ShardRequest) (any, error) {
	Tracker{j}.SetTotal(p.spec.shardUnits(0, p.space))
	// Record the in-flight coordinator and its scatter plan: if the
	// process dies mid-gather the restarted manager resumes this plan,
	// re-running only the shards whose results were not checkpointed.
	j.setPlan(reqs)
	m.persist(j)

	results := make([]ShardResult, len(reqs))
	errs := make([]error, len(reqs))
	runOne := func(i int) {
		if res, ok := j.shardDone(i); ok {
			results[i] = res
			Tracker{j}.Add(res.Evals)
			return
		}
		if r := reqs[i]; i == 0 {
			results[i], errs[i] = p.runShard(ctx, r.Index, r.Lo, r.Hi, Tracker{j}.Add)
		} else {
			results[i], errs[i] = m.dispatchShard(ctx, j, p, d, targets, r)
		}
		if errs[i] == nil && results[i].Err == "" {
			j.noteShard(results[i])
			m.persist(j)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(reqs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runOne(i)
		}(i)
	}
	runOne(0)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Cancellation fan-out: the per-dispatch contexts derive from
		// ctx, so every remote shard has already been cut off.
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range results {
		if results[i].Err != "" {
			return nil, errors.New(results[i].Err)
		}
	}
	return p.merge(ctx, results)
}

// dispatchShard runs one remote shard to completion: up to two peer
// attempts under per-attempt deadlines (the straggler hedge), then
// local fallback. Progress lands on the job tracker when the shard's
// evaluations are in hand (streamed for the local fallback).
func (m *Manager) dispatchShard(ctx context.Context, j *Job, p *prepared, d Distributor, targets []string, req ShardRequest) (ShardResult, error) {
	kind := p.spec.Kind
	obs := m.cfg.Observer
	attempts := len(targets)
	if attempts > 2 {
		attempts = 2
	}
	for a := 0; a < attempts; a++ {
		if ctx.Err() != nil {
			return ShardResult{}, ctx.Err()
		}
		target := targets[(req.Index-1+a)%len(targets)]
		if obs != nil {
			obs.ShardDispatched(kind)
		}
		start := time.Now()
		sctx, cancel := context.WithTimeout(ctx, m.cfg.ShardTimeout)
		res, err := d.Dispatch(sctx, target, req)
		cancel()
		if err == nil {
			if obs != nil {
				obs.ShardCompleted(kind, time.Since(start))
			}
			Tracker{j}.Add(res.Evals)
			res.Index = req.Index
			return res, nil
		}
		if ctx.Err() != nil {
			return ShardResult{}, ctx.Err()
		}
		m.log.Printf("jobs: %s shard %d [%d,%d) on %s failed: %v",
			j.id, req.Index, req.Lo, req.Hi, target, err)
		if obs != nil && a+1 < attempts {
			obs.ShardHedged(kind)
		}
	}
	// Every peer attempt failed: a dead ring never fails a job that
	// single-node mode could finish.
	if obs != nil {
		obs.ShardFallback(kind)
	}
	return p.runShard(ctx, req.Index, req.Lo, req.Hi, Tracker{j}.Add)
}
