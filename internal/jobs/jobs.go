// Package jobs is the asynchronous batch-evaluation engine behind
// POST /v1/jobs and the `ttmcas jobs` subcommand: the paper's headline
// artifacts — Monte-Carlo confidence bands (Figs. 7/9/11/12), Sobol
// total-effect indices (Fig. 8, N·(k+2) evaluations), design sweeps,
// cache Pareto frontiers and §7 plan portfolios — are long-running
// campaigns that do not fit a request/response timeout.
//
// A Manager owns a bounded worker pool and a job store. Jobs are typed
// Specs wrapping the existing mc, sens, sweep, opt and plan packages;
// each job runs under a context that cancels on user request, per-job
// deadline, or manager shutdown, reports progress atomically
// (completed/total evaluation units plus an ETA), and recovers panics
// by failing the job instead of the process. Finished jobs are kept in
// memory until a TTL and, when a snapshot directory is configured,
// persisted as JSON so a restarted manager lists completed results and
// resumes interrupted runs.
//
// # Distributed execution
//
// When a Distributor is configured (in the server, the cluster peer
// layer) and a job's estimated evaluation count reaches
// Config.DistMinEvaluations, the manager shards the job across alive
// peers instead of running it serially: mc-band by x-position range,
// sensitivity by flattened Saltelli evaluation-index range (merged by
// sens.Reduce, the serial reducer), sweep by grid-cell range and
// timeline by step range. Because the underlying sample streams are
// counter-based (O(1)-seekable by position), a shard computing
// [lo,hi) draws exactly the values the serial run would have drawn
// there, and the gathered result — values and error surface alike —
// is byte-identical to the single-node answer; dist_test.go holds the
// oracle tests.
//
// Distribution is an optimization, never a correctness dependency.
// Each shard runs under Config.ShardTimeout; transport failures and
// timeouts hedge to the next alive peer and finally fall back to
// local execution on the coordinator, so a dead ring never fails a
// job a single node could finish. Compute errors inside a shard are
// the job's answer and are not retried. Progress aggregates across
// shards through the job's Tracker, cancellation fans out to every
// in-flight shard, and the Observer (the server's metrics registry)
// sees every dispatch, completion, hedge and fallback.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Status is a job lifecycle state.
type Status string

// The job lifecycle: pending → running → one of the three terminal
// states.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Finished reports whether the status is terminal.
func (s Status) Finished() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// Errors the manager returns to callers; the HTTP layer maps them to
// status codes.
var (
	ErrNotFound    = errors.New("jobs: unknown job")
	ErrTooManyJobs = errors.New("jobs: too many active jobs")
	ErrClosed      = errors.New("jobs: manager is closed")
	ErrNotFinished = errors.New("jobs: job has not finished")
)

// Config parameterizes a Manager. The zero value of every field
// selects a production-sensible default.
type Config struct {
	// Workers bounds how many jobs run concurrently (default 2). Each
	// job parallelizes internally across GOMAXPROCS, so a small pool
	// is usually right.
	Workers int
	// MaxActive bounds pending+running jobs; Submit fails with
	// ErrTooManyJobs beyond it (default 32).
	MaxActive int
	// MaxStored bounds the total jobs retained in memory, finished
	// included; the oldest finished jobs are evicted first
	// (default 256).
	MaxStored int
	// ResultTTL evicts finished jobs (memory and snapshot) this long
	// after completion (default 1h).
	ResultTTL time.Duration
	// DefaultTimeout is the per-job deadline when the spec does not
	// set one (default 10m).
	DefaultTimeout time.Duration
	// SnapshotDir, when non-empty, persists every job as
	// <dir>/<id>.json: finished jobs are listed with their results
	// after a restart, and jobs that were pending or running when the
	// process died are re-queued (specs are deterministic, so the
	// re-run reproduces the same result).
	SnapshotDir string
	// Limits clamp client-supplied spec sizes at submission.
	Limits Limits
	// Logger receives job lifecycle logs (default log.Default()).
	Logger *log.Logger
	// Observer receives job and shard lifecycle callbacks for
	// metrics; nil disables.
	Observer Observer

	// Distributor, when non-nil, shards heavy jobs across cluster
	// peers (see dist.go); nil runs every job single-node.
	Distributor Distributor
	// ShardTimeout is the per-attempt deadline of one remote shard
	// dispatch; past it the shard hedges to the next peer (default 1m).
	ShardTimeout time.Duration
	// DistMinEvaluations is the minimum estimated evaluation count for
	// a job to be worth distributing (default 4096); smaller jobs run
	// locally regardless of ring size.
	DistMinEvaluations int

	// now is the test seam for time.
	now func() time.Time
}

// Observer receives job and distributed-shard lifecycle events; the
// server folds them into its /metrics registry. Implementations must
// be safe for concurrent use.
type Observer interface {
	// JobSubmitted fires once per accepted submission.
	JobSubmitted(kind string)
	// JobFinished fires once per job reaching a terminal status,
	// cancelled-while-queued included, with its completed evaluation
	// units.
	JobFinished(kind string, status Status, evaluations uint64)
	// ShardDispatched fires before each remote dispatch attempt.
	ShardDispatched(kind string)
	// ShardCompleted fires when a remote shard returns, with its
	// round-trip latency.
	ShardCompleted(kind string, latency time.Duration)
	// ShardHedged fires when a dispatch attempt fails (deadline or
	// transport) and the shard is re-dispatched to the next peer.
	ShardHedged(kind string)
	// ShardFallback fires when every peer attempt failed and the
	// coordinator computes the shard locally.
	ShardFallback(kind string)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 32
	}
	if c.MaxStored <= 0 {
		c.MaxStored = 256
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = time.Hour
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	c.Limits = c.Limits.withDefaults()
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Minute
	}
	if c.DistMinEvaluations <= 0 {
		c.DistMinEvaluations = 4096
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Job is one submitted batch evaluation. All mutable fields are
// guarded by mu except the progress counters, which are atomic so the
// evaluation hot path never takes the lock.
type Job struct {
	id      string
	spec    Spec
	created time.Time

	done  atomic.Uint64
	total atomic.Uint64

	mu            sync.Mutex
	status        Status
	started       time.Time
	finished      time.Time
	err           string
	result        json.RawMessage
	restored      bool
	userCancelled bool
	cancel        context.CancelFunc

	// Distributed-run checkpoint: the scatter plan and the completed
	// shard results, persisted with every snapshot so a restarted
	// coordinator resumes a mid-flight job re-running only the shards
	// that had not finished. Guarded by mu.
	plan      []ShardRequest
	completed map[int]ShardResult
}

// setPlan records the scatter plan a distributed run is executing.
func (j *Job) setPlan(reqs []ShardRequest) {
	j.mu.Lock()
	j.plan = reqs
	j.mu.Unlock()
}

// shardPlan returns the checkpointed scatter plan, nil if none.
func (j *Job) shardPlan() []ShardRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.plan
}

// shardDone returns the checkpointed result of shard i, if completed.
func (j *Job) shardDone(i int) (ShardResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.completed[i]
	return res, ok
}

// noteShard checkpoints one completed shard result.
func (j *Job) noteShard(res ShardResult) {
	j.mu.Lock()
	if j.completed == nil {
		j.completed = make(map[int]ShardResult)
	}
	j.completed[res.Index] = res
	j.mu.Unlock()
}

// checkpoint snapshots the plan and the completed shards (ordered by
// index) for persistence.
func (j *Job) checkpoint() ([]ShardRequest, []snapshotShard) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.plan == nil {
		return nil, nil
	}
	shards := make([]snapshotShard, 0, len(j.completed))
	for i := 0; i < len(j.plan); i++ {
		if res, ok := j.completed[i]; ok {
			shards = append(shards, snapshotShard{ShardResult: res})
		}
	}
	return j.plan, shards
}

// Tracker is the progress reporter handed to spec runners. Add and
// SetTotal are lock-free.
type Tracker struct{ j *Job }

// SetTotal declares the total number of evaluation units.
func (t Tracker) SetTotal(n uint64) { t.j.total.Store(n) }

// Add records n completed evaluation units.
func (t Tracker) Add(n uint64) { t.j.done.Add(n) }

// View is an immutable snapshot of a job, the JSON shape of the HTTP
// status endpoints and the snapshot files.
type View struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	Status   Status     `json:"status"`
	Spec     Spec       `json:"spec"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Done/Total count evaluation units (model evaluations for
	// mc-band and sensitivity jobs, grid cells or scenarios for the
	// others); Fraction is Done/Total.
	Done     uint64  `json:"done"`
	Total    uint64  `json:"total"`
	Fraction float64 `json:"fraction"`
	// ETASeconds estimates the remaining run time from the observed
	// evaluation rate; present only while running with progress.
	ETASeconds *float64 `json:"eta_seconds,omitempty"`
	// Restored marks jobs loaded from a snapshot after a restart.
	Restored bool `json:"restored,omitempty"`
}

func (j *Job) view(now time.Time) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:       j.id,
		Kind:     j.spec.Kind,
		Status:   j.status,
		Spec:     j.spec,
		Created:  j.created,
		Error:    j.err,
		Done:     j.done.Load(),
		Total:    j.total.Load(),
		Restored: j.restored,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if v.Total > 0 {
		v.Fraction = float64(v.Done) / float64(v.Total)
	}
	if j.status == StatusRunning && v.Done > 0 && v.Total > v.Done {
		elapsed := now.Sub(j.started).Seconds()
		eta := elapsed * float64(v.Total-v.Done) / float64(v.Done)
		v.ETASeconds = &eta
	}
	return v
}

// Manager owns the worker pool and the job store.
type Manager struct {
	cfg    Config
	log    *log.Logger
	ctx    context.Context
	stop   context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List and eviction
	seq    int
	closed bool
}

// New builds a Manager, restores any snapshots, and starts its worker
// pool. Call Close to drain it.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:  cfg,
		log:  cfg.Logger,
		ctx:  ctx,
		stop: cancel,
		jobs: make(map[string]*Job),
	}
	// Restored pending jobs ride the same queue as new submissions;
	// size it so the resume enqueue below can never block.
	resumed := m.loadSnapshots()
	m.queue = make(chan *Job, cfg.MaxActive+len(resumed))
	for _, j := range resumed {
		m.queue <- j
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Close cancels every running job, stops the workers, and waits for
// them to drain. Interrupted jobs are snapshotted as pending so a new
// manager over the same snapshot directory re-runs them.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

// Submit validates a spec against the configured limits and enqueues
// it. The returned view is the job's initial pending state.
func (m *Manager) Submit(spec Spec) (View, error) {
	spec = spec.normalized()
	if err := spec.Validate(m.cfg.Limits); err != nil {
		return View{}, err
	}
	now := m.cfg.now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return View{}, ErrClosed
	}
	active := 0
	for _, id := range m.order {
		if !m.jobs[id].snapshotStatus().Finished() {
			active++
		}
	}
	if active >= m.cfg.MaxActive {
		m.mu.Unlock()
		return View{}, fmt.Errorf("%w (%d active, max %d)", ErrTooManyJobs, active, m.cfg.MaxActive)
	}
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%06d", m.seq),
		spec:    spec,
		created: now,
		status:  StatusPending,
	}
	m.insertLocked(j)
	m.mu.Unlock()

	m.persist(j)
	if m.cfg.Observer != nil {
		m.cfg.Observer.JobSubmitted(spec.Kind)
	}
	m.queue <- j // cannot block: queue capacity == MaxActive
	return j.view(now), nil
}

// insertLocked stores a job and evicts the oldest finished jobs beyond
// MaxStored. Callers hold m.mu.
func (m *Manager) insertLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	for len(m.jobs) > m.cfg.MaxStored {
		evicted := false
		for _, id := range m.order {
			if jj := m.jobs[id]; jj != nil && jj.snapshotStatus().Finished() {
				m.removeLocked(id)
				evicted = true
				break
			}
		}
		if !evicted {
			break // nothing finished to evict; active jobs stay
		}
	}
}

func (m *Manager) removeLocked(id string) {
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.deleteSnapshot(id)
}

// snapshotStatus reads the status under the job lock.
func (j *Job) snapshotStatus() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, false
	}
	return j.view(m.cfg.now()), true
}

// SpecLimits returns the manager's effective spec limits — the clamp
// shard executors apply so a scattered spec is vetted exactly as a
// local submission would be.
func (m *Manager) SpecLimits() Limits { return m.cfg.Limits }

// Counts returns the instantaneous number of queued (pending) and
// running jobs — the queue-depth and running-jobs gauges. Unlike a
// counter derived from lifecycle events, a direct scan cannot drift
// when a job is cancelled before it ever starts.
func (m *Manager) Counts() (pending, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.status {
		case StatusPending:
			pending++
		case StatusRunning:
			running++
		}
		j.mu.Unlock()
	}
	return pending, running
}

// List returns every stored job, newest first.
func (m *Manager) List() []View {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	now := m.cfg.now()
	out := make([]View, len(js))
	for i, j := range js {
		out[i] = j.view(now)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Result returns a finished job's result document. ErrNotFinished is
// returned while the job is still pending or running; failed and
// cancelled jobs yield their view with a nil result.
func (m *Manager) Result(id string) (json.RawMessage, View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, View{}, ErrNotFound
	}
	v := j.view(m.cfg.now())
	if !v.Status.Finished() {
		return nil, v, ErrNotFinished
	}
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	return res, v, nil
}

// Cancel requests cancellation of a pending or running job. Workers
// observe the cancelled context within one evaluation batch. Finished
// jobs are left untouched (cancelling them is a no-op, not an error).
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return View{}, ErrNotFound
	}
	j.mu.Lock()
	wasPending := j.status == StatusPending
	switch {
	case wasPending:
		// Still queued: finish it here; the worker skips it.
		j.status = StatusCancelled
		j.userCancelled = true
		j.err = "cancelled before start"
		j.finished = m.cfg.now()
	case j.status == StatusRunning:
		j.userCancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if wasPending && m.cfg.Observer != nil {
		m.cfg.Observer.JobFinished(j.spec.Kind, StatusCancelled, 0)
	}
	v := j.view(m.cfg.now())
	if v.Status == StatusCancelled {
		m.persist(j)
	}
	return v, nil
}

// Remove cancels the job if active and deletes it from the store and
// the snapshot directory.
func (m *Manager) Remove(id string) (View, error) {
	v, err := m.Cancel(id)
	if err != nil {
		return View{}, err
	}
	m.mu.Lock()
	m.removeLocked(id)
	m.mu.Unlock()
	return v, nil
}

// worker runs queued jobs until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one job under its own deadline, with panic recovery
// and snapshot persistence.
func (m *Manager) runJob(j *Job) {
	timeout := j.spec.timeout(m.cfg.DefaultTimeout)
	ctx, cancel := context.WithTimeout(m.ctx, timeout)
	defer cancel()

	j.mu.Lock()
	if j.status != StatusPending { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = m.cfg.now()
	j.cancel = cancel
	j.mu.Unlock()
	m.log.Printf("jobs: %s started (%s)", j.id, j.spec.Kind)

	var (
		result any
		err    error
	)
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("jobs: panic in %s job: %v", j.spec.Kind, rec)
				m.log.Printf("jobs: %s panicked: %v\n%s", j.id, rec, debug.Stack())
			}
		}()
		result, err = m.runSpec(ctx, j)
	}()

	drained := m.ctx.Err() != nil
	now := m.cfg.now()
	j.mu.Lock()
	j.finished = now
	switch {
	case err == nil:
		raw, merr := json.Marshal(result)
		if merr != nil {
			j.status = StatusFailed
			j.err = "encoding result: " + merr.Error()
		} else {
			j.status = StatusSucceeded
			j.result = raw
		}
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == context.DeadlineExceeded:
		j.status = StatusFailed
		j.err = fmt.Sprintf("deadline exceeded after %s", timeout)
	case errors.Is(err, context.Canceled):
		j.status = StatusCancelled
		if j.userCancelled {
			j.err = "cancelled"
		} else {
			j.err = "interrupted by manager shutdown"
		}
	default:
		j.status = StatusFailed
		j.err = err.Error()
	}
	status := j.status
	evals := j.done.Load()
	interrupted := status == StatusCancelled && !j.userCancelled && drained
	j.mu.Unlock()

	if m.cfg.Observer != nil {
		m.cfg.Observer.JobFinished(j.spec.Kind, status, evals)
	}
	m.log.Printf("jobs: %s %s after %d/%d evaluations%s",
		j.id, status, j.done.Load(), j.total.Load(), errSuffix(j))
	if interrupted {
		// Shutdown, not user intent: persist as pending so the next
		// manager over this snapshot directory re-runs the job.
		m.persistPending(j)
		return
	}
	m.persist(j)
}

func errSuffix(j *Job) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == "" {
		return ""
	}
	return ": " + j.err
}

// janitor evicts finished jobs past the result TTL.
func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := m.cfg.ResultTTL / 10
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.evictExpired()
		}
	}
}

func (m *Manager) evictExpired() {
	cutoff := m.cfg.now().Add(-m.cfg.ResultTTL)
	m.mu.Lock()
	defer m.mu.Unlock()
	var expired []string
	for id, j := range m.jobs {
		j.mu.Lock()
		if j.status.Finished() && !j.finished.IsZero() && j.finished.Before(cutoff) {
			expired = append(expired, id)
		}
		j.mu.Unlock()
	}
	for _, id := range expired {
		m.removeLocked(id)
		m.log.Printf("jobs: %s evicted after result TTL", id)
	}
}
