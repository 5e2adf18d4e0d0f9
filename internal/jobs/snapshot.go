package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Snapshot persistence: one JSON file per job under Config.SnapshotDir,
// written at submission (pending), on every terminal transition, and —
// for jobs interrupted by manager shutdown — re-written as pending so
// the next manager over the same directory resumes them. Specs are
// deterministic (fixed seeds, precomputed sample streams), so a resumed
// re-run reproduces the interrupted job's result.

// snapshotFile is the on-disk shape. Plan and Shards checkpoint a
// mid-flight distributed run: the scatter plan the coordinator was
// executing and every shard result already in hand, so a restart
// re-runs only the unfinished shards (shard runs are deterministic,
// so the merged result is bit-identical either way).
type snapshotFile struct {
	View   View            `json:"view"`
	Result json.RawMessage `json:"result,omitempty"`
	Plan   []ShardRequest  `json:"plan,omitempty"`
	Shards []snapshotShard `json:"shards,omitempty"`
}

// snapshotShard is one checkpointed shard result as persisted. Bits is
// the sensitivity payload in the format snapshots carried before
// ShardResult.Outputs — one JSON number per IEEE-754 bit pattern — so
// those snapshots still resume; it is read, converted, and never
// written.
type snapshotShard struct {
	ShardResult
	Bits []uint64 `json:"bits,omitempty"`
}

// result returns the checkpointed ShardResult, with a Bits payload
// converted to Outputs words.
func (s snapshotShard) result() ShardResult {
	r := s.ShardResult
	if len(s.Bits) > 0 {
		r.Outputs = make([]byte, 8*len(s.Bits))
		for i, b := range s.Bits {
			binary.LittleEndian.PutUint64(r.Outputs[8*i:], b)
		}
	}
	return r
}

func (m *Manager) snapshotPath(id string) string {
	return filepath.Join(m.cfg.SnapshotDir, id+".json")
}

// persist writes the job's current state; failures are logged, never
// fatal (the in-memory store remains authoritative).
func (m *Manager) persist(j *Job) {
	if m.cfg.SnapshotDir == "" {
		return
	}
	v := j.view(m.cfg.now())
	v.ETASeconds = nil
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	sf := snapshotFile{View: v, Result: res}
	if !v.Status.Finished() {
		// Mid-flight: carry the distributed checkpoint so a restart
		// resumes instead of recomputing finished shards.
		sf.Plan, sf.Shards = j.checkpoint()
	}
	m.writeSnapshot(j.id, sf)
}

// persistPending snapshots a shutdown-interrupted job as if it had
// never started, so a restarted manager re-queues it.
func (m *Manager) persistPending(j *Job) {
	if m.cfg.SnapshotDir == "" {
		return
	}
	v := j.view(m.cfg.now())
	v.Status = StatusPending
	v.Started, v.Finished = nil, nil
	v.Error = ""
	v.Done, v.Fraction, v.ETASeconds = 0, 0, nil
	sf := snapshotFile{View: v}
	sf.Plan, sf.Shards = j.checkpoint()
	m.writeSnapshot(j.id, sf)
}

// writeSnapshot writes atomically: temp file in the same directory,
// then rename, so a crash mid-write never corrupts an existing file.
func (m *Manager) writeSnapshot(id string, sf snapshotFile) {
	if err := os.MkdirAll(m.cfg.SnapshotDir, 0o755); err != nil {
		m.log.Printf("jobs: snapshot dir: %v", err)
		return
	}
	data, err := json.Marshal(sf)
	if err != nil {
		m.log.Printf("jobs: %s: encoding snapshot: %v", id, err)
		return
	}
	tmp, err := os.CreateTemp(m.cfg.SnapshotDir, id+".tmp-*")
	if err != nil {
		m.log.Printf("jobs: %s: snapshot: %v", id, err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		m.log.Printf("jobs: %s: writing snapshot: %v/%v", id, werr, cerr)
		return
	}
	if err := os.Rename(tmp.Name(), m.snapshotPath(id)); err != nil {
		os.Remove(tmp.Name())
		m.log.Printf("jobs: %s: snapshot rename: %v", id, err)
	}
}

func (m *Manager) deleteSnapshot(id string) {
	if m.cfg.SnapshotDir == "" {
		return
	}
	os.Remove(m.snapshotPath(id))
}

// loadSnapshots restores jobs from the snapshot directory into the
// store: terminal jobs keep their results and are marked Restored;
// pending (or interrupted-running) jobs are returned for re-queueing.
// Undecodable files are quarantined (renamed to <name>.corrupt) with a
// log line; mismatched ones are skipped. Startup always continues with
// whatever state is readable.
func (m *Manager) loadSnapshots() []*Job {
	if m.cfg.SnapshotDir == "" {
		return nil
	}
	entries, err := os.ReadDir(m.cfg.SnapshotDir)
	if err != nil {
		if !os.IsNotExist(err) {
			m.log.Printf("jobs: reading snapshot dir: %v", err)
		}
		return nil
	}
	var resume []*Job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.cfg.SnapshotDir, name))
		if err != nil {
			m.log.Printf("jobs: reading snapshot %s: %v", name, err)
			continue
		}
		var sf snapshotFile
		if err := json.Unmarshal(data, &sf); err != nil {
			// Quarantine rather than skip: renaming the file preserves it
			// for inspection while guaranteeing the next restart does not
			// trip over the same corruption, and startup always proceeds
			// with whatever state is readable.
			path := filepath.Join(m.cfg.SnapshotDir, name)
			if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
				m.log.Printf("jobs: corrupt snapshot %s: %v (quarantine failed: %v)", name, err, rerr)
			} else {
				m.log.Printf("jobs: corrupt snapshot %s: %v (moved to %s.corrupt)", name, err, name)
			}
			continue
		}
		v := sf.View
		if v.ID == "" || v.ID+".json" != name {
			m.log.Printf("jobs: skipping snapshot %s: id %q does not match filename", name, v.ID)
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(v.ID, "job-%d", &seq); err == nil && seq > m.seq {
			m.seq = seq
		}
		j := &Job{
			id:       v.ID,
			spec:     v.Spec,
			created:  v.Created,
			status:   v.Status,
			err:      v.Error,
			result:   sf.Result,
			restored: true,
		}
		j.done.Store(v.Done)
		j.total.Store(v.Total)
		if v.Started != nil {
			j.started = *v.Started
		}
		if v.Finished != nil {
			j.finished = *v.Finished
		}
		if !j.status.Finished() {
			// Interrupted before completing: re-queue. Both progress
			// counters reset — a mid-flight snapshot must not leave
			// orphan done/total from the dead run; the re-run's
			// SetTotal re-establishes the denominator (and restored
			// shard checkpoints re-credit their evaluations). The
			// checkpointed plan and completed shard results carry
			// over so the resumed run recomputes only what's missing.
			j.status = StatusPending
			j.started = time.Time{}
			j.finished = time.Time{}
			j.err = ""
			j.result = nil
			j.done.Store(0)
			j.total.Store(0)
			j.plan = sf.Plan
			if len(sf.Shards) > 0 && j.plan != nil {
				j.completed = make(map[int]ShardResult, len(sf.Shards))
				for _, s := range sf.Shards {
					if r := s.result(); r.Index >= 0 && r.Index < len(j.plan) && r.Err == "" {
						j.completed[r.Index] = r
					}
				}
			}
			resume = append(resume, j)
		}
		m.insertLocked(j) // no concurrency yet: New has not started workers
	}
	if n := len(m.jobs); n > 0 {
		m.log.Printf("jobs: restored %d job(s) from %s (%d re-queued)", n, m.cfg.SnapshotDir, len(resume))
	}
	return resume
}
