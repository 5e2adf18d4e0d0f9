package jobs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// wireValues are sensitivity outputs JSON numbers cannot carry, or
// carry without their exact bits: NaNs with distinct payloads (quiet,
// signalling, the x86 default NaN), both infinities and negative zero.
var wireValues = []float64{
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff8deadbeef0042),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 26.019, -1e-300,
}

func sameOutputBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("output %d: bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestShardResultOutputsRoundTrip: a ShardResult's sensitivity outputs
// survive the JSON wire bit for bit — NaN payloads, ±Inf and −0
// included — and travel as one base64 string, not a number array.
func TestShardResultOutputsRoundTrip(t *testing.T) {
	data, err := json.Marshal(ShardResult{Index: 2, Evals: uint64(len(wireValues)), Outputs: encodeOutputs(wireValues)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"outputs":"`)) {
		t.Fatalf("outputs are not a base64 string: %s", data)
	}
	var res ShardResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	got, err := appendOutputs(nil, res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputBits(t, got, wireValues)
	if _, err := appendOutputs(nil, res.Outputs[:len(res.Outputs)-3]); err == nil {
		t.Fatal("a torn output word must be an error")
	}
}

// TestSnapshotShardReadsLegacyBits: a checkpointed shard in the older
// snapshot format, its outputs a JSON array of IEEE-754 bit patterns,
// restores to the same Outputs words, and a re-written checkpoint
// carries only the new field.
func TestSnapshotShardReadsLegacyBits(t *testing.T) {
	bits := make([]uint64, len(wireValues))
	for i, v := range wireValues {
		bits[i] = math.Float64bits(v)
	}
	legacy, err := json.Marshal(map[string]any{"index": 1, "evals": len(bits), "bits": bits})
	if err != nil {
		t.Fatal(err)
	}
	var s snapshotShard
	if err := json.Unmarshal(legacy, &s); err != nil {
		t.Fatal(err)
	}
	r := s.result()
	got, err := appendOutputs(nil, r.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputBits(t, got, wireValues)
	out, err := json.Marshal(snapshotShard{ShardResult: r})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte(`"bits"`)) || !bytes.Contains(out, []byte(`"outputs"`)) {
		t.Fatalf("re-written checkpoint: %s", out)
	}
}

// TestLegacyBitsSnapshotResumes replays TestShardCheckpointResume from a
// snapshot written before sensitivity outputs moved to byte words:
// testdata/sensitivity-bits-snapshot.json is a mid-scatter checkpoint
// of oracleSpecs()["sensitivity"] with shards 0 and 1 of 4 done, their
// outputs as numeric "bits" arrays. It must restore (not be
// quarantined), re-dispatch only shards 2 and 3, and produce the
// single-node result byte for byte.
func TestLegacyBitsSnapshotResumes(t *testing.T) {
	_, oracle := runJobOn(t, nil, oracleSpecs()["sensitivity"])

	fixture, err := os.ReadFile(filepath.Join("testdata", "sensitivity-bits-snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fixture, []byte(`"bits":[`)) {
		t.Fatal("fixture no longer carries the numeric bits format")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000001.json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	lb := newLoopback(3)
	cfg := quietConfig()
	cfg.SnapshotDir = dir
	cfg.Distributor = lb
	cfg.DistMinEvaluations = 1
	m := New(cfg)
	defer m.Close()
	fin := waitFinished(t, m, "job-000001")
	if fin.Status != StatusSucceeded || !fin.Restored {
		t.Fatalf("resumed job: %s restored=%v (%s)", fin.Status, fin.Restored, fin.Error)
	}
	if quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(quarantined) != 0 {
		t.Fatalf("legacy snapshot quarantined: %v", quarantined)
	}
	raw, _, err := m.Result("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, oracle) {
		t.Fatalf("resumed result differs from single-node oracle:\n%s\nvs\n%s", raw, oracle)
	}
	if got := lb.calls(); got != 2 {
		t.Fatalf("resumed run dispatched %d shards, want 2", got)
	}
	if fin.Done != fin.Total || fin.Total == 0 {
		t.Fatalf("resumed progress = %d/%d, want complete", fin.Done, fin.Total)
	}
}
