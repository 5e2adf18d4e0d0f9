package cachesim

import (
	"testing"
)

func TestPresetsDistinctAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Presets() {
		if w.Name == "" {
			t.Fatal("preset without a name")
		}
		if seen[w.Name] {
			t.Fatalf("duplicate preset %q", w.Name)
		}
		seen[w.Name] = true
		// Every preset must generate without panicking.
		g := NewGenerator(w)
		for i := 0; i < 20_000; i++ {
			g.Next()
		}
	}
	if Presets()[0].Name != SPECLike().Name {
		t.Error("the reference mix should come first")
	}
}

// missAt simulates one workload and returns (I, D) miss rates at the
// given split cache capacity.
func missAt(t *testing.T, w Workload, kb int) MissRates {
	t.Helper()
	m, err := Simulate(w, Config{SizeBytes: kb * 1024}, Config{SizeBytes: kb * 1024}, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStreamingHasHighMissFloor(t *testing.T) {
	// At 1 MB, the streaming preset's data misses stay far above the
	// reference mix's (compulsory misses are capacity-proof).
	spec := missAt(t, SPECLike(), 1024)
	stream := missAt(t, Streaming(), 1024)
	// Stream accesses touch each 64-byte line four times (16-byte
	// stride), so the floor is ~StreamFrac/4 ≈ 0.125.
	if stream.D < 2*spec.D || stream.D < 0.10 {
		t.Errorf("streaming D-miss floor %v should dwarf spec-like %v", stream.D, spec.D)
	}
}

func TestComputeBoundSaturatesEarly(t *testing.T) {
	// The compute-bound mix should be near its miss floor already at
	// 32 KB: growing to 512 KB buys almost nothing.
	small := missAt(t, ComputeBound(), 32)
	big := missAt(t, ComputeBound(), 512)
	if small.D-big.D > 0.02 {
		t.Errorf("compute-bound should saturate by 32KB: %v -> %v", small.D, big.D)
	}
	if small.D > 0.08 {
		t.Errorf("compute-bound D-miss at 32KB = %v, want small", small.D)
	}
}

func TestMemoryBoundNeedsCapacity(t *testing.T) {
	// The memory-bound mix keeps missing at capacities where the
	// reference mix has flattened.
	spec := missAt(t, SPECLike(), 256)
	mem := missAt(t, MemoryBound(), 256)
	if mem.D < 2*spec.D {
		t.Errorf("memory-bound D-miss %v should far exceed spec-like %v at 256KB", mem.D, spec.D)
	}
}

func TestCodeHeavyStressesICache(t *testing.T) {
	// At 64 KB the code-heavy mix misses instructions far more than
	// the reference mix.
	spec := missAt(t, SPECLike(), 64)
	code := missAt(t, CodeHeavy(), 64)
	if code.I < 1.8*spec.I {
		t.Errorf("code-heavy I-miss %v should far exceed spec-like %v", code.I, spec.I)
	}
}

func TestPresetsChangeTheCacheOptimum(t *testing.T) {
	// The study's conclusion is workload-dependent in the expected
	// direction: a compute-bound product needs less cache at the IPC
	// knee than a memory-bound one. Compare the capacity needed to get
	// within 10% of each workload's best IPC.
	kneeOf := func(w Workload) int {
		var cpu CPUModel
		best := 0.0
		ipcAt := map[int]float64{}
		for _, kb := range []int{1, 8, 64, 512} {
			m := missAt(t, w, kb)
			ipc := cpu.IPC(m)
			ipcAt[kb] = ipc
			if ipc > best {
				best = ipc
			}
		}
		for _, kb := range []int{1, 8, 64, 512} {
			if ipcAt[kb] >= 0.9*best {
				return kb
			}
		}
		return 512
	}
	if compute, mem := kneeOf(ComputeBound()), kneeOf(MemoryBound()); compute > mem {
		t.Errorf("compute-bound knee %dKB should not exceed memory-bound %dKB", compute, mem)
	}
}
