package cachesim

// Workload presets. The paper's cache study uses SPEC CPU2000 averages;
// real suites span a range of locality behaviours, and the IPC/TTM
// conclusions should be checked against more than one point in that
// space. These presets bracket it:
//
//   - SPECLike      — the reference mix (defaults).
//   - ComputeBound  — small working sets, few memory references: caches
//     saturate early, so the IPC/TTM optimum shifts to small caches.
//   - MemoryBound   — large, flat heap working set: misses stay high
//     until multi-megabyte capacities.
//   - Streaming     — DSP/media-style sequential sweeps: a high
//     compulsory-miss floor no cache size removes.
//   - CodeHeavy     — large instruction footprint (interpreters,
//     databases): the I-cache matters more than the D-cache.

// Presets returns the named workload suite, reference mix first.
func Presets() []Workload {
	return []Workload{
		SPECLike(),
		ComputeBound(),
		MemoryBound(),
		Streaming(),
		CodeHeavy(),
	}
}

// ComputeBound models a register-resident kernel: tiny footprints and
// a light data-reference rate.
func ComputeBound() Workload {
	return Workload{
		Name: "compute-bound", Seed: 31,
		CodeFootprintKB: 32, Functions: 8,
		HeapFootprintKB: 64, HeapZipf: 1.6,
		StackKB: 1, StreamFrac: 0.005,
		LoadsPerInstr: 0.12, StoresPerInstr: 0.05,
	}
}

// MemoryBound models a graph/database-style access pattern: a large
// heap with a weak popularity skew.
func MemoryBound() Workload {
	return Workload{
		Name: "memory-bound", Seed: 37,
		CodeFootprintKB: 128, Functions: 32,
		HeapFootprintKB: 65536, HeapZipf: 1.05,
		StackKB: 2, StreamFrac: 0.02,
		LoadsPerInstr: 0.35, StoresPerInstr: 0.12,
	}
}

// Streaming models media/DSP kernels: most data references sweep
// arrays once.
func Streaming() Workload {
	return Workload{
		Name: "streaming", Seed: 41,
		CodeFootprintKB: 64, Functions: 8,
		HeapFootprintKB: 1024, HeapZipf: 1.4,
		StackKB: 1, StreamFrac: 0.5,
		LoadsPerInstr: 0.30, StoresPerInstr: 0.15,
	}
}

// CodeHeavy models interpreter/database frontends: a multi-megabyte
// instruction footprint with shallow loops.
func CodeHeavy() Workload {
	return Workload{
		Name: "code-heavy", Seed: 43,
		CodeFootprintKB: 8192, Functions: 1024, CodeZipf: 0.9,
		HeapFootprintKB: 2048, HeapZipf: 1.4,
		StackKB: 2, StreamFrac: 0.01,
		LoadsPerInstr: 0.22, StoresPerInstr: 0.08,
	}
}
