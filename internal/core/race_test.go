//go:build race

package core_test

// raceEnabled reports whether the race detector is on. Under race the
// runtime randomly drops sync.Pool puts to widen interleaving coverage,
// so pooled paths allocate and steady-state zero-allocation assertions
// do not hold.
const raceEnabled = true
