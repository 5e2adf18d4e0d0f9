//go:build !race

package core_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
