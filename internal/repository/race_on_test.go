//go:build race

package repository

// raceEnabled reports whether the race detector is instrumenting this test
// binary; it allocates on its own behalf, which voids allocation counts.
const raceEnabled = true
