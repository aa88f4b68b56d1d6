//go:build !race

package server

// raceEnabled reports whether the race detector is instrumenting this test
// binary; it allocates on its own behalf, which loosens allocation ceilings.
const raceEnabled = false
