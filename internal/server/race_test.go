//go:build race

package server

// raceEnabled reports whether the race detector is active; allocation pins
// relax under it.
const raceEnabled = true
