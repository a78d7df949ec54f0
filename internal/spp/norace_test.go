//go:build !race

package spp_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
