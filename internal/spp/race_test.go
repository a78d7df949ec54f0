//go:build race

package spp_test

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops a share of what is put back, so byte pins skip.
const raceEnabled = true
