package spp

import "fsr/internal/smt"

// PrepAllocProbe runs the emitter's validation-and-naming front half
// alone, so a test can count its allocations.
func PrepAllocProbe(in *Instance) error {
	p := new(shardPrep)
	if err := buildShardPrep(p, in); err != nil {
		return err
	}
	return p.name(true)
}

// Scanned reports the elements the instance's linear scans have walked in
// this process.
func Scanned() int64 { return scanned.Load() }

// The random-transaction driver and the oracle-parity check, for the
// external tests that feed them the scenario generators' instances.
var (
	DriveTransactions   = driveTransactions
	RequireVerifyParity = requireVerifyParity
)

// PrepNames runs the emitter's front half and returns every permitted
// path's solver variable in global path order, and how many of them were
// copied from a tail's.
func PrepNames(in *Instance) ([]smt.Var, int, error) {
	p := new(shardPrep)
	err := buildShardPrep(p, in)
	if err == nil {
		err = p.name(true)
	}
	return p.vars, p.composed, err
}
