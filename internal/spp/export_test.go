package spp

// PrepAllocProbe runs the emitter's validation-and-interning front half
// alone, so a test can count its allocations.
func PrepAllocProbe(in *Instance) error {
	return buildShardPrep(new(shardPrep), in)
}

// The random-transaction driver and the oracle-parity check, for the
// external tests that feed them the scenario generators' instances.
var (
	DriveTransactions   = driveTransactions
	RequireVerifyParity = requireVerifyParity
)
