package spp

// PrepAllocProbe runs the emitter's validation-and-interning front half
// alone, serially, so a test can count its allocations.
func PrepAllocProbe(in *Instance) error {
	_, err := buildShardPrep(in, 1)
	return err
}
