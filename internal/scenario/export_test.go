package scenario

import "fsr/internal/spp"

// UsedStorage reports what r's store holds of its request, in bytes,
// counted as Release counts it; 0 for a request that read no instance or
// has been released.
func UsedStorage(r *Request) int {
	if r.w == nil {
		return 0
	}
	_, used := r.w.footprint()
	return used
}

// ReadInstance decodes a bare wire form, as DecodeInstance does for the
// InstanceJSON encoding/json makes of the same bytes, for the tests that
// hold the byte reader to that oracle. The instance is the caller's: it is
// built in a fresh store that nothing else reuses.
func ReadInstance(body []byte) (*spp.Instance, ReadStats, error) {
	s := scanner{data: body}
	in, st, invalid, err := s.instance(newWire(bodyHints(len(body))))
	if err == nil {
		err = s.end()
	}
	if err == nil {
		err = invalid
	}
	if err != nil {
		return nil, st, err
	}
	return in, st, nil
}
