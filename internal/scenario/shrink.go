package scenario

import (
	"context"

	"fsr/internal/spp"
)

// Shrink delta-debugs an instance down to a minimal form that still
// satisfies keep, the campaign's "still reproduces the interesting
// behavior" predicate. The reduction vocabulary is the spp mutation set —
// node removal, session removal, rank truncation — applied greedily in
// passes until a full sweep makes no progress; every adopted candidate has
// been re-verified by keep, so the result is 1-minimal with respect to the
// three operators. Returns the pruned minimal instance and the number of
// candidate evaluations spent.
//
// keep must be true for the input instance; candidates for which keep
// errors are simply not adopted.
func Shrink(ctx context.Context, in *spp.Instance, keep func(context.Context, *spp.Instance) (bool, error)) (*spp.Instance, int, error) {
	cur := in.Clone()
	tries := 0
	try := func(cand *spp.Instance) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		tries++
		return keep(ctx, cand)
	}
	for changed := true; changed; {
		changed = false

		// Pass 1: node removal (the coarsest reduction first).
		for _, n := range append([]spp.Node(nil), cur.Nodes...) {
			cand := cur.RemoveNode(n)
			ok, err := try(cand)
			if err != nil {
				return cur, tries, err
			}
			if ok {
				cur, changed = cand, true
			}
		}

		// Pass 2: session removal.
		for _, l := range cur.Sessions() {
			if !cur.HasLink(l.From, l.To) {
				continue // removed by an earlier candidate this pass
			}
			cand := cur.RemoveSession(l.From, l.To)
			ok, err := try(cand)
			if err != nil {
				return cur, tries, err
			}
			if ok {
				cur, changed = cand, true
			}
		}

		// Pass 3: rank simplification — drop permitted paths one at a time,
		// least preferred first so surviving rankings keep their heads.
		for _, n := range append([]spp.Node(nil), cur.Nodes...) {
			for idx := len(cur.Permitted[n]) - 1; idx >= 0; idx-- {
				cand := cur.DropPath(n, idx)
				ok, err := try(cand)
				if err != nil {
					return cur, tries, err
				}
				if ok {
					cur, changed = cand, true
				}
			}
		}
	}
	return cur.PruneOrigins(), tries, nil
}
