package spp

import (
	"cmp"
	"slices"
)

// modelWalk is the routing a safe verdict predicts. It walks the permitted
// paths in ascending order of the model (a path the model leaves out, which
// no atom mentions, first) and selects a path when its owner has no
// selection yet and its tail is its next hop's selection; an egress path's
// tail is an origin, always available. A preference atom puts a preferred
// path below a less preferred one and a monotonicity atom puts a tail below
// its extension, so when the walk reaches a path, every better path of its
// owner and the path's tail are decided for good: the walk's output is a
// stable assignment, the one every converged execution ends in.
func modelWalk(in *Instance, model map[string]int) map[Node]Path {
	type valued struct {
		p   Path
		val int
	}
	var order []valued
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			order = append(order, valued{p, model[string(appendVar(nil, p))]})
		}
	}
	slices.SortStableFunc(order, func(a, b valued) int { return cmp.Compare(a.val, b.val) })
	sel := map[Node]Path{}
	for _, x := range order {
		if _, done := sel[x.p[0]]; !done && (len(x.p) == 2 || slices.Equal(sel[x.p[1]], x.p[1:])) {
			sel[x.p[0]] = x.p
		}
	}
	return sel
}

// isStable reports whether sel is a stable assignment of the instance:
// every node holds the first path of its ranking it can hold — an egress
// path, or one whose tail its next hop holds — and nothing when it can hold
// none, and no other node holds anything.
func isStable(in *Instance, sel map[Node]Path) bool {
	same := func(a, b Path) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, n := range in.Nodes {
		var best Path
		for _, p := range in.Permitted[n] {
			if len(p) == 2 || same(sel[p[1]], p[1:]) {
				best = p
				break
			}
		}
		if !same(sel[n], best) {
			return false
		}
	}
	for n := range sel {
		if len(in.Permitted[n]) == 0 {
			return false
		}
	}
	return true
}
