// Package spptest holds what tests and benchmarks of different packages
// share when they drive an spp.DeltaVerifier: picking, in instances of two
// sizes, edits that should cost the same.
package spptest

import (
	"fmt"
	"slices"
	"strings"

	"fsr/internal/spp"
)

// Reach indexes an instance for what an edit's cost may depend on. The
// dispute digraph has one vertex per permitted path and the edges the §IV-B
// constraints induce: a path points at the next more preferred path of its
// node, and at the path it extends when that is permitted at the next hop.
type Reach struct {
	In   *spp.Instance
	nbrs map[spp.Node][]spp.Node
	out  map[string][]string
	deg  map[string]int // in-degree
}

func key(p spp.Path) string {
	hops := make([]string, len(p))
	for i, n := range p {
		hops[i] = string(n)
	}
	return strings.Join(hops, ",")
}

// NewReach indexes the instance.
func NewReach(in *spp.Instance) *Reach {
	r := &Reach{In: in, nbrs: map[spp.Node][]spp.Node{}, out: map[string][]string{}, deg: map[string]int{}}
	links := map[spp.Link]bool{}
	for _, l := range in.Links {
		r.nbrs[l.From] = append(r.nbrs[l.From], l.To)
		links[l] = true
	}
	edge := func(a, b string) { r.out[a] = append(r.out[a], b); r.deg[b]++ }
	for _, n := range in.Nodes {
		for i, p := range in.Permitted[n] {
			if i > 0 {
				edge(key(p), key(in.Permitted[n][i-1]))
			}
			if len(p) > 2 && links[spp.Link{From: p[0], To: p[1]}] && slices.ContainsFunc(in.Permitted[p[1]], func(q spp.Path) bool { return slices.Equal(q, p[1:]) }) {
				edge(key(p), key(p[1:]))
			}
		}
	}
	return r
}

// Degree returns the node's session count.
func (r *Reach) Degree(n spp.Node) int { return len(r.nbrs[n]) }

// Shape renders what a re-rank's own work depends on: the node's sessions
// and ranking, and the rankings of the neighbours its paths extend or are
// extended from.
func (r *Reach) Shape(n spp.Node) string {
	var nbrs, lens []int
	for _, m := range r.nbrs[n] {
		nbrs = append(nbrs, len(r.In.Permitted[m]))
	}
	slices.Sort(nbrs)
	for _, p := range r.In.Permitted[n] {
		lens = append(lens, len(p))
	}
	return fmt.Sprint(len(r.nbrs[n]), lens, nbrs)
}

// Of measures what the solver has to look at after a re-rank of the nodes:
// their paths and the paths those point at, closed forwards over the
// digraph — the closure's size, the edges leaving it and the edges entering
// it.
func (r *Reach) Of(nodes ...spp.Node) (reach [3]int) {
	seen := map[string]bool{}
	var queue []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			queue = append(queue, k)
		}
	}
	for _, n := range nodes {
		for _, p := range r.In.Permitted[n] {
			add(key(p))
		}
	}
	for i := 0; i < len(queue); i++ {
		reach[0]++
		reach[1] += len(r.out[queue[i]])
		reach[2] += r.deg[queue[i]]
		for _, q := range r.out[queue[i]] {
			add(q)
		}
	}
	return reach
}

// DisputePairs lists the sessions the end-to-end benchmark plants a dispute
// on: both ends hold a ranking and have five sessions between them.
func (r *Reach) DisputePairs() (out [][]spp.Node) {
	for _, l := range r.In.Links {
		if r.Degree(l.From)+r.Degree(l.To) == 5 && len(r.In.Permitted[l.From]) > 0 && len(r.In.Permitted[l.To]) > 0 {
			out = append(out, []spp.Node{l.From, l.To})
		}
	}
	return out
}

// Swappable lists the ordinary nodes a top-two swap applies to: at most
// three sessions, at least two permitted paths.
func (r *Reach) Swappable() (out [][]spp.Node) {
	for _, n := range r.In.Nodes {
		if d := r.Degree(n); d >= 1 && d <= 3 && len(r.In.Permitted[n]) >= 2 {
			out = append(out, []spp.Node{n})
		}
	}
	return out
}

// Twins returns the first of small's candidate node sets that has a twin
// among large's — node for node the same Shape, a closure of the same size,
// and degree sums within 2 % — and that twin; nil when there is none.
func Twins(small, large *Reach, candidates func(*Reach) [][]spp.Node) (a, b []spp.Node) {
	shape := func(r *Reach, nodes []spp.Node) (s string) {
		for _, n := range nodes {
			s += r.Shape(n)
		}
		return s
	}
	byShape := map[string][][]spp.Node{}
	for _, nodes := range candidates(large) {
		byShape[shape(large, nodes)] = append(byShape[shape(large, nodes)], nodes)
	}
	near := func(x, y int) bool { return 50*max(x-y, y-x) <= x }
	for _, a := range candidates(small) {
		ra := small.Of(a...)
		for _, b := range byShape[shape(small, a)] {
			if rb := large.Of(b...); ra[0] == rb[0] && near(ra[1], rb[1]) && near(ra[2], rb[2]) {
				return a, b
			}
		}
	}
	return nil, nil
}
