// The algebra of an instance: the per-node GPV state §V compiles a policy
// into, on the emitter's path ids instead of a string-keyed Tabular. Both
// runners execute it, and the NDlog program and the Yices text are generated
// from it. ⪯ compares ranks within one owner; ⊕P binary-searches the link's
// run of the match pass's list, which is sorted by the tail's rank.
// ToAlgebra's Tabular is the model this is tested against.

package spp

import (
	"cmp"
	"slices"

	"fsr/internal/algebra"
)

// tableSig is the signature of the permitted path with global id
// pathOff[node]+rank, rendered as ToAlgebra names it. A Table hands out one
// pointer per path, so signature equality is pointer identity.
type tableSig struct {
	algebra.Symbol
	node, rank int32
}

// tableLabel is the label l_uv of link u→v; its ⊕P entries are
// matches[lo:hi].
type tableLabel struct {
	algebra.LSym
	link, lo, hi int32
}

// Table is an instance's algebra: exactly the ⊕P entries and
// preferences of ToAlgebra's Tabular, answered on path ids. ⊕I and ⊕E pass
// everything, a link constant is its own reverse, and no label originates a
// route (the egress paths are Originations). It is immutable, so every node
// of a run shares one.
type Table struct {
	*shardPrep
	sigs   []tableSig   // by global path id
	labels []tableLabel // by position in Links
	byName map[string]int32
	byLink map[Link]int32
}

var (
	_ algebra.Algebra          = (*Table)(nil)
	_ algebra.PrefEnumerator   = (*Table)(nil)
	_ algebra.ConcatEnumerator = (*Table)(nil)
)

// NewTable builds the instance's execution table. It rejects exactly the
// instances ToAlgebra rejects, with ToAlgebra's errors.
func NewTable(in *Instance) (*Table, error) {
	p := new(shardPrep)
	err := buildShardPrep(p, in)
	if err == nil {
		err = p.name(true)
	}
	if err != nil {
		return nil, err
	}
	t := &Table{
		shardPrep: p,
		sigs:      make([]tableSig, p.nPaths),
		labels:    make([]tableLabel, len(in.Links)),
		byName:    make(map[string]int32, p.nPaths),
		byLink:    make(map[Link]int32, len(in.Links)),
	}
	for ni, paths := range p.perms {
		for r, q := range paths {
			id := p.pathOff[ni] + int32(r)
			name := sigName(q)
			t.sigs[id] = tableSig{algebra.Symbol(name), int32(ni), int32(r)}
			t.byName[name] = id
		}
	}
	for li, l := range in.Links {
		t.labels[li] = tableLabel{LSym: algebra.LSym("l_" + string(l.From) + string(l.To)), link: int32(li)}
		t.byLink[l] = int32(li)
	}
	for j, m := range p.matches {
		l := &t.labels[m.li]
		if l.hi == 0 {
			l.lo = int32(j)
		}
		l.hi = int32(j) + 1
	}
	return t, nil
}

// Name implements algebra.Algebra: ToAlgebra's name.
func (t *Table) Name() string { return "spp-" + t.in.Name }

// Sigs implements algebra.Algebra, in Nodes order then rank order.
func (t *Table) Sigs() []algebra.Sig {
	out := make([]algebra.Sig, len(t.sigs))
	for i := range t.sigs {
		out[i] = &t.sigs[i]
	}
	return out
}

// Labels implements algebra.Algebra, in Links order.
func (t *Table) Labels() []algebra.Label {
	out := make([]algebra.Label, len(t.labels))
	for i := range t.labels {
		out[i] = &t.labels[i]
	}
	return out
}

// Prefer implements algebra.Algebra: a ⪯ b when they are one path, or paths
// of one owner with a ranked above b. φ is handled as in Tabular.Prefer.
func (t *Table) Prefer(a, b algebra.Sig) bool {
	x, okA := a.(*tableSig)
	y, okB := b.(*tableSig)
	switch {
	case okA && okB:
		return x == y || x.node == y.node && x.rank < y.rank
	case algebra.IsProhibited(b):
		return true
	case algebra.IsProhibited(a):
		return false
	}
	return a == b
}

// Concat implements algebra.Algebra (⊕P): over link u→v, a path of v's
// extends to the path of u's the instance permits, found by its rank in the
// link's match segment; anything else is φ.
func (t *Table) Concat(l algebra.Label, s algebra.Sig) algebra.Sig {
	lab, okL := l.(*tableLabel)
	sig, okS := s.(*tableSig)
	if !okL || !okS || t.linkEnds[2*lab.link+1] != sig.node {
		return algebra.Prohibited
	}
	seg := t.matches[lab.lo:lab.hi]
	i, found := slices.BinarySearchFunc(seg, sig.rank, func(m linkMatch, r int32) int { return cmp.Compare(m.tq, r) })
	if !found {
		return algebra.Prohibited
	}
	return &t.sigs[t.pathOff[t.linkEnds[2*lab.link]]+seg[i].fq]
}

// PrefList implements algebra.PrefEnumerator: each ranking's adjacent pairs,
// strict, in Nodes order, as ToAlgebra asserts them.
func (t *Table) PrefList() []algebra.PrefPair {
	out := make([]algebra.PrefPair, 0, t.totalPref())
	for ni, off := range t.pathOff[:len(t.perms)] {
		for r := 1; r < len(t.perms[ni]); r++ {
			out = append(out, algebra.PrefPair{A: &t.sigs[off+int32(r)-1], B: &t.sigs[off+int32(r)], Strict: true})
		}
	}
	return out
}

// ConcatList implements algebra.ConcatEnumerator: the match list, which is
// label-major and, within a label, in its tail's (Sigs) order.
func (t *Table) ConcatList() []algebra.ConcatEntry {
	out := make([]algebra.ConcatEntry, len(t.matches))
	for j, m := range t.matches {
		from, to := t.linkEnds[2*m.li], t.linkEnds[2*m.li+1]
		out[j] = algebra.ConcatEntry{Label: &t.labels[m.li], In: &t.sigs[t.pathOff[to]+m.tq], Out: &t.sigs[t.pathOff[from]+m.fq]}
	}
	return out
}

// Import, Export, Reverse and Origin implement algebra.Algebra: SPP
// filtering is all in ⊕P.
func (t *Table) Import(algebra.Label, algebra.Sig) bool { return true }
func (t *Table) Export(algebra.Label, algebra.Sig) bool { return true }
func (t *Table) Reverse(l algebra.Label) algebra.Label  { return l }
func (t *Table) Origin(algebra.Label) algebra.Sig       { return algebra.Prohibited }

// LabelOf returns the label of a link of the instance, or nil.
func (t *Table) LabelOf(l Link) algebra.Label {
	if li, ok := t.byLink[l]; ok {
		return &t.labels[li]
	}
	return nil
}

// SigByName recovers a signature from its rendering, the wire form an
// advert carries.
func (t *Table) SigByName(name string) (algebra.Sig, bool) {
	if id, ok := t.byName[name]; ok {
		return &t.sigs[id], true
	}
	return nil, false
}

// Originations lists the egress paths as origination-set entries, in node
// order, as Conversion.Originations does.
func (t *Table) Originations() []Origination {
	var out []Origination
	for ni, paths := range t.perms {
		for r, q := range paths {
			if len(q) == 2 {
				out = append(out, Origination{Node: t.in.Nodes[ni], Sig: &t.sigs[t.pathOff[ni]+int32(r)], Path: q})
			}
		}
	}
	return out
}
