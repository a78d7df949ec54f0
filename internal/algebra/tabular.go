package algebra

import (
	"fmt"
	"slices"
	"sort"
)

// Tabular is a finite algebra defined by explicit tables: the form used for
// Gao-Rexford-style guidelines, converted SPP instances, and any policy
// written in the FSR configuration language.
//
// Build one with NewBuilder; a Tabular itself is immutable after Build so it
// can be shared freely between the analysis and the protocol runtime.
type Tabular struct {
	name    string
	sigs    []Sig
	labels  []Label
	sigIdx  map[Sig]int
	labIdx  map[Label]int
	prefer  map[[2]Sig]bool
	concat  map[labSig]Sig
	imports map[labSig]bool // absent ⇒ default policy
	exports map[labSig]bool
	impDef  bool // default import verdict for absent entries
	expDef  bool
	reverse map[Label]Label
	origin  map[Label]Sig
	// asserted is the preference statements as the policy author wrote them
	// (PrefEnumerator); prefer above holds their reflexive-transitive use.
	asserted []PrefPair
	// defined is the keys of concat as (label index, signature index) pairs
	// packed label-major and sorted at Build (ConcatEnumerator).
	defined []uint64
}

type labSig struct {
	l Label
	s Sig
}

var (
	_ Algebra          = (*Tabular)(nil)
	_ PrefEnumerator   = (*Tabular)(nil)
	_ ConcatEnumerator = (*Tabular)(nil)
)

// Name implements Algebra.
func (t *Tabular) Name() string { return t.name }

// Sigs implements Algebra.
func (t *Tabular) Sigs() []Sig { out := make([]Sig, len(t.sigs)); copy(out, t.sigs); return out }

// Labels implements Algebra.
func (t *Tabular) Labels() []Label {
	out := make([]Label, len(t.labels))
	copy(out, t.labels)
	return out
}

// Prefer implements Algebra. Beyond the asserted pairs it supplies the two
// definitional facts: s ⪯ s (reflexivity) and s ≺ φ for every s.
func (t *Tabular) Prefer(a, b Sig) bool {
	if IsProhibited(b) {
		return true // s ⪯ φ for every s (and φ ⪯ φ)
	}
	if IsProhibited(a) {
		return false
	}
	if a == b {
		return true
	}
	return t.prefer[[2]Sig{a, b}]
}

// Concat implements Algebra (the ⊕P operator). Entries absent from the table
// are φ: unlisted combinations are prohibited, matching the SPP conversion
// where non-permitted paths get signature φ.
func (t *Tabular) Concat(l Label, s Sig) Sig {
	if IsProhibited(s) {
		return Prohibited
	}
	if r, ok := t.concat[labSig{l, s}]; ok {
		return r
	}
	return Prohibited
}

// Import implements Algebra (the ⊕I operator).
func (t *Tabular) Import(l Label, s Sig) bool { return verdict(t.imports, l, s, t.impDef) }

// Export implements Algebra (the ⊕E operator).
func (t *Tabular) Export(l Label, s Sig) bool { return verdict(t.exports, l, s, t.expDef) }

// verdict reads a ⊕I or ⊕E table, def for absent entries. An empty table
// answers without a lookup, which costs even on an empty map for keys that
// hold interfaces.
func verdict(m map[labSig]bool, l Label, s Sig, def bool) bool {
	if len(m) == 0 {
		return def
	}
	if v, ok := m[labSig{l, s}]; ok {
		return v
	}
	return def
}

// Reverse implements Algebra. Labels without a declared reverse are their own
// reverse (peer links, SPP link constants).
func (t *Tabular) Reverse(l Label) Label {
	if r, ok := t.reverse[l]; ok {
		return r
	}
	return l
}

// Origin implements Algebra. Labels without a declared origination signature
// originate φ (no one-hop route over that link).
func (t *Tabular) Origin(l Label) Sig {
	if s, ok := t.origin[l]; ok {
		return s
	}
	return Prohibited
}

// PrefList implements PrefEnumerator: the preference statements in the order
// the policy asserted them, with A ⪯ B ∧ B ⪯ A collapsed into one equality.
func (t *Tabular) PrefList() []PrefPair {
	out := make([]PrefPair, len(t.asserted))
	copy(out, t.asserted)
	return out
}

// ConcatList implements ConcatEnumerator: each defined ⊕P entry, filtered
// through ⊕E and ⊕I like every cell of the dense table walk, in O(entries).
func (t *Tabular) ConcatList() []ConcatEntry {
	out := make([]ConcatEntry, 0, len(t.defined))
	for _, k := range t.defined {
		l, s := t.labels[k>>32], t.sigs[uint32(k)]
		if r := Combined(t, l, s); !IsProhibited(r) {
			out = append(out, ConcatEntry{Label: l, In: s, Out: r})
		}
	}
	return out
}

// Builder assembles a Tabular algebra. The zero value is not usable; call
// NewBuilder. Methods return the builder for chaining; errors are collected
// and reported by Build so policy-construction code stays readable.
type Builder struct {
	t    *Tabular
	errs []error
}

// NewBuilder starts a finite algebra named name. By default every import and
// export is permitted (the common case: guidelines constrain exports only)
// and every label is its own reverse.
func NewBuilder(name string) *Builder {
	return &Builder{t: &Tabular{
		name:    name,
		sigIdx:  map[Sig]int{},
		labIdx:  map[Label]int{},
		prefer:  map[[2]Sig]bool{},
		concat:  map[labSig]Sig{},
		imports: map[labSig]bool{},
		exports: map[labSig]bool{},
		impDef:  true,
		expDef:  true,
		reverse: map[Label]Label{},
		origin:  map[Label]Sig{},
	}}
}

func (b *Builder) errf(format string, args ...any) *Builder {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
	return b
}

// Sigs declares signatures, in preference-table order.
func (b *Builder) Sigs(ss ...Sig) *Builder {
	for _, s := range ss {
		if IsProhibited(s) {
			b.errf("algebra %s: φ is implicit and cannot be declared", b.t.name)
			continue
		}
		if _, dup := b.t.sigIdx[s]; dup {
			b.errf("algebra %s: duplicate signature %s", b.t.name, s)
			continue
		}
		b.t.sigIdx[s] = len(b.t.sigs)
		b.t.sigs = append(b.t.sigs, s)
	}
	return b
}

// Labels declares link labels.
func (b *Builder) Labels(ls ...Label) *Builder {
	for _, l := range ls {
		if _, dup := b.t.labIdx[l]; dup {
			b.errf("algebra %s: duplicate label %s", b.t.name, l)
			continue
		}
		b.t.labIdx[l] = len(b.t.labels)
		b.t.labels = append(b.t.labels, l)
	}
	return b
}

func (b *Builder) checkSig(s Sig, ctx string) bool {
	if _, ok := b.t.sigIdx[s]; !ok {
		b.errf("algebra %s: %s references undeclared signature %s", b.t.name, ctx, s)
		return false
	}
	return true
}

func (b *Builder) checkLabel(l Label, ctx string) bool {
	if _, ok := b.t.labIdx[l]; !ok {
		b.errf("algebra %s: %s references undeclared label %s", b.t.name, ctx, l)
		return false
	}
	return true
}

// Prefer asserts a ≺ s (strictly preferred, the paper's C ≺ P form).
// Asserting the reverse direction later upgrades the recorded statement to
// an equality (matching the paper's P = R encoding).
func (b *Builder) Prefer(a, s Sig) *Builder {
	if !b.checkSig(a, "preference") || !b.checkSig(s, "preference") {
		return b
	}
	if b.t.prefer[[2]Sig{s, a}] {
		b.t.prefer[[2]Sig{a, s}] = true
		b.upgradeToEqual(a, s)
		return b
	}
	if b.t.prefer[[2]Sig{a, s}] {
		return b // duplicate assertion
	}
	b.t.prefer[[2]Sig{a, s}] = true
	b.t.asserted = append(b.t.asserted, PrefPair{A: a, B: s, Strict: true})
	return b
}

// upgradeToEqual replaces an asserted one-directional pair over {a, s} with
// an equality, or records a fresh equality if none was asserted.
func (b *Builder) upgradeToEqual(a, s Sig) {
	for i, p := range b.t.asserted {
		if (p.A == s && p.B == a) || (p.A == a && p.B == s) {
			b.t.asserted[i].Equal = true
			b.t.asserted[i].Strict = false
			return
		}
	}
	b.t.asserted = append(b.t.asserted, PrefPair{A: a, B: s, Equal: true})
}

// Equal asserts that a and b are equally preferred (both directions of ⪯).
func (b *Builder) Equal(a, s Sig) *Builder {
	if !b.checkSig(a, "preference") || !b.checkSig(s, "preference") {
		return b
	}
	b.t.prefer[[2]Sig{a, s}] = true
	b.t.prefer[[2]Sig{s, a}] = true
	b.upgradeToEqual(a, s)
	return b
}

// Chain asserts the ranking s1 ≺ s2 ≺ … ≺ sn. Following the SPP conversion
// (§III-B), only the adjacent pairs are *asserted* (they are what the
// analysis turns into constraints); the non-adjacent pairs are added to the
// relation silently so Best can compare any two ranked signatures.
func (b *Builder) Chain(ss ...Sig) *Builder {
	for i := 0; i+1 < len(ss); i++ {
		b.Prefer(ss[i], ss[i+1])
	}
	for i := 0; i < len(ss); i++ {
		for j := i + 2; j < len(ss); j++ {
			if b.checkSig(ss[i], "chain") && b.checkSig(ss[j], "chain") {
				b.t.prefer[[2]Sig{ss[i], ss[j]}] = true
			}
		}
	}
	return b
}

// Concat defines l ⊕P s = out. Use φ (Prohibited) for out to explicitly
// prohibit; omitting the entry has the same meaning.
func (b *Builder) Concat(l Label, s Sig, out Sig) *Builder {
	if !b.checkLabel(l, "⊕P entry") || !b.checkSig(s, "⊕P entry") {
		return b
	}
	if !IsProhibited(out) && !b.checkSig(out, "⊕P result") {
		return b
	}
	if _, dup := b.t.concat[labSig{l, s}]; dup {
		return b.errf("algebra %s: duplicate ⊕P entry %s ⊕ %s", b.t.name, l, s)
	}
	if !IsProhibited(out) {
		b.t.concat[labSig{l, s}] = out
	}
	return b
}

// ConcatAll defines l ⊕P s = out for every declared signature s (the paper's
// "p ⊕P ∗ = P" shorthand).
func (b *Builder) ConcatAll(l Label, out Sig) *Builder {
	for _, s := range b.t.sigs {
		b.Concat(l, s, out)
	}
	return b
}

// DefaultImport sets the verdict for ⊕I entries not set explicitly
// (true = import). The default is true: guidelines rarely constrain imports.
func (b *Builder) DefaultImport(allow bool) *Builder { b.t.impDef = allow; return b }

// DefaultExport sets the verdict for ⊕E entries not set explicitly.
func (b *Builder) DefaultExport(allow bool) *Builder { b.t.expDef = allow; return b }

// Import sets l ⊕I s (true = I, false = F).
func (b *Builder) Import(l Label, s Sig, allow bool) *Builder {
	if b.checkLabel(l, "⊕I entry") && b.checkSig(s, "⊕I entry") {
		b.t.imports[labSig{l, s}] = allow
	}
	return b
}

// Export sets l ⊕E s (true = E, false = F).
func (b *Builder) Export(l Label, s Sig, allow bool) *Builder {
	if b.checkLabel(l, "⊕E entry") && b.checkSig(s, "⊕E entry") {
		b.t.exports[labSig{l, s}] = allow
	}
	return b
}

// Reverse declares l̄ = r and r̄ = l (bilateral business relationships:
// Reverse(c)=p). Self-inverse labels need no declaration.
func (b *Builder) Reverse(l, r Label) *Builder {
	if b.checkLabel(l, "reverse") && b.checkLabel(r, "reverse") {
		b.t.reverse[l] = r
		b.t.reverse[r] = l
	}
	return b
}

// Origin declares the signature of one-hop paths over links labelled l.
func (b *Builder) Origin(l Label, s Sig) *Builder {
	if b.checkLabel(l, "origin") && (IsProhibited(s) || b.checkSig(s, "origin")) {
		if !IsProhibited(s) {
			b.t.origin[l] = s
		}
	}
	return b
}

// Build finalizes the algebra, validating that at least one signature and one
// label were declared and reporting every accumulated construction error.
func (b *Builder) Build() (*Tabular, error) {
	if len(b.t.sigs) == 0 {
		b.errf("algebra %s: no signatures declared", b.t.name)
	}
	if len(b.t.labels) == 0 {
		b.errf("algebra %s: no labels declared", b.t.name)
	}
	if len(b.errs) > 0 {
		msgs := make([]string, len(b.errs))
		for i, e := range b.errs {
			msgs[i] = e.Error()
		}
		sort.Strings(msgs)
		return nil, fmt.Errorf("building algebra: %s", msgs[0])
	}
	b.t.defined = make([]uint64, 0, len(b.t.concat))
	for k := range b.t.concat {
		b.t.defined = append(b.t.defined, uint64(b.t.labIdx[k.l])<<32|uint64(b.t.sigIdx[k.s]))
	}
	slices.Sort(b.t.defined)
	return b.t, nil
}

// MustBuild is Build for statically-known algebras (the built-in library);
// it panics on construction errors.
func (b *Builder) MustBuild() *Tabular {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
