// Package algebra implements the routing algebra of Sobrinho and
// Griffin/Sobrinho ("metarouting") as used by the FSR toolkit, together with
// the FSR extensions from the paper: the split of the concatenation operator
// into separate import (⊕I), route-generation (⊕P) and export (⊕E) operators,
// and the lexical product used for policy composition.
//
// An abstract routing algebra is a tuple ⟨Σ, ⪯, L, ⊕⟩:
//
//   - Σ (path signatures) describes attributes of paths so routes can be
//     ranked. A distinguished element φ (Prohibited) marks forbidden paths.
//   - ⪯ (preference) is the route-selection order: a ⪯ b means a is at least
//     as preferred as b. Every signature is strictly preferred to φ.
//   - L (link labels) describes attributes of directed links.
//   - ⊕ (concatenation) computes the signature of the path uv∘P from the
//     label of uv and the signature of P.
//
// The FSR extension replaces ⊕ with three operators so that a distributed
// implementation knows *where* filtering happens: l ⊕E s decides whether the
// route is exported on link uv, l ⊕I s decides whether it is imported over
// link vu, and l ⊕P s generates the new signature. The combined operator used
// for safety analysis is recovered by Combined.
package algebra

import (
	"fmt"
	"sort"
	"strings"
)

// Sig is a path signature: an element of Σ. Implementations are comparable
// values so signatures can be used as map keys. The distinguished signature
// Prohibited (φ) marks paths excluded from consideration.
type Sig interface {
	// String renders the signature the way the paper writes it (C, P, R, 3,
	// r_aber2, (C,2), φ...).
	String() string
	sig()
}

// Label is a link label: an element of L. Implementations are comparable.
type Label interface {
	String() string
	label()
}

// Symbol is a symbolic signature such as C, P, R or r_aber2.
type Symbol string

func (s Symbol) String() string { return string(s) }
func (Symbol) sig()             {}

// Num is a numeric signature, e.g. a hop count or an IGP path cost.
type Num int

func (n Num) String() string { return fmt.Sprintf("%d", int(n)) }
func (Num) sig()             {}

// SigPair is a signature of a lexical-product algebra A ⊗ B.
type SigPair struct {
	A, B Sig
}

func (p SigPair) String() string { return "(" + p.A.String() + "," + p.B.String() + ")" }
func (SigPair) sig()             {}

// prohibited is the singleton type of the φ signature.
type prohibited struct{}

func (prohibited) String() string { return "φ" }
func (prohibited) sig()           {}

// Prohibited is φ, the signature of prohibited paths. Any signature is
// strictly preferred to Prohibited, and Concat results of Prohibited are
// Prohibited (filtering is absorbing).
var Prohibited Sig = prohibited{}

// IsProhibited reports whether s is φ. A nil signature is treated as φ so
// that forgetting to special-case an absent table entry fails safe.
func IsProhibited(s Sig) bool {
	if s == nil {
		return true
	}
	_, ok := s.(prohibited)
	return ok
}

// LSym is a symbolic link label such as c, p, r or l_ab.
type LSym string

func (l LSym) String() string { return string(l) }
func (LSym) label()           {}

// LNum is a numeric link label, e.g. a link cost (1 for hop count).
type LNum int

func (l LNum) String() string { return fmt.Sprintf("%d", int(l)) }
func (LNum) label()           {}

// LabelPair is a label of a lexical-product algebra A ⊗ B.
type LabelPair struct {
	A, B Label
}

func (p LabelPair) String() string { return "(" + p.A.String() + "," + p.B.String() + ")" }
func (LabelPair) label()           {}

// Algebra is the FSR extended routing algebra ⟨Σ, ⪯, L, ⊕I, ⊕P, ⊕E⟩.
//
// Implementations fall into two families:
//
//   - finite (tabular) algebras, which enumerate Σ and L and define the
//     operators by table — Gao-Rexford, SPP instances, any policy written in
//     the FSR configuration language;
//   - closed-form algebras with an infinite Σ (such as shortest hop-count),
//     which additionally implement ClosedForm so the safety analysis can
//     reason about them symbolically.
type Algebra interface {
	// Name identifies the policy configuration (used in reports and
	// generated NDlog program names).
	Name() string

	// Sigs enumerates the finite signature universe excluding φ, in a stable
	// order. It returns nil for algebras with an infinite Σ (which must then
	// implement ClosedForm to be analyzable).
	Sigs() []Sig

	// Labels enumerates the label universe in a stable order.
	Labels() []Label

	// Prefer reports whether a ⪯ b is *asserted by the policy*: a is known
	// to be at least as preferred as b. For partially-specified policies
	// (e.g. SPP instances, where only same-node rankings exist) Prefer is a
	// partial relation: Prefer(a,b) and Prefer(b,a) may both be false.
	// Equal preference is expressed by asserting both directions.
	// φ handling: Prefer(s, φ) is true and Prefer(φ, s) is false for s ≠ φ.
	Prefer(a, b Sig) bool

	// Concat is the route-generation operator ⊕P: the signature of path
	// uv∘P given the label of uv and the signature of P. It returns
	// Prohibited when the policy assigns φ (e.g. an SPP non-permitted path).
	Concat(l Label, s Sig) Sig

	// Import reports l ⊕I s = I: node u accepts a route with signature s
	// arriving over the link vu labelled l.
	Import(l Label, s Sig) bool

	// Export reports l ⊕E s = E: node u announces a route with signature s
	// over the link uv labelled l.
	Export(l Label, s Sig) bool

	// Reverse returns l̄, the label of the reverse direction of a link
	// labelled l (for Gao-Rexford: c̄ = p, p̄ = c, r̄ = r). The combined
	// operator needs it because the export filter for path vu∘P runs at u
	// over label l̄ while the import filter runs at v over label l.
	Reverse(l Label) Label

	// Origin returns the signature of a one-hop path over a link labelled l
	// (the origination set of the algebra): 1 for hop count, C/P/R for
	// Gao-Rexford depending on the link class.
	Origin(l Label) Sig
}

// ClosedForm is implemented by algebras whose signature universe is infinite
// but whose concatenation is linear in the numeric signature:
// Concat(l, s) = s + Delta(l). The safety analysis uses this to emit the
// quantified constraint  forall s. s ≺ s + Delta(l)  instead of enumerating Σ.
type ClosedForm interface {
	// ConcatDelta returns the additive constant d with Concat(l, s) = s + d
	// for every numeric signature s, and ok = true; ok = false means the
	// label's concatenation is not linear.
	ConcatDelta(l Label) (d int, ok bool)
}

// Combined evaluates the combined concatenation operator ⊕ used for safety
// analysis (paper §III-A): for a path vu∘P arriving at v over the link vu
// labelled l,
//
//	l ⊕ s = φ   if  l̄ ⊕E s = F  or  l ⊕I s = F
//	l ⊕ s = l ⊕P s   otherwise
//
// where l̄ is the reverse label (the exporting node u sees the link uv).
func Combined(a Algebra, l Label, s Sig) Sig {
	if IsProhibited(s) {
		return Prohibited
	}
	if !a.Export(a.Reverse(l), s) {
		return Prohibited
	}
	if !a.Import(l, s) {
		return Prohibited
	}
	return a.Concat(l, s)
}

// Best returns the most preferred signature among candidates according to
// the algebra's preference relation, skipping φ. When the relation does not
// order a pair, the earlier candidate wins (deterministic tie-break, matching
// the paper's observation that unrelated routes never compete in practice).
// It returns Prohibited if no candidate is permitted.
func Best(a Algebra, candidates []Sig) Sig {
	best := Prohibited
	for _, c := range candidates {
		if IsProhibited(c) {
			continue
		}
		if IsProhibited(best) || strictlyPreferred(a, c, best) {
			best = c
		}
	}
	return best
}

// strictlyPreferred reports a ≺ b: a ⪯ b asserted and b ⪯ a not asserted.
func strictlyPreferred(a Algebra, x, y Sig) bool {
	return a.Prefer(x, y) && !a.Prefer(y, x)
}

// PrefPair is one asserted preference statement of a policy, used by the
// safety analysis to generate constraints with provenance. The paper's
// concrete encodings (§IV-C) translate strict preferences (C ≺ P) to <,
// equalities (P = R) to =, and plain ⪯ statements to ≤.
type PrefPair struct {
	A, B   Sig
	Equal  bool // both directions asserted: A and B equally preferred
	Strict bool // A strictly preferred to B
}

// String renders the statement the way the paper writes it (C ≺ P, P = R).
func (p PrefPair) String() string {
	switch {
	case p.Equal:
		return p.A.String() + " = " + p.B.String()
	case p.Strict:
		return p.A.String() + " ≺ " + p.B.String()
	default:
		return p.A.String() + " ⪯ " + p.B.String()
	}
}

// PrefEnumerator is implemented by algebras that track which preference
// statements were *asserted* by the policy author, as opposed to the closure
// the Prefer relation answers. The distinction matters for constraint
// counting: an SPP ranking r1, r2, r3 asserts the two adjacent pairs
// r1 ≺ r2 and r2 ≺ r3 (§III-B) even though the execution engine may consult
// the transitive closure.
type PrefEnumerator interface {
	// PrefList returns the asserted preference statements in assertion order.
	PrefList() []PrefPair
}

// Preferences enumerates the asserted preference statements of a finite
// algebra in a stable order. Algebras implementing PrefEnumerator report
// their asserted statements; otherwise, for each unordered pair {a, b} ⊆ Σ
// with a relation asserted, one PrefPair is derived from Prefer. Pairs left
// unrelated by the policy are omitted (partial orders stay partial).
func Preferences(a Algebra) []PrefPair {
	if pe, ok := a.(PrefEnumerator); ok {
		return pe.PrefList()
	}
	sigs := a.Sigs()
	var out []PrefPair
	for i := 0; i < len(sigs); i++ {
		for j := 0; j < len(sigs); j++ {
			if i == j {
				continue
			}
			x, y := sigs[i], sigs[j]
			xy, yx := a.Prefer(x, y), a.Prefer(y, x)
			switch {
			case xy && yx:
				if i < j { // emit each equality once
					out = append(out, PrefPair{A: x, B: y, Equal: true})
				}
			case xy:
				// One-directional in a derived (total-order) relation is a
				// strict preference.
				out = append(out, PrefPair{A: x, B: y, Strict: true})
			}
		}
	}
	return out
}

// ConcatEntry is one entry of the combined ⊕ table of a finite algebra:
// Label ⊕ In = Out. Entries with Out = φ are omitted by ConcatTable because
// they impose no monotonicity constraint (every signature is preferred to φ
// by definition).
type ConcatEntry struct {
	Label Label
	In    Sig
	Out   Sig
}

// String renders the entry the way the paper writes it (p ⊕ C = P).
func (e ConcatEntry) String() string {
	return e.Label.String() + " ⊕ " + e.In.String() + " = " + e.Out.String()
}

// ConcatEnumerator is implemented by algebras that know which ⊕P entries
// the policy *defined*, as opposed to answering Concat for any (label,
// signature) pair. The distinction matters for cost: a converted SPP
// instance defines one entry per permitted extension out of a
// |labels|×|Σ| table that is otherwise φ.
type ConcatEnumerator interface {
	// ConcatList returns the non-φ entries of the combined ⊕ operator in
	// ConcatTable order: by label in Labels order, then by signature in
	// Sigs order.
	ConcatList() []ConcatEntry
}

// ConcatTable enumerates the non-φ entries of the combined concatenation
// operator of a finite algebra, label-major in Labels order and Σ-minor in
// Sigs order. Algebras implementing ConcatEnumerator list their defined
// entries directly; any other algebra (products, user implementations) is
// walked densely, with the signature universe fetched once, not per label
// (Sigs implementations return defensive copies).
func ConcatTable(a Algebra) []ConcatEntry {
	if ce, ok := a.(ConcatEnumerator); ok {
		return ce.ConcatList()
	}
	labels, sigs := a.Labels(), a.Sigs()
	out := make([]ConcatEntry, 0, len(labels)*len(sigs)/2)
	for _, l := range labels {
		for _, s := range sigs {
			r := Combined(a, l, s)
			if IsProhibited(r) {
				continue
			}
			out = append(out, ConcatEntry{Label: l, In: s, Out: r})
		}
	}
	return out
}

// Format renders a finite algebra's ⊕P/⊕I/⊕E tables in the row/column layout
// used by the paper (§III-A), for diagnostics and documentation.
func Format(a Algebra) string {
	sigs, labels := a.Sigs(), a.Labels()
	if sigs == nil {
		return fmt.Sprintf("%s: closed-form algebra (infinite Σ)", a.Name())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "algebra %s\n", a.Name())
	header := func(op string) {
		fmt.Fprintf(&b, "%-4s", op)
		for _, s := range sigs {
			fmt.Fprintf(&b, " %-6s", s)
		}
		b.WriteByte('\n')
	}
	header("⊕P")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-4s", l)
		for _, s := range sigs {
			fmt.Fprintf(&b, " %-6s", a.Concat(l, s))
		}
		b.WriteByte('\n')
	}
	header("⊕I")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-4s", l)
		for _, s := range sigs {
			v := "F"
			if a.Import(l, s) {
				v = "I"
			}
			fmt.Fprintf(&b, " %-6s", v)
		}
		b.WriteByte('\n')
	}
	header("⊕E")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-4s", l)
		for _, s := range sigs {
			v := "F"
			if a.Export(l, s) {
				v = "E"
			}
			fmt.Fprintf(&b, " %-6s", v)
		}
		b.WriteByte('\n')
	}
	prefs := Preferences(a)
	strs := make([]string, len(prefs))
	for i, p := range prefs {
		strs[i] = p.String()
	}
	sort.Strings(strs)
	fmt.Fprintf(&b, "⪯: %s\n", strings.Join(strs, ", "))
	return b.String()
}
