// Package smt implements a small SMT solver for the exact logic fragment the
// FSR safety analysis emits, substituting for the Yices binary the paper
// shells out to (§IV-B).
//
// The fragment: conjunctions of ordering atoms  a < b, a ≤ b, a = b  between
// two positive-integer variables, plus the single quantified pattern the
// closed-form algebras need (∀s. s < s+d), which is decided in closed form.
// Every ground atom is a difference constraint a − b ≤ 0 or ≤ −1, an edge of
// weight 0 or −1, so:
//
//   - the conjunction is satisfiable iff no cycle of the constraint graph
//     holds a strict edge, i.e. no strongly connected component holds a
//     strict internal edge (decided on the SCC condensation);
//   - a model is read off the all-zero-seeded shortest-path fixpoint, which
//     one topological sweep of the condensation computes;
//   - a *minimal* unsatisfiable core is a simple cycle through a strict
//     edge: removing any single edge of a simple cycle leaves an acyclic
//     (hence satisfiable) subset, which matches the unsat-core contract
//     Yices provides for these inputs.
//
// Terms may still carry constants and offsets (a+3 ≤ b): Emit and Parse
// round-trip them and Reference decides them, but the engine reports an
// error for such an atom. Yices-compatible surface syntax (emit and parse)
// lives in yices.go, so the paper's §IV-C listings round-trip through this
// solver.
package smt

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// Var names an integer variable. Variables range over positive integers
// (n > 0), mirroring the paper's  (define-type Sig (subtype (n::nat) (> n 0))).
type Var string

// Term is a linear term: Var + K, or the bare constant K when Var is empty.
type Term struct {
	Var Var
	K   int
}

// V returns the term consisting of the single variable name.
func V(name string) Term { return Term{Var: Var(name)} }

// C returns the constant term k.
func C(k int) Term { return Term{K: k} }

// Plus returns t + k.
func (t Term) Plus(k int) Term { return Term{Var: t.Var, K: t.K + k} }

// IsConst reports whether the term has no variable.
func (t Term) IsConst() bool { return t.Var == "" }

// String renders the term in the paper's infix style.
func (t Term) String() string {
	switch {
	case t.Var == "":
		return fmt.Sprintf("%d", t.K)
	case t.K == 0:
		return string(t.Var)
	case t.K > 0:
		return fmt.Sprintf("%s+%d", t.Var, t.K)
	default:
		return fmt.Sprintf("%s-%d", t.Var, -t.K)
	}
}

// Rel is an ordering relation between two terms.
type Rel uint8

// The relations of the fragment. Gt/Ge exist for parser convenience and are
// normalized to Lt/Le by swapping sides at assertion time.
const (
	Lt Rel = iota // <
	Le            // <=
	Eq            // =
	Gt            // >
	Ge            // >=
)

// String returns the Yices spelling of the relation.
func (r Rel) String() string {
	switch r {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Assertion is one asserted atom, optionally universally quantified.
type Assertion struct {
	Rel  Rel
	A, B Term

	// QuantVar, when non-empty, universally quantifies the named variable:
	// ∀ QuantVar. A Rel B. Only patterns where both sides mention QuantVar
	// (the monotonicity shape  s Rel s+d) are decidable; Check reports an
	// error for other quantified shapes.
	QuantVar Var

	// Origin is free-form provenance recorded by the caller (e.g. the
	// algebra constraint "strict-mono: p ⊕ C = P"); it is surfaced in unsat
	// cores so users can pinpoint the offending policy statement (§IV-B).
	Origin string
}

// String renders the assertion in infix style with its provenance.
func (a Assertion) String() string {
	body := fmt.Sprintf("%s %s %s", a.A, a.Rel, a.B)
	if a.QuantVar != "" {
		body = fmt.Sprintf("∀%s. %s", a.QuantVar, body)
	}
	if a.Origin != "" {
		return body + "  [" + a.Origin + "]"
	}
	return body
}

// normalized returns the assertion with Gt/Ge rewritten to Lt/Le.
func (a Assertion) normalized() Assertion {
	switch a.Rel {
	case Gt:
		a.A, a.B, a.Rel = a.B, a.A, Lt
	case Ge:
		a.A, a.B, a.Rel = a.B, a.A, Le
	}
	return a
}

// Stats reports solver effort, mirroring the paper's "solver returns within
// 100 ms" style measurements.
type Stats struct {
	Assertions int
	Variables  int
	Edges      int
	Duration   time.Duration
	// Components and TrivialComponents report the condensation every solve
	// runs on: total strongly connected components of the constraint graph
	// (on a delta check, of the sub-system it decided), and how many were
	// singletons with no internal edge (decided without touching a solver
	// queue). Zero only when no ground solve ran (an invalid universal).
	Components        int
	TrivialComponents int
	// Probes and Relaxations are this solve's loop effort, a delta check's
	// included: satisfiability probes decided (the component pass, the
	// witness, each minimization step) and the edges the cycle searches
	// examined inside bad components (a sat solve makes none) — the
	// per-operation view of the process-global fsr_smt_probes_total /
	// fsr_smt_relaxations_total counters.
	Probes      int
	Relaxations int
	// Levels, MaxLevelWidth, and TarjanDuration describe the solve's
	// condensation: its depth (topological levels), its widest level's
	// component count, and the time iterative Tarjan spent building it.
	Levels         int
	MaxLevelWidth  int
	TarjanDuration time.Duration
}

// Result is the outcome of Check.
type Result struct {
	// Sat reports satisfiability of the asserted conjunction.
	Sat bool
	// Model assigns positive integers to every variable when Sat. The
	// assignment satisfies every asserted atom.
	Model map[Var]int
	// Core, when !Sat, is a minimal unsatisfiable subset of the asserted
	// atoms: every proper subset of Core is satisfiable.
	Core []Assertion
	// CoreIdx gives each Core element's position in the asserted (input)
	// order, letting callers map cores back to their own constraint
	// records without string matching on Origin.
	CoreIdx []int
	// Stats reports effort.
	Stats Stats
}

// Context accumulates assertions; Check decides them. The zero value is
// ready to use. Contexts are not safe for concurrent mutation.
type Context struct {
	asserts []Assertion
}

// NewContext returns an empty logical context.
func NewContext() *Context { return &Context{} }

// Assert adds an assertion to the logical context.
func (s *Context) Assert(a Assertion) { s.asserts = append(s.asserts, a.normalized()) }

// AssertAll adds all assertions in order.
func (s *Context) AssertAll(as []Assertion) {
	s.asserts = slices.Grow(s.asserts, len(as))
	for _, a := range as {
		s.Assert(a)
	}
}

// Assertions returns the asserted atoms in assertion order.
func (s *Context) Assertions() []Assertion {
	out := make([]Assertion, len(s.asserts))
	copy(out, s.asserts)
	return out
}

// Len returns the number of asserted atoms.
func (s *Context) Len() int { return len(s.asserts) }

const zeroNode = 0 // the zero anchor: node 0, which every positivity edge enters

// Check decides the conjunction of all asserted atoms with Native: an error
// for an atom outside the decided fragment, Sat=false with a minimal core
// for an unsat input.
func (s *Context) Check() (Result, error) { return Native{}.Solve(context.Background(), s.asserts) }

// decideQuantified decides the quantified assertions analytically — the
// first phase of every assertion-list solve. decided reports that an invalid
// universal settled the system: it is, by itself, a minimal core.
func decideQuantified(asserts []Assertion, start time.Time) (res Result, decided bool, err error) {
	for i := range asserts {
		a := &asserts[i]
		if a.QuantVar == "" {
			continue
		}
		ok, err := quantifiedValid(*a)
		if err != nil {
			return Result{}, false, err
		}
		if !ok {
			return Result{
				Core:    []Assertion{*a},
				CoreIdx: []int{i},
				Stats:   Stats{Assertions: len(asserts), Duration: time.Since(start)},
			}, true, nil
		}
	}
	return Result{}, false, nil
}

// coreOf materializes the assertions at the given core positions.
func coreOf(asserts []Assertion, idx []int) []Assertion {
	core := make([]Assertion, len(idx))
	for i, ai := range idx {
		core[i] = asserts[ai]
	}
	return core
}

// quantifiedValid decides ∀v. A Rel B for the supported pattern where both
// sides mention v: (v+ka) Rel (v+kb) holds for all v iff ka Rel kb.
func quantifiedValid(a Assertion) (bool, error) {
	if a.A.Var != a.QuantVar || a.B.Var != a.QuantVar {
		return false, fmt.Errorf("smt: unsupported quantified pattern %s: both sides must mention the bound variable", a)
	}
	switch a.Rel {
	case Lt:
		return a.A.K < a.B.K, nil
	case Le:
		return a.A.K <= a.B.K, nil
	case Eq:
		return a.A.K == a.B.K, nil
	}
	return false, fmt.Errorf("smt: unsupported quantified relation in %s", a)
}

// Verify checks that model satisfies every ground assertion in the solver;
// it returns the first violated assertion, or nil. Quantified assertions are
// re-decided analytically. Used by tests and by callers that want a
// defense-in-depth check of solver output.
func (s *Context) Verify(model map[Var]int) *Assertion {
	eval := func(t Term) int {
		if t.IsConst() {
			return t.K
		}
		return model[t.Var] + t.K
	}
	for i := range s.asserts {
		a := s.asserts[i]
		if a.QuantVar != "" {
			if ok, err := quantifiedValid(a); err != nil || !ok {
				return &s.asserts[i]
			}
			continue
		}
		x, y := eval(a.A), eval(a.B)
		ok := false
		switch a.Rel {
		case Lt:
			ok = x < y
		case Le:
			ok = x <= y
		case Eq:
			ok = x == y
		}
		if !ok {
			return &s.asserts[i]
		}
	}
	for v, val := range model {
		if val <= 0 {
			// positivity violated
			bad := Assertion{Rel: Lt, A: C(0), B: V(string(v)), Origin: "positivity"}
			return &bad
		}
	}
	return nil
}
