// Package smt implements a small SMT solver for the exact logic fragment the
// FSR safety analysis emits, substituting for the Yices binary the paper
// shells out to (§IV-B).
//
// The fragment: conjunctions of ordering atoms  a < b, a ≤ b, a = b  over
// positive-integer variables and constants, where each side may carry an
// additive constant (a+3 ≤ b), plus the single quantified pattern the
// closed-form algebras need (∀s. s < s+d). This is integer difference logic:
//
//   - every ground atom normalizes to a difference constraint x − y ≤ c;
//   - the conjunction is satisfiable iff the constraint graph has no
//     negative-weight cycle (decided with Bellman–Ford);
//   - a model is read off the shortest-path distances;
//   - a *minimal* unsatisfiable core is a simple negative cycle: removing
//     any single edge of a simple cycle leaves an acyclic (hence
//     satisfiable) subset, which matches the unsat-core contract Yices
//     provides for these inputs.
//
// Package yices-compatible surface syntax (emit and parse) lives in
// yices.go, so the paper's §IV-C listings round-trip through this solver.
package smt

import (
	"context"
	"fmt"
	"slices"
	"time"

	"fsr/internal/obs"
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
type Rel int

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
	// runs on: total strongly connected components of the constraint graph,
	// and how many were singletons with no internal edge (decided without
	// touching a solver queue). Zero only when no ground solve ran (an
	// invalid universal, a delta re-probe).
	Components        int
	TrivialComponents int
	// Probes and Relaxations are this solve's loop effort: satisfiability
	// probes decided (the component pass, the witness, each minimization step)
	// and successful edge relaxations inside components across SPFA and
	// Bellman–Ford passes — the per-operation view of the process-global
	// fsr_smt_probes_total / fsr_smt_relaxations_total counters.
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
	// UsesPositivity reports whether the implicit n > 0 typing of variables
	// participates in the contradiction (the paper's Sig subtype). It is
	// always false from SolveDense and a DeltaContext: their atoms are strict
	// pairs between variables, and no cycle of those passes the zero node.
	UsesPositivity bool
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

const zeroNode = 0 // graph node representing the constant 0

// Check decides the conjunction of all asserted atoms. It returns an error
// only for quantified assertions outside the supported pattern; unsat inputs
// produce Sat=false with a minimal core, not an error.
func (s *Context) Check() (Result, error) { return s.CheckContext(context.Background()) }

// CheckContext is Check with cancellation: the context is consulted between
// solver phases and on every core-minimization probe (the dominant cost on
// unsat inputs), so a cancelled long-running solve returns ctx.Err()
// promptly.
func (s *Context) CheckContext(ctx context.Context) (Result, error) {
	return solveAsserts(ctx, s.asserts)
}

// solveAsserts is the string door onto the engine, for a normalized
// assertion list: quantified assertions are decided analytically, the ground
// ones are interned into a pooled engine (engine.go) and decided by its one
// solve — condensation, component pass, and on unsat the minimal core. The
// retained reference implementation (reference.go) decides the same inputs
// the original way; differential tests hold the two to identical verdicts,
// models, and cores.
func solveAsserts(ctx context.Context, asserts []Assertion) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "solve")
	sp.AttrInt("assertions", int64(len(asserts)))
	defer sp.End()
	if res, decided, err := decideQuantified(asserts, start); decided || err != nil {
		return res, err
	}

	e := enginePool.Get().(*dlEngine)
	defer e.release()
	defer e.flushStats() // LIFO: drain the loop counts before pooling
	e.build(asserts)
	var (
		res Result
		err error
	)
	res.Sat, res.CoreIdx, res.UsesPositivity, err = e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, err
	}
	if res.Sat {
		res.Model = e.model()
	} else {
		res.Core = coreOf(asserts, res.CoreIdx)
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

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

// model reads the satisfying assignment off the converged distances:
// val(x) = dist(x) − dist(zero) satisfies every difference constraint
// (distances do) and positivity (the positivity edges are part of the
// graph).
func (e *dlEngine) model() map[Var]int {
	model := make(map[Var]int, len(e.idVar)-1)
	d0 := e.dist[zeroNode]
	for i := 1; i < len(e.idVar); i++ {
		model[e.idVar[i]] = e.dist[i] - d0
	}
	return model
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
