package smt

import (
	"context"
	"fmt"
)

// Solver is the pluggable decision-procedure backend: it decides a
// conjunction of assertions and reports the model or the minimal unsat core.
// Two backends exist, mirroring the paper's architecture: the Native
// difference-logic engine (the in-process substitute for Yices) and the
// YicesText path, which round-trips the context through the Yices 1.x
// surface syntax the paper shells out with (§IV-C) and then decides it on
// that same engine. Backends are stateless
// and safe for concurrent use.
type Solver interface {
	// Name identifies the backend ("native", "yices-text").
	Name() string
	// Solve decides the conjunction of the assertions. Cancellation of ctx
	// aborts the solve with ctx.Err().
	Solve(ctx context.Context, assertions []Assertion) (Result, error)
}

// Native decides assertions directly with the built-in difference-logic
// engine: SCC condensation, then SPFA inside the components that have
// cycles. It is the default and the fastest path.
type Native struct {
	// NoMinimize disables deletion-based core minimization, as on Context.
	NoMinimize bool
}

// Decomposed is Native: every solve is condensed. The name survives only
// for the frozen bench/replay.go and goes with it (ROADMAP item 1).
type Decomposed = Native

// Name implements Solver.
func (Native) Name() string { return "native" }

// Solve implements Solver. Gt/Ge are normalized as Context.Assert would (no
// copy in the common all-Lt/Le case).
func (n Native) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
	for i := range assertions {
		if r := assertions[i].Rel; r == Gt || r == Ge {
			norm := make([]Assertion, len(assertions))
			for j := range assertions {
				norm[j] = assertions[j].normalized()
			}
			assertions = norm
			break
		}
	}
	return solveAsserts(ctx, assertions, n.NoMinimize)
}

// YicesText decides assertions via the external-solver encoding path: the
// context is rendered to Yices 1.x surface syntax (the §IV-C listings), the
// text is parsed back, and the recovered context is decided. This exercises
// the exact encoding FSR would hand to a real Yices binary, so encoding bugs
// (lost constraints, mangled terms) surface as backend disagreement rather
// than silent misanalysis.
type YicesText struct {
	// NoMinimize disables deletion-based core minimization, as on Context.
	NoMinimize bool
}

// Name implements Solver.
func (YicesText) Name() string { return "yices-text" }

// Solve implements Solver.
func (y YicesText) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
	src := NewContext()
	src.AssertAll(assertions)
	parsed, err := Parse(Emit(src))
	if err != nil {
		return Result{}, fmt.Errorf("smt: yices-text round trip: %w", err)
	}
	// The textual form carries provenance only as comments, which Parse
	// drops; re-attach it positionally (Emit and Parse both preserve
	// assertion order) so unsat cores still map back to policy statements.
	recovered := parsed.Assertions()
	if len(recovered) != src.Len() {
		return Result{}, fmt.Errorf("smt: yices-text round trip lost assertions: emitted %d, parsed %d", src.Len(), len(recovered))
	}
	orig := src.Assertions()
	re := NewContext()
	re.NoMinimize = y.NoMinimize
	for i, a := range recovered {
		a.Origin = orig[i].Origin
		re.Assert(a)
	}
	return re.CheckContext(ctx)
}

// Backends returns every built-in production solver backend, in preference
// order. The Reference implementation (reference.go) is the differential
// tests' oracle, not a backend: it is constructed directly, never by name.
func Backends() []Solver { return []Solver{Native{}, YicesText{}} }

// SolverByName resolves a backend by its Name; it returns an error naming
// the known backends for an unknown name.
func SolverByName(name string) (Solver, error) {
	switch name {
	case "", "native":
		return Native{}, nil
	case "yices-text", "yices":
		return YicesText{}, nil
	default:
		return nil, fmt.Errorf("smt: unknown solver backend %q (have: native, yices-text)", name)
	}
}
