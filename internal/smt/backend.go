package smt

import "context"

// Solver decides a conjunction of assertions and reports the model or the
// minimal unsat core. Native, the in-process difference-logic engine that
// stands in for the paper's Yices (§IV-C), is the only implementation
// production uses; the interface is the seam through which tests substitute
// the Reference oracle. Yices text is output only (Emit, Parse).
// Implementations are stateless and safe for concurrent use.
type Solver interface {
	// Name identifies the implementation ("native", "reference").
	Name() string
	// Solve decides the conjunction of the assertions. Cancellation of ctx
	// aborts the solve with ctx.Err().
	Solve(ctx context.Context, assertions []Assertion) (Result, error)
}

// Native decides assertions directly with the built-in difference-logic
// engine: SCC condensation, then SPFA inside the components that have
// cycles.
type Native struct{}

// Decomposed is Native: every solve is condensed. The name survives only
// for the frozen bench/replay.go and goes with it (ROADMAP item 1).
type Decomposed = Native

// Name implements Solver.
func (Native) Name() string { return "native" }

// Solve implements Solver. Gt/Ge are normalized as Context.Assert would (no
// copy in the common all-Lt/Le case).
func (Native) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
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
	return solveAsserts(ctx, assertions)
}
