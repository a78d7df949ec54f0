package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
)

// randomInstance draws a difference-constraint instance with occasional
// constants and quantified monotonicity atoms — the full shape the analysis
// layer emits. Instances skew toward unsat so the core paths get exercised.
func randomInstance(rng *rand.Rand) []Assertion {
	vars := []string{"a", "b", "c", "d", "e", "f"}
	rels := []Rel{Lt, Le, Eq, Gt, Ge}
	n := 2 + rng.Intn(14)
	out := make([]Assertion, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0: // constant on one side
			out = append(out, Assertion{
				Rel:    rels[rng.Intn(len(rels))],
				A:      V(vars[rng.Intn(len(vars))]).Plus(rng.Intn(3) - 1),
				B:      C(rng.Intn(4)),
				Origin: fmt.Sprintf("r%d", i),
			})
		case 1: // valid quantified monotonicity
			out = append(out, Assertion{
				Rel: Lt, A: V("s"), B: V("s").Plus(1 + rng.Intn(2)),
				QuantVar: "s", Origin: fmt.Sprintf("r%d", i),
			})
		default:
			out = append(out, Assertion{
				Rel:    rels[rng.Intn(len(rels))],
				A:      V(vars[rng.Intn(len(vars))]).Plus(rng.Intn(5) - 2),
				B:      V(vars[rng.Intn(len(vars))]).Plus(rng.Intn(5) - 2),
				Origin: fmt.Sprintf("r%d", i),
			})
		}
	}
	return out
}

// randomPairs draws a system of the one atom the delta door takes, strict
// pairs x < y over a few variables: mostly distinct variables in an order
// the rest agrees with, against it often enough that most systems are unsat,
// now and then a self-loop, and sometimes an atom twice.
func randomPairs(rng *rand.Rand) []Less {
	vars := []Var{"a", "b", "c", "d", "e", "f"}
	out := make([]Less, 0, 14)
	for n := 1 + rng.Intn(12); len(out) < n; {
		i, j := rng.Intn(len(vars)), rng.Intn(len(vars))
		switch {
		case rng.Intn(3) == 0:
			i, j = max(i, j), min(i, j)
		case i == j && rng.Intn(4) > 0:
			continue
		default:
			i, j = min(i, j), max(i, j)
		}
		out = append(out, Less{A: vars[i], B: vars[j]})
	}
	if rng.Intn(4) == 0 {
		out = append(out, out[rng.Intn(len(out))])
	}
	return out
}

// TestDifferentialRandomized holds the incremental engine to the retained
// reference implementation on randomized instances of the whole fragment:
// identical sat/unsat verdicts, identical models (not merely valid ones —
// the shortest-path fixpoint is unique, so both solvers must land on it),
// and identical minimal cores element for element. On the strict pairs it
// takes, the delta door must match the string door on everything but the
// clock: a fresh DeltaContext numbers its graph as the string door does, so
// even the condensation and effort counts agree.
func TestDifferentialRandomized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		asserts := randomInstance(rng)
		got, err := (Native{}).Solve(ctx, asserts)
		if err != nil {
			t.Fatalf("trial %d: native: %v", trial, err)
		}
		want, err := (Reference{}).Solve(ctx, asserts)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if got.Sat != want.Sat {
			t.Fatalf("trial %d: verdicts disagree: native sat=%v, reference sat=%v\n%s",
				trial, got.Sat, want.Sat, FormatCore(asserts))
		}
		if got.Sat {
			if !reflect.DeepEqual(got.Model, want.Model) {
				t.Fatalf("trial %d: models disagree:\nnative    %v\nreference %v", trial, got.Model, want.Model)
			}
			s := NewContext()
			s.AssertAll(asserts)
			if bad := s.Verify(got.Model); bad != nil {
				t.Fatalf("trial %d: native model violates %s", trial, bad)
			}
			continue
		}
		if !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) {
			t.Fatalf("trial %d: cores disagree:\nnative    %v\nreference %v\ninstance:\n%s",
				trial, got.CoreIdx, want.CoreIdx, FormatCore(asserts))
		}
		if !reflect.DeepEqual(got.Core, want.Core) {
			t.Fatalf("trial %d: core assertions disagree:\nnative    %s\nreference %s",
				trial, FormatCore(got.Core), FormatCore(want.Core))
		}
		if got.UsesPositivity != want.UsesPositivity {
			t.Fatalf("trial %d: positivity flags disagree: native %v, reference %v",
				trial, got.UsesPositivity, want.UsesPositivity)
		}
	}
	sat := 0
	for trial := 0; trial < 400; trial++ {
		atoms := randomPairs(rng)
		asserts := make([]Assertion, len(atoms))
		for i, a := range atoms {
			asserts[i] = a.assertion()
		}
		want, err := (Native{}).Solve(ctx, asserts)
		if err != nil {
			t.Fatalf("pairs %d: native: %v", trial, err)
		}
		dc, err := NewDeltaContext(atoms, nil)
		if err != nil {
			t.Fatalf("pairs %d: %v", trial, err)
		}
		got, err := dc.Check(ctx)
		if err != nil {
			t.Fatalf("pairs %d: delta: %v", trial, err)
		}
		got.Model = dc.Model()
		for _, r := range []*Result{&got, &want} {
			r.Stats.Duration, r.Stats.TarjanDuration = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pairs %d: delta door disagrees with native:\ndelta  %+v\nnative %+v\ninstance:\n%s",
				trial, got, want, FormatCore(asserts))
		}
		if got.Sat {
			sat++
		}
	}
	if sat == 0 || sat > 400/2 {
		t.Fatalf("%d of 400 strict-pair systems are sat, want some but under half", sat)
	}
}

// TestDifferentialLargeChains exercises deep shortest-path chains (the
// SolverScaling shape) where SPFA's queue behavior differs most from
// pass-based Bellman–Ford.
func TestDifferentialLargeChains(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{50, 500} {
		sat := make([]Assertion, 0, n)
		for i := 0; i < n; i++ {
			sat = append(sat, Assertion{
				Rel: Lt,
				A:   V(fmt.Sprintf("x%d", i)),
				B:   V(fmt.Sprintf("x%d", i+1)),
			})
		}
		got, _ := (Native{}).Solve(ctx, sat)
		want, _ := (Reference{}).Solve(ctx, sat)
		if !got.Sat || !want.Sat || !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("n=%d: chain disagreement: sat %v/%v", n, got.Sat, want.Sat)
		}
		// Close the chain into a long negative cycle.
		unsat := append(sat[:n:n], Assertion{
			Rel: Lt, A: V(fmt.Sprintf("x%d", n)), B: V("x0"),
		})
		got, _ = (Native{}).Solve(ctx, unsat)
		want, _ = (Reference{}).Solve(ctx, unsat)
		if got.Sat || want.Sat || !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) {
			t.Fatalf("n=%d: cycle disagreement: sat %v/%v cores %v vs %v",
				n, got.Sat, want.Sat, got.CoreIdx, want.CoreIdx)
		}
		if len(got.Core) != n+1 {
			t.Fatalf("n=%d: want full-cycle core of %d, got %d", n, n+1, len(got.Core))
		}
	}
}

// TestSatSolveAllocationBudget pins the steady-state sat path to its
// allocation budget: with a warm engine pool, a solve should allocate only
// the context, the assertion copy, and the model map. GC is disabled for
// the measurement — a collection mid-run clears the engine pool, and the
// resulting cold rebuild would be charged to the warm path.
func TestSatSolveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const n = 200
	asserts := make([]Assertion, 0, n)
	for i := 0; i < n; i++ {
		asserts = append(asserts, Assertion{
			Rel: Lt,
			A:   V(fmt.Sprintf("x%d", i)),
			B:   V(fmt.Sprintf("x%d", i+1)),
		})
	}
	ctx := context.Background()
	solve := func() {
		res, err := (Native{}).Solve(ctx, asserts)
		if err != nil || !res.Sat {
			t.Fatalf("solve: sat=%v err=%v", res.Sat, err)
		}
	}
	solve() // warm the engine pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	solve() // re-warm: the pool may have been cleared since the first solve
	if got := testing.AllocsPerRun(50, solve); got > 12 {
		t.Errorf("sat-path solve allocates %.1f objects/op, budget is 12", got)
	}
}
