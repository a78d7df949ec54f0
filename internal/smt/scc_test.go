package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomSystem builds a seeded difference-logic system over k variables:
// preference-style chains, random cross constraints, and (for odd seeds) a
// planted strict cycle, so both verdicts and both engine paths (trivial
// DAG components and nontrivial SCCs) are exercised.
func randomSystem(seed int64, k int) []Assertion {
	rng := rand.New(rand.NewSource(seed))
	v := func(i int) Term { return Term{Var: Var(fmt.Sprintf("v%d", i))} }
	var as []Assertion
	for i := 0; i+1 < k; i++ {
		if rng.Intn(3) > 0 {
			as = append(as, Assertion{Rel: Lt, A: v(i), B: v(i + 1), Origin: fmt.Sprintf("chain %d", i)})
		}
	}
	for n := rng.Intn(2 * k); n > 0; n-- {
		i, j := rng.Intn(k), rng.Intn(k)
		if i == j {
			continue
		}
		rel := []Rel{Lt, Le, Le, Eq}[rng.Intn(4)]
		as = append(as, Assertion{Rel: rel, A: v(i), B: v(j).Plus(rng.Intn(7) - 3), Origin: fmt.Sprintf("cross %d %d", i, j)})
	}
	if seed%2 == 1 {
		a, b, c := rng.Intn(k), rng.Intn(k), rng.Intn(k)
		as = append(as,
			Assertion{Rel: Lt, A: v(a), B: v(b), Origin: "cyc ab"},
			Assertion{Rel: Lt, A: v(b), B: v(c), Origin: "cyc bc"},
			Assertion{Rel: Le, A: v(c), B: v(a), Origin: "cyc ca"},
		)
	}
	return as
}

// TestDecomposedMatchesNative: the SCC-decomposed backend is bit-identical
// to the sequential engine — verdict, model, minimized core, core indices,
// and positivity involvement — across seeded random systems and worker
// counts. This is the contract that lets the scale path substitute for the
// undecomposed one.
func TestDecomposedMatchesNative(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 60; seed++ {
		as := randomSystem(seed, 4+int(seed%13))
		want, err := (Native{}).Solve(ctx, as)
		if err != nil {
			t.Fatalf("seed %d: native: %v", seed, err)
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := (Decomposed{Workers: workers}).Solve(ctx, as)
			if err != nil {
				t.Fatalf("seed %d w=%d: decomposed: %v", seed, workers, err)
			}
			if got.Sat != want.Sat {
				t.Fatalf("seed %d w=%d: sat %v, native %v", seed, workers, got.Sat, want.Sat)
			}
			if !reflect.DeepEqual(got.Model, want.Model) {
				t.Fatalf("seed %d w=%d: model differs:\n%v\nvs\n%v", seed, workers, got.Model, want.Model)
			}
			if !reflect.DeepEqual(got.Core, want.Core) || !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) {
				t.Fatalf("seed %d w=%d: core differs: %v vs %v", seed, workers, got.CoreIdx, want.CoreIdx)
			}
			if got.UsesPositivity != want.UsesPositivity {
				t.Fatalf("seed %d w=%d: positivity %v vs %v", seed, workers, got.UsesPositivity, want.UsesPositivity)
			}
			if got.Sat && got.Stats.Components == 0 {
				t.Fatalf("seed %d w=%d: no condensation stats on sat solve", seed, workers)
			}
		}
	}
}

// TestDecomposedQuantified: quantified assertions take the same analytic
// phase as Context — valid universals are ignored by the ground solve,
// an invalid one is its own minimal core.
func TestDecomposedQuantified(t *testing.T) {
	ctx := context.Background()
	x := Term{Var: "x"}
	valid := Assertion{Rel: Le, A: Term{Var: "n"}, B: Term{Var: "n", K: 1}, QuantVar: "n"}
	invalid := Assertion{Rel: Lt, A: Term{Var: "n"}, B: Term{Var: "n"}, QuantVar: "n"}
	for _, as := range [][]Assertion{
		{valid, {Rel: Lt, A: x, B: Term{Var: "y"}}},
		{{Rel: Lt, A: x, B: Term{Var: "y"}}, invalid},
	} {
		want, err := (Native{}).Solve(ctx, as)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (Decomposed{}).Solve(ctx, as)
		if err != nil {
			t.Fatal(err)
		}
		got.Stats, want.Stats = Stats{}, Stats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("quantified handling differs:\n%+v\nvs\n%+v", got, want)
		}
	}
}

// TestSolveDenseMatchesContext: the pre-interned dense path computes the
// same verdict, the same canonical model values and, when unsat, the same
// deletion-minimal core (positions and positivity involvement) as the
// string-interned path over the equivalent named system.
func TestSolveDenseMatchesContext(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 5 + int(seed%11)
		var dense []DenseConstraint
		var named []Assertion
		v := func(i int) Term { return Term{Var: Var(fmt.Sprintf("d%d", i))} }
		emit := func(a, b int, kk int, strict bool) {
			dense = append(dense, DenseConstraint{A: int32(a + 1), B: int32(b + 1), K: kk, Strict: strict})
			rel := Le
			if strict {
				rel = Lt
			}
			named = append(named, Assertion{Rel: rel, A: v(a), B: v(b).Plus(kk)})
		}
		for i := 0; i+1 < k; i++ {
			emit(i, i+1, 0, true)
		}
		for n := rng.Intn(2 * k); n > 0; n-- {
			i, j := rng.Intn(k), rng.Intn(k)
			if i == j {
				continue
			}
			emit(i, j, rng.Intn(7)-3, rng.Intn(2) == 0)
		}
		if seed%3 == 0 { // plant a cycle
			emit(2, 1, 0, true)
		}
		want, err := (Native{}).Solve(ctx, named)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, model, err := SolveDense(ctx, k, dense, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Sat != want.Sat {
			t.Fatalf("seed %d: dense sat %v, named %v", seed, got.Sat, want.Sat)
		}
		if got.Stats.Assertions != len(dense) || got.Stats.Components == 0 {
			t.Fatalf("seed %d: bad stats %+v", seed, got.Stats)
		}
		if !got.Sat {
			if !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) || got.UsesPositivity != want.UsesPositivity {
				t.Fatalf("seed %d: dense core %v (positivity %v), named %v (%v)", seed,
					got.CoreIdx, got.UsesPositivity, want.CoreIdx, want.UsesPositivity)
			}
			// Ids here follow first appearance, the string engine's own
			// numbering, so even the probe sequence is the same — after
			// the one condensation pass.
			if got.Stats.Probes != want.Stats.Probes+1 {
				t.Fatalf("seed %d: %d probes, named %d + the condensation pass", seed, got.Stats.Probes, want.Stats.Probes)
			}
			continue
		}
		// Named interning only sees variables that appear in assertions;
		// every dense id 1..k appears here by construction of the chain...
		// except chain gaps are impossible (every i is chained), so compare
		// all ids.
		for i := 0; i < k; i++ {
			if got, wantV := model[i+1], want.Model[Var(fmt.Sprintf("d%d", i))]; got != wantV {
				t.Fatalf("seed %d: model[d%d] = %d, named %d", seed, i, got, wantV)
			}
		}
	}
}
