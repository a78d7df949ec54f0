package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// TestSolveDenseMatchesContext: the pre-interned dense path computes the
// same verdict, the same canonical model values and, when unsat, the same
// deletion-minimal core (positions and positivity involvement) as the
// string-interned path over the equivalent named system. Both doors report
// the condensation they ran on.
func TestSolveDenseMatchesContext(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 5 + int(seed%11)
		var dense []DenseConstraint
		var named []Assertion
		v := func(i int) Term { return Term{Var: Var(fmt.Sprintf("d%d", i))} }
		emit := func(a, b int) {
			dense = append(dense, DenseConstraint{A: int32(a + 1), B: int32(b + 1)})
			named = append(named, Assertion{Rel: Lt, A: v(a), B: v(b)})
		}
		for i := 0; i+1 < k; i++ {
			emit(i, i+1)
		}
		for n := rng.Intn(k); n > 0; n-- {
			i, j := rng.Intn(k), rng.Intn(k)
			if rng.Intn(4) > 0 { // mostly along the chain, so some systems stay sat
				i, j = min(i, j), max(i, j)
			}
			emit(i, j)
		}
		if seed%3 == 0 { // plant a cycle
			emit(2, 1)
		}
		want, err := (Native{}).Solve(ctx, named)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want.Stats.Components == 0 {
			t.Fatalf("seed %d: no condensation stats behind the string door: %+v", seed, want.Stats)
		}
		got, model, err := SolveDense(ctx, k, dense)
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
			// Ids here follow first appearance, the string door's own
			// numbering, so even the probe sequence is the same.
			if got.Stats.Probes != want.Stats.Probes {
				t.Fatalf("seed %d: %d probes, named %d", seed, got.Stats.Probes, want.Stats.Probes)
			}
			continue
		}
		// Named interning only sees variables that appear in assertions;
		// every dense id 1..k appears here (every i is chained), so compare
		// all ids.
		for i := 0; i < k; i++ {
			if got, wantV := model[i+1], want.Model[Var(fmt.Sprintf("d%d", i))]; got != wantV {
				t.Fatalf("seed %d: model[d%d] = %d, named %d", seed, i, got, wantV)
			}
		}
	}
}

// TestChainCostIsTheChain is the structural guard on the sat leg: a strict
// chain x0 < x1 < … < xn — how every ranking is emitted — costs every door
// the same whether it is asserted ascending or descending. (Whole-graph SPFA
// read 512 M relaxations on the ascending 32 000-chain and 96 k on the
// descending one; condensed, no node of it ever enters a queue.)
func TestChainCostIsTheChain(t *testing.T) {
	const n = 32000
	ctx := context.Background()
	asc := make([]Assertion, n)
	ascAtoms := make([]Less, n)
	ascDense := make([]DenseConstraint, n)
	for i := range asc {
		ascAtoms[i] = Less{A: Var(fmt.Sprintf("x%d", i)), B: Var(fmt.Sprintf("x%d", i+1))}
		asc[i] = ascAtoms[i].assertion()
		ascDense[i] = DenseConstraint{A: int32(i + 1), B: int32(i + 2)}
	}
	desc, descAtoms, descDense := slices.Clone(asc), slices.Clone(ascAtoms), slices.Clone(ascDense)
	slices.Reverse(desc)
	slices.Reverse(descAtoms)
	slices.Reverse(descDense)

	var want map[Var]int
	check := func(door string, res Result, err error) {
		t.Helper()
		if err != nil || !res.Sat {
			t.Fatalf("%s: sat=%v err=%v", door, res.Sat, err)
		}
		if res.Stats.Relaxations > 4*n || res.Stats.Probes != 1 || res.Stats.Components != n+2 {
			t.Errorf("%s: %d relaxations in %d probe(s) over %d components, want ≤ %d in 1 over %d",
				door, res.Stats.Relaxations, res.Stats.Probes, res.Stats.Components, 4*n, n+2)
		}
		if want == nil {
			want = res.Model
		} else if !reflect.DeepEqual(res.Model, want) {
			t.Errorf("%s: model differs from the first door's", door)
		}
	}
	for _, order := range []struct {
		name  string
		as    []Assertion
		atoms []Less
		dense []DenseConstraint
	}{{"ascending", asc, ascAtoms, ascDense}, {"descending", desc, descAtoms, descDense}} {
		res, err := Native{}.Solve(ctx, order.as)
		check(order.name+"/native", res, err)
		c := NewContext()
		c.AssertAll(order.as)
		res, err = c.CheckContext(ctx)
		check(order.name+"/context", res, err)
		dc := newDelta(t, order.atoms, nil)
		res, err = dc.Check(ctx)
		res.Model = dc.Model() // a delta check renders its model on demand
		check(order.name+"/delta", res, err)
		res, model, err := SolveDense(ctx, n+1, order.dense)
		if err == nil && res.Sat {
			res.Model = make(map[Var]int, n+1)
			for i := 0; i <= n; i++ {
				res.Model[Var(fmt.Sprintf("x%d", i))] = model[i+1]
			}
		}
		check(order.name+"/dense", res, err)
	}
	if want[Var("x0")] != 1 || want[Var(fmt.Sprintf("x%d", n))] != n+1 {
		t.Errorf("model is not the canonical fixpoint: x0=%d x%d=%d", want["x0"], n, want[Var(fmt.Sprintf("x%d", n))])
	}
}
