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
// deletion-minimal core as the Reference oracle over the equivalent named
// system, in all three relations a DenseConstraint carries. Native, the
// named door onto the same engine, numbers the variables alike, so it
// reports the same Stats, effort included.
func TestSolveDenseMatchesContext(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 5 + int(seed%11)
		var dense []DenseConstraint
		var named []Assertion
		v := func(i int) Term { return Term{Var: Var(fmt.Sprintf("d%d", i))} }
		emit := func(a, b int, rel Rel) {
			dense = append(dense, DenseConstraint{A: int32(a + 1), B: int32(b + 1), Rel: rel})
			named = append(named, Assertion{Rel: rel, A: v(a), B: v(b)})
		}
		for i := 0; i+1 < k; i++ {
			emit(i, i+1, Lt)
		}
		for n := rng.Intn(k); n > 0; n-- {
			i, j := rng.Intn(k), rng.Intn(k)
			if rng.Intn(4) > 0 { // mostly along the chain, so some systems stay sat
				i, j = min(i, j), max(i, j)
			}
			emit(i, j, []Rel{Lt, Lt, Le, Eq}[rng.Intn(4)])
		}
		if seed%3 == 0 { // plant a cycle
			emit(2, 1, Lt)
		}
		want, err := (Reference{}).Solve(ctx, named)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, model, err := SolveDense(ctx, k, dense)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Sat != want.Sat {
			t.Fatalf("seed %d: dense sat %v, reference %v", seed, got.Sat, want.Sat)
		}
		if got.Stats.Assertions != len(dense) || got.Stats.Components == 0 {
			t.Fatalf("seed %d: bad stats %+v", seed, got.Stats)
		}
		native, err := (Native{}).Solve(ctx, named)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got.Stats.Duration, got.Stats.TarjanDuration = 0, 0
		native.Stats.Duration, native.Stats.TarjanDuration = 0, 0
		if got.Stats != native.Stats {
			t.Fatalf("seed %d: dense stats %+v, native %+v", seed, got.Stats, native.Stats)
		}
		if !got.Sat {
			if !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) {
				t.Fatalf("seed %d: dense core %v, reference %v", seed, got.CoreIdx, want.CoreIdx)
			}
			continue
		}
		// Every dense id 1..k appears here (every i is chained), so compare
		// all ids.
		for i := 0; i < k; i++ {
			if got, wantV := model[i+1], want.Model[Var(fmt.Sprintf("d%d", i))]; got != wantV {
				t.Fatalf("seed %d: model[d%d] = %d, reference %d", seed, i, got, wantV)
			}
		}
	}
}

// TestChainCostIsTheChain is the structural guard on the sat leg: a strict
// chain x0 < x1 < … < xn — how every ranking is emitted — costs every door
// the same whether it is asserted ascending or descending. (Whole-graph SPFA
// read 512 M relaxations on the ascending 32 000-chain and 96 k on the
// descending one; condensed, the sweep visits each node once.) The delta
// re-probe door is held to its region in any list order the same way.
func TestChainCostIsTheChain(t *testing.T) {
	const n = 32000
	ctx := context.Background()
	asc := make([]Assertion, n)
	ascDense := make([]DenseConstraint, n)
	for i := range asc {
		asc[i] = Assertion{Rel: Lt, A: V(fmt.Sprintf("x%d", i)), B: V(fmt.Sprintf("x%d", i+1))}
		ascDense[i] = DenseConstraint{A: int32(i + 1), B: int32(i + 2)}
	}
	desc, descDense := slices.Clone(asc), slices.Clone(ascDense)
	slices.Reverse(desc)
	slices.Reverse(descDense)
	// The dense doors number x_i as i+1.
	named := func(model []int) map[Var]int {
		if model == nil {
			return nil
		}
		out := make(map[Var]int, n+1)
		for i := 0; i <= n; i++ {
			out[Var(fmt.Sprintf("x%d", i))] = model[i+1]
		}
		return out
	}

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
		dense []DenseConstraint
	}{{"ascending", asc, ascDense}, {"descending", desc, descDense}} {
		res, err := Native{}.Solve(ctx, order.as)
		check(order.name+"/native", res, err)
		c := NewContext()
		c.AssertAll(order.as)
		res, err = c.Check()
		check(order.name+"/context", res, err)
		dc := newDelta(t, order.dense, nil)
		res, _, err = dc.Check(ctx)
		res.Model = named(dc.Model()) // a delta check reads its model on demand
		check(order.name+"/delta", res, err)
		res, model, err := SolveDense(ctx, n+1, order.dense)
		res.Model = named(model)
		check(order.name+"/dense", res, err)
	}
	if want[Var("x0")] != 1 || want[Var(fmt.Sprintf("x%d", n))] != n+1 {
		t.Errorf("model is not the canonical fixpoint: x0=%d x%d=%d", want["x0"], n, want[Var(fmt.Sprintf("x%d", n))])
	}

	// The delta re-probe door: on a standing k-node chain, a new node h fans
	// out to every chain node (x_i < h), listed from the chain's sink x0 up —
	// reverse topological order, the order the changed set and so the region
	// come in. The region is the chain, seeded from h. (A region SPFA queued
	// in that order re-relaxed it k(k+1)/2 times.)
	const k = 2000
	dc := newDelta(t, ascDense[:k-1], nil)
	if res, _, err := dc.Check(ctx); err != nil || !res.Sat {
		t.Fatalf("standing chain: sat=%v err=%v", res.Sat, err)
	}
	fan := make([]DenseConstraint, k)
	for i := range fan {
		fan[i] = DenseConstraint{A: int32(i + 1), B: k + 1}
	}
	appendSeg(t, dc, fan...)
	before := dc.Stats()
	res, _, err := dc.Check(ctx)
	after := dc.Stats()
	if err != nil || !res.Sat || after.DeltaSolves != before.DeltaSolves+1 || after.LastAffected != k {
		t.Fatalf("delta re-probe: sat=%v err=%v, stats %+v → %+v; want a sat delta solve of the %d-node chain", res.Sat, err, before, after, k)
	}
	if steps := after.Steps - before.Steps; steps > 4*k || res.Stats.Probes != 1 {
		t.Errorf("delta re-probe: %d steps in %d probe(s), want ≤ %d in 1", steps, res.Stats.Probes, 4*k)
	}
	_, model, err := SolveDense(ctx, k+1, append(slices.Clone(ascDense[:k-1]), fan...))
	if err != nil || !slices.Equal(dc.Model(), model) {
		t.Errorf("delta re-probe: model differs from a dense solve's (err=%v)", err)
	}
}
