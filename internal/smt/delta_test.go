package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// oracleCheck solves the assertion list on a fresh Context — the full
// rebuild the delta path must match bit for bit.
func oracleCheck(t *testing.T, asserts []Assertion) Result {
	t.Helper()
	c := NewContext()
	c.AssertAll(asserts)
	res, err := c.CheckContext(context.Background())
	if err != nil {
		t.Fatalf("oracle check: %v", err)
	}
	return res
}

// requireParity fails unless got matches the oracle on verdict, model,
// core, core indices, and positivity involvement (Stats are excluded:
// durations differ by construction, and a delta solve may keep orphaned
// variables interned).
func requireParity(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Sat != want.Sat {
		t.Fatalf("%s: Sat = %v, oracle %v", label, got.Sat, want.Sat)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Model), len(want.Model), got.Model, want.Model)
	}
	for v, k := range want.Model {
		if got.Model[v] != k {
			t.Fatalf("%s: model[%s] = %d, oracle %d", label, v, got.Model[v], k)
		}
	}
	if len(got.CoreIdx) != len(want.CoreIdx) {
		t.Fatalf("%s: core size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.CoreIdx), len(want.CoreIdx), got.CoreIdx, want.CoreIdx)
	}
	for i := range want.CoreIdx {
		if got.CoreIdx[i] != want.CoreIdx[i] {
			t.Fatalf("%s: CoreIdx[%d] = %d, oracle %d", label, i, got.CoreIdx[i], want.CoreIdx[i])
		}
		if got.Core[i] != want.Core[i] {
			t.Fatalf("%s: Core[%d] = %v, oracle %v", label, i, got.Core[i], want.Core[i])
		}
	}
	if got.UsesPositivity != want.UsesPositivity {
		t.Fatalf("%s: UsesPositivity = %v, oracle %v", label, got.UsesPositivity, want.UsesPositivity)
	}
}

// deltaCheck runs Check and attaches the model Model renders for it, so a
// result compares field for field with a fresh Context.Check.
func deltaCheck(t *testing.T, d *DeltaContext) Result {
	t.Helper()
	res, err := d.Check(context.Background())
	if err != nil {
		t.Fatalf("delta check: %v", err)
	}
	if res.Model != nil {
		t.Fatalf("delta check built a model: %v", res.Model)
	}
	res.Model = d.Model()
	if res.Sat != (res.Model != nil) {
		t.Fatalf("Sat=%v but Model()=%v", res.Sat, res.Model)
	}
	return res
}

// deltaState is everything a DeltaContext carries between checks, for
// comparing a rolled-back context with the one Begin found.
type deltaState struct {
	Asserts  []Assertion
	Built    bool
	Vars     []Var
	Edges    []dlEdge
	Dist     []int
	EdgeOff  []int32
	VarRef   []int32
	Active   []bool
	Changed  []int32
	Res      Result
	ResValid bool
}

func stateOf(d *DeltaContext) deltaState {
	st := deltaState{Asserts: d.Assertions(), Built: d.built, Res: d.res, ResValid: d.resValid}
	if d.built { // an unbuilt context's engine is scratch
		st.Vars = slices.Clone(d.e.idVar)
		st.Edges = slices.Clone(d.e.edges)
		st.Dist = slices.Clone(d.e.dist)
		st.EdgeOff = slices.Clone(d.edgeOff)
		st.VarRef = slices.Clone(d.varRef)
		st.Active = slices.Clone(d.e.active)
		st.Changed = append([]int32(nil), d.changed...) // nil when empty, however it got there
	}
	return st
}

// TestDeltaSpliceFuzz drives random transactions over random
// difference-logic instances: Begin, one to four splices (fresh variables,
// quantified atoms, whatever verdict flips they cause), a Check that must
// match a fresh full solve of the same list bit for bit, then Commit or
// Rollback. A rolled-back context must be, field for field, the one Begin
// found: the next Check is answered from the memoized result, and a
// one-edge splice after it by a delta solve — also when the check that was
// rolled back had found a negative cycle.
func TestDeltaSpliceFuzz(t *testing.T) {
	vars := []Var{"a", "b", "c", "d", "e", "f", "g", "h"}
	unsatRolledBack, freshRolledBack := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		randTerm := func() Term {
			switch k := rng.Intn(12); {
			case k < 2:
				return C(rng.Intn(7) - 3)
			case k < 3: // a variable the context has never seen
				fresh++
				return V(fmt.Sprintf("v%d", fresh)).Plus(rng.Intn(3) - 1)
			}
			return V(string(vars[rng.Intn(len(vars))])).Plus(rng.Intn(5) - 2)
		}
		randAssert := func() Assertion {
			switch rng.Intn(30) {
			case 0: // ∀n. n ≤ n+1: valid, owns no edge
				return Assertion{Rel: Le, A: Term{Var: "n"}, B: Term{Var: "n", K: 1}, QuantVar: "n"}
			case 1: // ∀n. n+1 < n: invalid, a one-element core by itself
				return Assertion{Rel: Lt, A: Term{Var: "n", K: 1}, B: Term{Var: "n"}, QuantVar: "n"}
			}
			return Assertion{
				Rel: Rel(rng.Intn(5)), // Lt, Le, Eq, Gt, Ge
				A:   randTerm(),
				B:   randTerm(),
			}
		}
		asserts := make([]Assertion, 4+rng.Intn(10))
		for i := range asserts {
			asserts[i] = randAssert()
		}
		d := NewDeltaContext(asserts)
		requireParity(t, fmt.Sprintf("seed %d initial", seed), deltaCheck(t, d), oracleCheck(t, d.Assertions()))
		for round := 0; round < 25; round++ {
			before, vars := stateOf(d), len(d.e.idVar)
			d.Begin()
			for k := 1 + rng.Intn(4); k > 0; k-- {
				n := d.Len()
				at := rng.Intn(n + 1)
				del := 0
				if at < n {
					del = rng.Intn(min(n-at, 3) + 1)
				}
				add := make([]Assertion, rng.Intn(3))
				for i := range add {
					add[i] = randAssert()
				}
				if err := d.Splice(at, del, add); err != nil {
					t.Fatalf("seed %d round %d: splice: %v", seed, round, err)
				}
			}
			label := fmt.Sprintf("seed %d round %d", seed, round)
			inside := deltaCheck(t, d)
			requireParity(t, label+" inside", inside, oracleCheck(t, d.Assertions()))
			if rng.Intn(2) == 0 {
				d.Commit()
				requireParity(t, label+" committed", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
				continue
			}
			grew := d.built && len(d.e.idVar) > vars
			d.Rollback()
			if after := stateOf(d); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s: rollback left\n%+v\nBegin found\n%+v", label, after, before)
			}
			st := d.Stats()
			requireParity(t, label+" rolled back", deltaCheck(t, d), oracleCheck(t, before.Asserts))
			if now := d.Stats(); now.CacheHits != st.CacheHits+1 || now.Checks != st.Checks {
				t.Fatalf("%s: check after rollback was not answered from the memoized result: %+v → %+v", label, st, now)
			}
			if !before.Res.Sat {
				continue
			}
			// A one-edge splice on the restored fixed point: a ≤ a+1 keeps
			// any system satisfiable.
			if before.Built && grew {
				freshRolledBack++
			}
			if !inside.Sat {
				unsatRolledBack++
			}
			benign := []Assertion{{Rel: Le, A: V("a"), B: V("a").Plus(1)}}
			for _, edit := range []struct {
				del int
				add []Assertion
			}{{0, benign}, {1, nil}} {
				st := d.Stats()
				if err := d.Splice(d.Len()-edit.del, edit.del, edit.add); err != nil {
					t.Fatal(err)
				}
				requireParity(t, label+" one-edge splice", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
				if now := d.Stats(); now.DeltaSolves != st.DeltaSolves+1 || now.FullSolves != st.FullSolves {
					t.Fatalf("%s: one-edge splice after rollback was not a delta solve: %+v → %+v", label, st, now)
				}
			}
		}
	}
	if unsatRolledBack == 0 || freshRolledBack == 0 {
		t.Fatalf("fuzz rolled back %d unsat checks and %d transactions with fresh variables, want both > 0", unsatRolledBack, freshRolledBack)
	}
}

// TestDeltaSatToUnsatAndBack walks a context across the sat/unsat boundary:
// an unsat verdict (exact core from a pooled engine) costs the standing
// fixed point nothing, so the repair is a delta solve.
func TestDeltaSatToUnsatAndBack(t *testing.T) {
	base := []Assertion{
		{Rel: Lt, A: V("x"), B: V("y")},
		{Rel: Lt, A: V("y"), B: V("z")},
	}
	d := NewDeltaContext(base)
	requireParity(t, "sat", deltaCheck(t, d), oracleCheck(t, d.Assertions()))

	// z < x closes a strict cycle: unsat with a three-assertion core.
	if err := d.Splice(d.Len(), 0, []Assertion{{Rel: Lt, A: V("z"), B: V("x")}}); err != nil {
		t.Fatal(err)
	}
	res := deltaCheck(t, d)
	requireParity(t, "unsat", res, oracleCheck(t, d.Assertions()))
	if res.Sat || len(res.Core) != 3 {
		t.Fatalf("expected 3-assertion unsat core, got Sat=%v core=%v", res.Sat, res.Core)
	}

	// Remove the closing assertion: sat again, re-probed from the fixed
	// point that stood before the cycle.
	st := d.Stats()
	if err := d.Splice(d.Len()-1, 1, nil); err != nil {
		t.Fatal(err)
	}
	requireParity(t, "sat again", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
	if now := d.Stats(); now.DeltaSolves != st.DeltaSolves+1 || now.FullSolves != st.FullSolves {
		t.Fatalf("repair after unsat was not a delta solve: %+v → %+v", st, now)
	}

	// Now a benign delta on the warm state.
	if err := d.Splice(0, 1, []Assertion{{Rel: Le, A: V("x"), B: V("y")}}); err != nil {
		t.Fatal(err)
	}
	requireParity(t, "delta after recovery", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
}

// TestDeltaOrphanVariables removes every assertion mentioning a variable
// and checks the orphan is filtered from the model, matching the oracle
// (which never interns it).
func TestDeltaOrphanVariables(t *testing.T) {
	d := NewDeltaContext([]Assertion{
		{Rel: Lt, A: V("x"), B: V("y")},
		{Rel: Lt, A: V("u"), B: V("v")},
	})
	requireParity(t, "initial", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
	if err := d.Splice(1, 1, nil); err != nil { // orphans u and v
		t.Fatal(err)
	}
	res := deltaCheck(t, d)
	requireParity(t, "after orphaning", res, oracleCheck(t, d.Assertions()))
	for _, v := range []Var{"u", "v"} {
		if _, ok := res.Model[v]; ok {
			t.Fatalf("orphaned %s still in model %v", v, res.Model)
		}
	}
	// Re-adding a reference resurrects the variable.
	if err := d.Splice(d.Len(), 0, []Assertion{{Rel: Lt, A: V("u"), B: V("x")}}); err != nil {
		t.Fatal(err)
	}
	res = deltaCheck(t, d)
	requireParity(t, "after resurrection", res, oracleCheck(t, d.Assertions()))
	if _, ok := res.Model["u"]; !ok {
		t.Fatalf("resurrected u missing from model %v", res.Model)
	}
}

// TestDeltaQuantified checks the analytic quantified path: an invalid
// quantified assertion short-circuits with itself as the core, valid ones
// are skipped by the graph, both before and after splices.
func TestDeltaQuantified(t *testing.T) {
	valid := Assertion{Rel: Le, A: Term{Var: "n"}, B: Term{Var: "n", K: 1}, QuantVar: "n"}
	invalid := Assertion{Rel: Lt, A: Term{Var: "n", K: 1}, B: Term{Var: "n"}, QuantVar: "n"}
	ground := Assertion{Rel: Lt, A: V("x"), B: V("y")}

	d := NewDeltaContext([]Assertion{valid, ground})
	requireParity(t, "valid quant", deltaCheck(t, d), oracleCheck(t, d.Assertions()))

	if err := d.Splice(1, 0, []Assertion{invalid}); err != nil {
		t.Fatal(err)
	}
	res := deltaCheck(t, d)
	requireParity(t, "invalid quant", res, oracleCheck(t, d.Assertions()))
	if res.Sat || len(res.CoreIdx) != 1 || res.CoreIdx[0] != 1 {
		t.Fatalf("expected core [1], got Sat=%v CoreIdx=%v", res.Sat, res.CoreIdx)
	}

	if err := d.Splice(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	requireParity(t, "quant removed", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
}

// TestDeltaCheckMemoization verifies repeated Checks without intervening
// splices are answered from the cache.
func TestDeltaCheckMemoization(t *testing.T) {
	d := NewDeltaContext([]Assertion{{Rel: Lt, A: V("x"), B: V("y")}})
	first := deltaCheck(t, d)
	second := deltaCheck(t, d)
	if st := d.Stats(); st.Checks != 1 || st.CacheHits != 1 {
		t.Fatalf("expected 1 check + 1 cache hit, stats %+v", st)
	}
	requireParity(t, "memoized", second, first)
}

// TestDeltaClone applies divergent splices to a clone and its original and
// checks they stay independent and each matches its own oracle.
func TestDeltaClone(t *testing.T) {
	d := NewDeltaContext([]Assertion{
		{Rel: Lt, A: V("x"), B: V("y")},
		{Rel: Lt, A: V("y"), B: V("z")},
	})
	deltaCheck(t, d) // warm the engine so the clone copies live state
	c := d.Clone()
	if err := c.Splice(2, 0, []Assertion{{Rel: Lt, A: V("z"), B: V("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Splice(0, 1, []Assertion{{Rel: Eq, A: V("x"), B: V("y").Plus(2)}}); err != nil {
		t.Fatal(err)
	}
	requireParity(t, "clone", deltaCheck(t, c), oracleCheck(t, c.Assertions()))
	requireParity(t, "original", deltaCheck(t, d), oracleCheck(t, d.Assertions()))
	if got := deltaCheck(t, c); got.Sat {
		t.Fatal("clone should be unsat")
	}
	if got := deltaCheck(t, d); !got.Sat {
		t.Fatal("original should stay sat")
	}
}

// TestDeltaSpliceBounds checks the splice range validation.
func TestDeltaSpliceBounds(t *testing.T) {
	d := NewDeltaContext([]Assertion{{Rel: Lt, A: V("x"), B: V("y")}})
	for _, bad := range [][2]int{{-1, 0}, {0, 2}, {2, 0}, {1, 1}} {
		if err := d.Splice(bad[0], bad[1], nil); err == nil {
			t.Fatalf("splice(%d, %d) accepted", bad[0], bad[1])
		}
	}
}
