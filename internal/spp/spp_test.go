package spp

import (
	"context"
	"fsr/internal/smt"
	"testing"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
)

// TestFigure3Constraints reproduces the §IV-C census for the Figure 3 iBGP
// instance: "All in all, eighteen constraints are generated" — nine
// preference constraints from the per-node rankings plus nine strict-
// monotonicity constraints from the realizable permitted paths.
func TestFigure3Constraints(t *testing.T) {
	conv, err := Figure3IBGP().ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	res, err := analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if got := res.NumPreference + res.NumMonotonicity; got != 18 {
		t.Errorf("want 18 constraints as in the paper, got %d (%d pref + %d mono)",
			got, res.NumPreference, res.NumMonotonicity)
	}
	if res.NumPreference != 9 {
		t.Errorf("want 9 preference constraints, got %d", res.NumPreference)
	}
	if res.NumMonotonicity != 9 {
		t.Errorf("want 9 monotonicity constraints, got %d", res.NumMonotonicity)
	}
}

// TestFigure3Unsat reproduces §IV-C: the Figure 3 instance violates strict
// monotonicity (the iBGP system is known to be unsafe), and the unsat core
// implicates the route reflectors a, b, c but not the egress nodes d, e, f.
func TestFigure3Unsat(t *testing.T) {
	conv, err := Figure3IBGP().ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	res, err := analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if res.Sat {
		t.Fatalf("Figure 3 instance should be unsat")
	}
	if len(res.Core) != 6 {
		t.Errorf("want the 6-constraint dispute-wheel core, got %d:\n%s", len(res.Core), res)
	}
	suspects := conv.SuspectNodes(res.Core)
	want := map[Node]bool{"a": true, "b": true, "c": true}
	for _, n := range suspects {
		if !want[n] {
			t.Errorf("core implicates unexpected node %s (egress nodes should be exonerated)", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("core should implicate reflector %s", n)
	}
}

// TestFigure3FixedSat reproduces the §IV-C validation step: after removing
// the preference cycle among the reflectors, the solver returns sat.
func TestFigure3FixedSat(t *testing.T) {
	conv, err := Figure3IBGPFixed().ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	res, err := analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if !res.Sat {
		t.Fatalf("fixed instance should be sat:\n%s", res)
	}
}

// TestGadgetVerdicts reproduces the §VI-C analysis results: GOODGADGET is
// safe, BADGADGET and DISAGREE are unsafe.
func TestGadgetVerdicts(t *testing.T) {
	cases := []struct {
		inst *Instance
		sat  bool
	}{
		{GoodGadget(), true},
		{BadGadget(), false},
		{Disagree(), false},
		{ChainGadget(5), true},
	}
	for _, c := range cases {
		conv, err := c.inst.ToAlgebra()
		if err != nil {
			t.Fatalf("%s: ToAlgebra: %v", c.inst.Name, err)
		}
		res, err := analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		if err != nil {
			t.Fatalf("%s: CheckWith: %v", c.inst.Name, err)
		}
		if res.Sat != c.sat {
			t.Errorf("%s: want sat=%v, got %s", c.inst.Name, c.sat, res)
		}
	}
}

// TestConversionStructure checks the §III-B conversion on Figure 3: unique
// labels per directed link, unique signatures per permitted path, and the
// example preference r_aber2 ≺ r_adr1 at node a.
func TestConversionStructure(t *testing.T) {
	in := Figure3IBGP()
	conv, err := in.ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	if got, want := len(conv.LabelOf), len(in.Links); got != want {
		t.Errorf("want %d labels, got %d", want, got)
	}
	total := 0
	for _, paths := range in.Permitted {
		total += len(paths)
	}
	if got := len(conv.PathOf); got != total {
		t.Errorf("want %d signatures, got %d", total, got)
	}
	sigAber2 := conv.SigOf[P("a", "b", "e", "r2").Key()]
	sigAdr1 := conv.SigOf[P("a", "d", "r1").Key()]
	if sigAber2 == nil || sigAdr1 == nil {
		t.Fatalf("missing signatures for node a's permitted paths")
	}
	if !conv.Algebra.Prefer(sigAber2, sigAdr1) {
		t.Errorf("node a should prefer %s over %s", sigAber2, sigAdr1)
	}
	if conv.Algebra.Prefer(sigAdr1, sigAber2) {
		t.Errorf("preference should be strict")
	}
	// The concatenation example of §III-B: r_aber2 = l_ab ⊕ r_ber2.
	lab := conv.LabelOf[Link{"a", "b"}]
	sigBer2 := conv.SigOf[P("b", "e", "r2").Key()]
	if got := conv.Algebra.Concat(lab, sigBer2); got != sigAber2 {
		t.Errorf("l_ab ⊕ r_ber2 = %v, want %v", got, sigAber2)
	}
	// A non-permitted combination is φ: l_cb ⊕ r_ber2 = φ (path cber2 is
	// not in c's ranking).
	lcb := conv.LabelOf[Link{"c", "b"}]
	if got := conv.Algebra.Concat(lcb, sigBer2); !algebra.IsProhibited(got) {
		t.Errorf("l_cb ⊕ r_ber2 should be φ, got %v", got)
	}
}

// TestOriginations checks the origination set: the three egress nodes hold
// their externally learned routes.
func TestOriginations(t *testing.T) {
	conv, err := Figure3IBGP().ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	origs := conv.Originations()
	if len(origs) != 3 {
		t.Fatalf("want 3 originations, got %d", len(origs))
	}
	byNode := map[Node]algebra.Sig{}
	for _, o := range origs {
		byNode[o.Node] = o.Sig
	}
	for node, sig := range map[Node]string{"d": "r1", "e": "r2", "f": "r3"} {
		if got := byNode[node]; got == nil || got.String() != sig {
			t.Errorf("node %s should originate %s, got %v", node, sig, got)
		}
	}
}
