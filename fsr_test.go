package fsr

import (
	"context"
	"strings"
	"testing"
)

// TestFigure1Pipeline exercises the facade end to end: one policy in, a
// safety verdict and an implementation out (the paper's Figure 1).
func TestFigure1Pipeline(t *testing.T) {
	sess := NewSession()
	rep, err := sess.Analyze(context.Background(), GaoRexfordSafe())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("composed policy should be safe: %s", rep)
	}
	prog, err := sess.Compile(GaoRexfordA())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) == 0 {
		t.Fatalf("generated program has no rules")
	}
	yices, err := sess.SolverEncoding(GaoRexfordA())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(yices, "(assert (< C P))") {
		t.Errorf("Yices encoding missing preference constraint:\n%s", yices)
	}
}

// TestFacadeSPPWorkflow covers the operator path: gadget in, suspects out.
func TestFacadeSPPWorkflow(t *testing.T) {
	ctx, sess := context.Background(), NewSession()
	res, suspects, err := sess.AnalyzeSPP(ctx, Figure3IBGP())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatalf("Figure 3 gadget should be unsat")
	}
	if len(suspects) == 0 {
		t.Fatalf("suspects should name the reflectors")
	}
	fixed, _, err := sess.AnalyzeSPP(ctx, Figure3IBGPFixed())
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Sat {
		t.Fatalf("fixed instance should be sat")
	}
}

// TestFacadeGadgets: the gadget library is exposed.
func TestFacadeGadgets(t *testing.T) {
	gs := Gadgets()
	if len(gs) != 3 {
		t.Fatalf("want 3 gadgets")
	}
	names := map[string]bool{}
	for _, g := range gs {
		names[g.Name] = true
	}
	for _, want := range []string{"goodgadget", "badgadget", "disagree"} {
		if !names[want] {
			t.Errorf("missing gadget %s", want)
		}
	}
}

// TestFacadeConfig: the configuration language is reachable from the
// facade.
func TestFacadeConfig(t *testing.T) {
	f, err := ParseConfig("spp s\n  session a b 1\n  rank a a,rx\n  rank b b,ry\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Instances) != 1 {
		t.Fatalf("want 1 instance")
	}
	if _, err := SPPAlgebra(f.Instances[0]); err != nil {
		t.Fatalf("SPPAlgebra: %v", err)
	}
}

// TestFacadeComposition: Compose builds analyzable lexical products.
func TestFacadeComposition(t *testing.T) {
	rep, err := NewSession().Analyze(context.Background(), Compose(GaoRexfordB(), HopCount()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("guideline B ⊗ hop count should be safe: %s", rep)
	}
}
