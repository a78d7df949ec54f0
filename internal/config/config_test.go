package config

import (
	"context"
	"fsr/internal/smt"
	"strings"
	"testing"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/spp"
)

const gaoRexfordSrc = `
# Gao-Rexford guideline A in the configuration language.
algebra gr-a
  sigs C P R
  labels c p r
  reverse c p
  prefer C < P
  prefer C < R
  equal P R
  concat c * C
  concat r * R
  concat p * P
  export p P deny
  export p R deny
  export r P deny
  export r R deny
  origin c C
  origin p P
  origin r R
end
`

// TestAlgebraSection: the parsed guideline matches the built-in: same
// combined table, same analysis outcome.
func TestAlgebraSection(t *testing.T) {
	f, err := Parse(gaoRexfordSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Algebras) != 1 {
		t.Fatalf("want 1 algebra, got %d", len(f.Algebras))
	}
	parsed := f.Algebras[0]
	builtin := algebra.GaoRexfordA()
	for _, l := range builtin.Labels() {
		for _, s := range builtin.Sigs() {
			want := algebra.Combined(builtin, l, s)
			got := algebra.Combined(parsed, l, s)
			if got.String() != want.String() {
				t.Errorf("combined %s ⊕ %s: parsed %v, builtin %v", l, s, got, want)
			}
		}
	}
	r1, err := analysis.CheckWith(context.Background(), parsed, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := analysis.CheckWith(context.Background(), builtin, analysis.StrictMonotonicity, smt.Native{})
	if r1.Sat != r2.Sat || r1.NumPreference != r2.NumPreference || r1.NumMonotonicity != r2.NumMonotonicity {
		t.Errorf("parsed and builtin analyses differ: %+v vs %+v", r1.Sat, r2.Sat)
	}
}

// TestSPPSection: a DISAGREE written in the language converts and analyzes.
func TestSPPSection(t *testing.T) {
	src := `
spp disagree
  session x y 1
  rank x x,y,r2 x,r1
  rank y y,x,r1 y,r2
end
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Instances) != 1 {
		t.Fatalf("want 1 instance")
	}
	conv, err := f.Instances[0].ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra: %v", err)
	}
	res, err := analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Errorf("hand-written DISAGREE should be unsat")
	}
	if got := f.Instances[0].Permitted[spp.Node("x")]; len(got) != 2 {
		t.Errorf("x should have 2 ranked paths, got %v", got)
	}
}

// TestRelationshipsSection parses an annotated AS graph.
func TestRelationshipsSection(t *testing.T) {
	src := `
relationships tiny
  provider as1 as2
  provider as1 as3
  peer as2 as3
end
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	g := f.Relationships[0]
	if len(g.Nodes) != 3 || len(g.Edges) != 3 {
		t.Fatalf("graph: %d nodes %d edges", len(g.Nodes), len(g.Edges))
	}
	if g.Class("as1", "as2") != "c" || g.Class("as2", "as1") != "p" || g.Class("as2", "as3") != "r" {
		t.Errorf("classes wrong: %s %s %s", g.Class("as1", "as2"), g.Class("as2", "as1"), g.Class("as2", "as3"))
	}
}

// TestParseErrors: every malformed section reports its line.
func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus x\nend",
		"algebra a\n  sigs C\nend", // no labels
		"algebra a\n  sigs C\n  labels c\n  prefer C\nend", // arity
		"algebra a\n  sigs C\n  labels c\n  export c C maybe\nend",
		"spp s\n  rank x x\nend",  // path too short
		"spp s\n  session a\nend", // arity
		"relationships r\n  provider a\nend",
		"algebra a\n  sigs C\n  labels c", // missing end
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if !strings.Contains(err.Error(), "config") && !strings.Contains(err.Error(), "algebra") {
			t.Logf("note: error text %q", err)
		}
	}
}

// TestComments: comments and blank lines are ignored.
func TestComments(t *testing.T) {
	src := "# leading comment\n\nspp s\n  session a b # trailing\n  rank a a,rx\n  rank b b,ry\nend\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Instances) != 1 {
		t.Fatalf("want 1 instance")
	}
}
