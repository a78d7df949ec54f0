package ndlog

import (
	"fmt"
	"strings"
	"testing"

	"fsr/internal/algebra"
)

// TestParseGPVPaperListing: the paper's §V-A GPV program parses.
func TestParseGPVPaperListing(t *testing.T) {
	src := `
//GPV program
gpvRecv sig(@U,SNew,PNew) :- msg(@U,V,D,S,P),
	PNew=f_concatPath(U,P), V=f_head(P),
	SNew=f_concatSig(L,S), label(@U,V,L),
	f_import(L,S)=true.
gpvStore route(@U,D,S,P) :- sig(@U,S,P), D=f_last(P).
gpvSelect localOpt(@U,D,a_pref<S>,P) :- route(@U,D,S,P).
gpvSend msg(@N,U,D,S,P) :- localOpt(@U,D,S,P),
	label(@U,N,L), f_export(L,S)=true.
`
	prog, err := Parse("gpv-paper", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("want 4 rules, got %d", len(prog.Rules))
	}
	labels := []string{"gpvRecv", "gpvStore", "gpvSelect", "gpvSend"}
	for i, r := range prog.Rules {
		if r.Label != labels[i] {
			t.Errorf("rule %d label %s, want %s", i, r.Label, labels[i])
		}
	}
	// gpvSelect carries the aggregate.
	sel := prog.Rules[2]
	foundAgg := false
	for _, a := range sel.Head.Args {
		if agg, ok := a.(Agg); ok {
			foundAgg = true
			if agg.Fn != "a_pref" || agg.Arg != "S" {
				t.Errorf("aggregate parsed as %+v", agg)
			}
		}
	}
	if !foundAgg {
		t.Errorf("gpvSelect should parse a_pref<S>")
	}
	// Location specifiers.
	if prog.Rules[0].Head.LocArg != 0 {
		t.Errorf("gpvRecv head location should be arg 0")
	}
	if prog.Rules[3].Head.LocArg != 0 {
		t.Errorf("gpvSend head location should be arg 0 (@N)")
	}
}

// TestParsePrintRoundTrip: printing a parsed program and re-parsing yields
// the same structure.
func TestParsePrintRoundTrip(t *testing.T) {
	prog := MustParse("t", GPVSource)
	text := prog.String()
	again, err := Parse("t", text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(again.Rules) != len(prog.Rules) || len(again.Materialized) != len(prog.Materialized) {
		t.Fatalf("round trip changed the program: %d/%d rules, %d/%d tables",
			len(again.Rules), len(prog.Rules), len(again.Materialized), len(prog.Materialized))
	}
	for i := range prog.Rules {
		if prog.Rules[i].String() != again.Rules[i].String() {
			t.Errorf("rule %d changed:\n%s\n%s", i, prog.Rules[i], again.Rules[i])
		}
	}
}

// TestParseMaterialize: key positions are converted from 1-based syntax.
func TestParseMaterialize(t *testing.T) {
	prog := MustParse("t", "materialize(sig, 5, keys(1,2,3)).\nr x(@A,B) :- y(@A,B).")
	d, ok := prog.Table("sig")
	if !ok {
		t.Fatalf("missing table decl")
	}
	if d.Arity != 5 || len(d.Keys) != 3 || d.Keys[0] != 0 || d.Keys[2] != 2 {
		t.Errorf("decl parsed as %+v", d)
	}
}

// TestParseErrors: malformed programs produce errors.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"r x(@A :- y(@A).",              // unbalanced
		"x(@A) :- y(@A).x",              // missing rule label? actually first token is label 'x' then atom '(@A)' fails
		"r x(@A) :- .",                  // empty body
		"materialize(sig, 1, keys(x)).", // bad key
	} {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestTableII: the generated program carries all four policy functions of
// Table II, implemented and rendered.
func TestTableII(t *testing.T) {
	prog, err := Generate(algebra.GaoRexfordA())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, name := range []string{"f_pref", "f_concatSig", "f_import", "f_export"} {
		def, ok := prog.Func(name)
		if !ok {
			t.Fatalf("generated program lacks %s", name)
		}
		if def.Impl == nil {
			t.Errorf("%s has no implementation", name)
		}
		if def.Text == "" {
			t.Errorf("%s has no display text", name)
		}
	}
}

// TestGeneratedFuncSemantics: the generated functions implement the algebra
// (the assumptions (Property B) of the paper's Theorem 5.1 proof).
func TestGeneratedFuncSemantics(t *testing.T) {
	alg := algebra.GaoRexfordA()
	prog, err := Generate(alg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	call := func(fn string, args ...Value) Value {
		def, ok := prog.Func(fn)
		if !ok {
			t.Fatalf("missing %s", fn)
		}
		v, err := def.Impl(args)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		return v
	}
	// f_concatSig implements ⊕P.
	for _, l := range alg.Labels() {
		for _, s := range alg.Sigs() {
			want := alg.Concat(l, s).String()
			if algebra.IsProhibited(alg.Concat(l, s)) {
				want = PhiKey
			}
			if got := call("f_concatSig", l.String(), s.String()); got != want {
				t.Errorf("f_concatSig(%s,%s) = %v, want %v", l, s, got, want)
			}
			// f_export implements ⊕E; f_import implements ⊕I.
			if got := call("f_export", l.String(), s.String()); got != alg.Export(l, s) {
				t.Errorf("f_export(%s,%s) = %v, want %v", l, s, got, alg.Export(l, s))
			}
			if got := call("f_import", l.String(), s.String()); got != alg.Import(l, s) {
				t.Errorf("f_import(%s,%s) = %v, want %v", l, s, got, alg.Import(l, s))
			}
		}
	}
	// f_pref implements strict preference.
	if got := call("f_pref", "C", "P"); got != true {
		t.Errorf("f_pref(C,P) = %v, want true", got)
	}
	if got := call("f_pref", "P", "R"); got != false {
		t.Errorf("f_pref(P,R) = %v (P and R are equally preferred)", got)
	}
	// Unknown signatures are prohibited, never errors.
	if got := call("f_concatSig", "c", "bogus"); got != PhiKey {
		t.Errorf("unknown signature should concat to phi, got %v", got)
	}
}

// TestGeneratedTextMatchesPaperShape: the §V-C function listings appear.
func TestGeneratedTextMatchesPaperShape(t *testing.T) {
	prog, err := Generate(algebra.GaoRexfordA())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	text := prog.String()
	for _, want := range []string{
		"#def_func f_concatSig(L,S)",
		"if (L=='c') && (S=='C') return 'C'",
		"#def_func f_export(L,S)",
		"return true",
		"gpvRecv",
		"gpvSend",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated program missing %q", want)
		}
	}
}

// TestGenerateHopCount: closed-form algebras generate the L+S form, and
// read a rendering as an integer only when all of it is one, as
// pathvector.SigCodec does: a signature with trailing bytes is unknown, so
// prohibited, and a label with them is an unknown label.
func TestGenerateHopCount(t *testing.T) {
	prog, err := Generate(algebra.HopCount{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	def, _ := prog.Func("f_concatSig")
	if !strings.Contains(def.Text, "return L+S") {
		t.Errorf("hop-count concat should render as L+S:\n%s", def.Text)
	}
	for _, c := range []struct{ l, s, want string }{{"1", "3", "4"}, {"1", "12", "13"}, {"1", "12abc", PhiKey}} {
		if v, err := def.Impl([]Value{c.l, c.s}); err != nil || v != c.want {
			t.Errorf("f_concatSig(%s,%s) = %v, %v; want %q", c.l, c.s, v, err, c.want)
		}
	}
	if v, err := def.Impl([]Value{"1x", "12"}); err == nil || !strings.Contains(err.Error(), `unknown label "1x"`) {
		t.Errorf("f_concatSig(1x,12) = %v, %v; want an unknown-label error", v, err)
	}
}

// countingAlgebra counts the calls to Labels and Sigs, each of which may
// copy the algebra's whole list.
type countingAlgebra struct {
	algebra.Algebra
	labels, sigs int
}

func (c *countingAlgebra) Labels() []algebra.Label { c.labels++; return c.Algebra.Labels() }
func (c *countingAlgebra) Sigs() []algebra.Sig     { c.sigs++; return c.Algebra.Sigs() }

// TestPolicyCallsDoNotListTheAlgebra: Generate lists the algebra's labels
// and signatures a fixed number of times, not once per label, and the
// policy functions it returns list neither — a call costs a lookup, not the
// algebra's size. The algebra is a line of 32 labels, each extending one
// signature into the next.
func TestPolicyCallsDoNotListTheAlgebra(t *testing.T) {
	const k = 32
	b := algebra.NewBuilder("line")
	sig := func(i int) algebra.Sig { return algebra.Symbol(fmt.Sprintf("s%d", i)) }
	lab := func(i int) algebra.Label { return algebra.LSym(fmt.Sprintf("l%d", i)) }
	for i := 0; i <= k; i++ {
		b.Sigs(sig(i))
	}
	for i := 1; i <= k; i++ {
		b.Labels(lab(i)).Concat(lab(i), sig(i-1), sig(i))
	}
	alg := &countingAlgebra{Algebra: b.MustBuild()}
	prog, err := Generate(alg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if alg.labels > 8 || alg.sigs > 8 {
		t.Fatalf("Generate listed the labels %d times and the signatures %d times, want at most 8 each (the algebra has %d labels)", alg.labels, alg.sigs, k)
	}
	alg.labels, alg.sigs = 0, 0
	for i := range 1000 {
		l, s := lab(i%k+1).String(), sig(i%k).String()
		for _, fn := range []string{"f_concatSig", "f_import", "f_export", "f_origin"} {
			def, _ := prog.Func(fn)
			args := []Value{l, s}[:len(def.Params)]
			if _, err := def.Impl(args); err != nil {
				t.Fatalf("%s(%s,%s): %v", fn, l, s, err)
			}
		}
	}
	if alg.labels != 0 || alg.sigs != 0 {
		t.Fatalf("policy calls listed the labels %d times and the signatures %d times, want none", alg.labels, alg.sigs)
	}
	def, _ := prog.Func("f_concatSig")
	if v, _ := def.Impl([]Value{"l3", "s2"}); v != "s3" {
		t.Errorf("f_concatSig(l3,s2) = %v, want s3", v)
	}
}

// TestBuiltinListOps covers the mechanism helpers.
func TestBuiltinListOps(t *testing.T) {
	prog, _ := Generate(algebra.GaoRexfordA())
	get := func(n string) FuncDef { d, _ := prog.Func(n); return d }
	v, err := get("f_concatPath").Impl([]Value{"u", List{"v", "d"}})
	if err != nil || len(v.(List)) != 3 || v.(List)[0] != "u" {
		t.Errorf("f_concatPath = %v, %v", v, err)
	}
	if v, _ := get("f_head").Impl([]Value{List{"v", "d"}}); v != "v" {
		t.Errorf("f_head = %v", v)
	}
	if v, _ := get("f_last").Impl([]Value{List{"v", "d"}}); v != "d" {
		t.Errorf("f_last = %v", v)
	}
	if v, _ := get("f_inPath").Impl([]Value{"d", List{"v", "d"}}); v != true {
		t.Errorf("f_inPath = %v", v)
	}
	if v, _ := get("f_isValid").Impl([]Value{PhiKey}); v != false {
		t.Errorf("f_isValid(phi) = %v", v)
	}
}

// TestValueEqual covers structural equality of lists.
func TestValueEqual(t *testing.T) {
	if !Equal(List{"a", "b"}, List{"a", "b"}) {
		t.Errorf("equal lists")
	}
	if Equal(List{"a"}, List{"a", "b"}) || Equal(List{"a"}, "a") {
		t.Errorf("unequal shapes must differ")
	}
	if !Equal(3, 3) || Equal(3, "3") {
		t.Errorf("scalar equality")
	}
}
