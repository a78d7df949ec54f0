package smt

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func check(t *testing.T, s *Context) Result {
	t.Helper()
	res, err := s.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

// TestSatSimple: a satisfiable chain produces a model that verifies.
func TestSatSimple(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("a"), B: V("b")})
	s.Assert(Assertion{Rel: Le, A: V("b"), B: V("c")})
	s.Assert(Assertion{Rel: Eq, A: V("c"), B: V("d")})
	res := check(t, s)
	if !res.Sat {
		t.Fatalf("want sat")
	}
	if bad := s.Verify(res.Model); bad != nil {
		t.Errorf("model violates %s", bad)
	}
	if res.Model["a"] < 1 {
		t.Errorf("variables must be positive, got a=%d", res.Model["a"])
	}
}

// TestUnsatCycle: a < b < c < a yields a minimal three-element core.
func TestUnsatCycle(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("a"), B: V("b"), Origin: "1"})
	s.Assert(Assertion{Rel: Lt, A: V("b"), B: V("c"), Origin: "2"})
	s.Assert(Assertion{Rel: Lt, A: V("c"), B: V("a"), Origin: "3"})
	s.Assert(Assertion{Rel: Le, A: V("x"), B: V("y"), Origin: "unrelated"})
	res := check(t, s)
	if res.Sat {
		t.Fatalf("want unsat")
	}
	if len(res.Core) != 3 {
		t.Fatalf("want a 3-element core, got %d: %s", len(res.Core), FormatCore(res.Core))
	}
	for _, a := range res.Core {
		if a.Origin == "unrelated" {
			t.Errorf("core should not contain the unrelated assertion")
		}
	}
}

// TestSelfContradiction: x < x is a singleton core.
func TestSelfContradiction(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("x"), B: V("x"), Origin: "self"})
	res := check(t, s)
	if res.Sat || len(res.Core) != 1 {
		t.Fatalf("want unsat with singleton core, got %+v", res)
	}
}

// TestEqualityChainUnsat: equalities propagate into contradictions.
func TestEqualityChainUnsat(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Eq, A: V("a"), B: V("b")})
	s.Assert(Assertion{Rel: Eq, A: V("b"), B: V("c")})
	s.Assert(Assertion{Rel: Lt, A: V("c"), B: V("a")})
	res := check(t, s)
	if res.Sat {
		t.Fatalf("want unsat")
	}
	if len(res.Core) != 3 {
		t.Errorf("want all three assertions in the core, got %d", len(res.Core))
	}
}

// TestConstants: terms with offsets and pure constants.
func TestConstants(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Le, A: V("a").Plus(5), B: V("b")}) // a+5 ≤ b
	res := check(t, s)
	if !res.Sat {
		t.Fatalf("want sat")
	}
	if res.Model["b"]-res.Model["a"] < 5 {
		t.Errorf("model must satisfy a+5 ≤ b: a=%d b=%d", res.Model["a"], res.Model["b"])
	}

	s2 := NewContext()
	s2.Assert(Assertion{Rel: Lt, A: C(5), B: C(3)})
	res2 := check(t, s2)
	if res2.Sat {
		t.Fatalf("5 < 3 should be unsat")
	}
}

// TestPositivity: the implicit n > 0 typing participates in contradictions.
func TestPositivity(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Le, A: V("x"), B: C(0), Origin: "x<=0"})
	res := check(t, s)
	if res.Sat {
		t.Fatalf("x ≤ 0 contradicts positivity")
	}
	if !res.UsesPositivity {
		t.Errorf("result should flag the positivity typing")
	}
}

// TestQuantified: the closed-form monotonicity pattern.
func TestQuantified(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("s"), B: V("s").Plus(1), QuantVar: "s"})
	if res := check(t, s); !res.Sat {
		t.Fatalf("forall s. s < s+1 is valid")
	}
	s2 := NewContext()
	s2.Assert(Assertion{Rel: Lt, A: V("s"), B: V("s"), QuantVar: "s", Origin: "bad"})
	res := check(t, s2)
	if res.Sat || len(res.Core) != 1 || res.Core[0].Origin != "bad" {
		t.Fatalf("forall s. s < s is invalid with itself as core, got %+v", res)
	}
	s3 := NewContext()
	s3.Assert(Assertion{Rel: Lt, A: V("s"), B: V("t"), QuantVar: "s"})
	if _, err := s3.Check(); err == nil {
		t.Fatalf("unsupported quantified pattern should error")
	}
}

// TestCoreMinimality (property): for random unsat instances, the reported
// core is unsatisfiable and removing any single element makes it
// satisfiable — the definition of minimality.
func TestCoreMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"a", "b", "c", "d", "e"}
	rels := []Rel{Lt, Le, Eq}
	for trial := 0; trial < 200; trial++ {
		s := NewContext()
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			a := Assertion{
				Rel: rels[rng.Intn(len(rels))],
				A:   V(vars[rng.Intn(len(vars))]).Plus(rng.Intn(3) - 1),
				B:   V(vars[rng.Intn(len(vars))]).Plus(rng.Intn(3) - 1),
			}
			s.Assert(a)
		}
		res := check(t, s)
		if res.Sat {
			if bad := s.Verify(res.Model); bad != nil {
				t.Fatalf("trial %d: model violates %s", trial, bad)
			}
			continue
		}
		// The core alone must be unsat.
		coreSolver := NewContext()
		coreSolver.AssertAll(res.Core)
		if check(t, coreSolver).Sat {
			t.Fatalf("trial %d: core is not unsatisfiable: %s", trial, FormatCore(res.Core))
		}
		// Every proper subset must be sat.
		for skip := range res.Core {
			sub := NewContext()
			for i, a := range res.Core {
				if i != skip {
					sub.Assert(a)
				}
			}
			if !check(t, sub).Sat {
				t.Fatalf("trial %d: core not minimal; still unsat without element %d: %s",
					trial, skip, FormatCore(res.Core))
			}
		}
	}
}

// TestModelsArePositive (property, testing/quick): every model assigns
// positive integers.
func TestModelsArePositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewContext()
		vars := []string{"p", "q", "r"}
		for i := 0; i < 4; i++ {
			s.Assert(Assertion{
				Rel: Le,
				A:   V(vars[rng.Intn(3)]),
				B:   V(vars[rng.Intn(3)]).Plus(rng.Intn(4)),
			})
		}
		res, err := s.Check()
		if err != nil || !res.Sat {
			return err == nil // ≤ with non-negative offsets is always sat
		}
		for _, v := range res.Model {
			if v < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestYicesRoundTrip: Emit → Parse preserves the verdict and the model's
// satisfaction of the original constraints.
func TestYicesRoundTrip(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("C"), B: V("P"), Origin: "pref"})
	s.Assert(Assertion{Rel: Eq, A: V("R"), B: V("P")})
	s.Assert(Assertion{Rel: Le, A: V("C"), B: V("C")})
	s.Assert(Assertion{Rel: Lt, A: V("s"), B: V("s").Plus(1), QuantVar: "s"})
	text := Emit(s)
	for _, want := range []string{"(define-type Sig", "(define C::Sig)", "(assert (< C P))", "(forall (s::Sig)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("emitted text missing %q:\n%s", want, text)
		}
	}
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r1, r2 := check(t, s), check(t, parsed)
	if r1.Sat != r2.Sat {
		t.Errorf("round trip changed the verdict: %v vs %v", r1.Sat, r2.Sat)
	}
}

// TestYicesParseErrors: malformed inputs produce errors, not panics.
func TestYicesParseErrors(t *testing.T) {
	for _, src := range []string{
		"(assert (< a b)",        // unterminated
		"(frobnicate x)",         // unknown form
		"(assert (mod a b))",     // unsupported relation
		"(assert (< (* a 2) b))", // non-linear term
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestYicesParsePaperListing: the paper's §IV-C Gao-Rexford listing parses
// and is unsat, as the paper reports.
func TestYicesParsePaperListing(t *testing.T) {
	src := `
(define-type Sig (subtype (n::nat) (> n 0)))
(define C::Sig) (define P::Sig) (define R::Sig)
;; preference relations
(assert (< C R)) (assert (< C P)) (assert (= R P))
;; strict monotonicity
(assert (< C C)) (assert (< C R)) (assert (< C P))
(assert (< R P)) (assert (< P P))
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res := check(t, s)
	if res.Sat {
		t.Fatalf("the paper's listing is unsat")
	}
}

// TestVerifyRejectsBadModel ensures Verify is a real check.
func TestVerifyRejectsBadModel(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("a"), B: V("b")})
	if bad := s.Verify(map[Var]int{"a": 2, "b": 1}); bad == nil {
		t.Errorf("Verify should reject a=2,b=1 for a<b")
	}
}

// TestStatsPopulated: solver effort is reported.
func TestStatsPopulated(t *testing.T) {
	s := NewContext()
	s.Assert(Assertion{Rel: Lt, A: V("a"), B: V("b")})
	res := check(t, s)
	if res.Stats.Assertions != 1 || res.Stats.Variables != 2 {
		t.Errorf("unexpected stats: %+v", res.Stats)
	}
}

// TestTermString covers the rendering helpers.
func TestTermString(t *testing.T) {
	cases := map[string]string{
		V("x").String():          "x",
		V("x").Plus(2).String():  "x+2",
		V("x").Plus(-2).String(): "x-2",
		C(7).String():            "7",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	if !reflect.DeepEqual(V("x").Plus(0), V("x")) {
		t.Errorf("Plus(0) should be identity")
	}
}
