package analysis

import (
	"context"
	"fsr/internal/smt"
	"strings"
	"testing"

	"fsr/internal/algebra"
)

// TestHopCountSat reproduces the paper's first §IV-C example: the shortest
// hop-count algebra is strictly monotonic (Yices returns sat for the
// quantified encoding forall s. s < s+1).
func TestHopCountSat(t *testing.T) {
	res, err := CheckWith(context.Background(), algebra.HopCount{}, StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if !res.Sat {
		t.Fatalf("hop count should be strictly monotonic, got %s", res)
	}
}

// TestGaoRexfordStrictUnsat reproduces §IV-C: guideline A is not strictly
// monotonic, and the violating constraints include c ⊕ C = C.
func TestGaoRexfordStrictUnsat(t *testing.T) {
	res, err := CheckWith(context.Background(), algebra.GaoRexfordA(), StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if res.Sat {
		t.Fatalf("guideline A should violate strict monotonicity")
	}
	if len(res.Core) == 0 {
		t.Fatalf("want a nonempty core")
	}
	found := false
	for _, c := range res.Core {
		if c.Kind == KindMonotonicity && c.Entry.Label == algebra.LabC && c.Entry.In == algebra.SigC && c.Entry.Out == algebra.SigC {
			found = true
		}
	}
	if !found {
		t.Errorf("core should contain c ⊕ C = C; got:\n%s", res)
	}
}

// TestGaoRexfordMonotoneSat reproduces §IV-C: with < relaxed to ≤ the
// encoding is sat, and Yices' instantiation C=1, P=2, R=2 is a valid model.
// We check the model's structure (C strictly below P and R, P equal to R)
// rather than the exact integers, which are solver-specific.
func TestGaoRexfordMonotoneSat(t *testing.T) {
	res, err := CheckWith(context.Background(), algebra.GaoRexfordA(), Monotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if !res.Sat {
		t.Fatalf("guideline A should be monotonic, got %s", res)
	}
	c, p, r := res.Model["C"], res.Model["P"], res.Model["R"]
	if !(c < p && c < r && p == r) {
		t.Errorf("model should order C < P = R, got C=%d P=%d R=%d", c, p, r)
	}
	if c < 1 || p < 1 || r < 1 {
		t.Errorf("signatures must be positive integers, got C=%d P=%d R=%d", c, p, r)
	}
}

// TestCompositionSafe reproduces the §IV-C composition argument: guideline A
// (monotonic) composed with shortest hop-count (strictly monotonic) is safe.
func TestCompositionSafe(t *testing.T) {
	rep, err := AnalyzeSafetyWith(context.Background(), algebra.GaoRexfordWithHopCount(), smt.Native{})
	if err != nil {
		t.Fatalf("AnalyzeSafetyWith: %v", err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("composition should be safe: %s", rep)
	}
	if len(rep.Steps) < 2 {
		t.Errorf("composition analysis should check both factors, got %d steps", len(rep.Steps))
	}
}

// TestGaoRexfordAloneUnsafe: guideline A alone is deemed unsafe (strict
// monotonicity fails), matching the known need for an acyclicity assumption
// or a strictly monotonic tie-breaker.
func TestGaoRexfordAloneUnsafe(t *testing.T) {
	rep, err := AnalyzeSafetyWith(context.Background(), algebra.GaoRexfordA(), smt.Native{})
	if err != nil {
		t.Fatalf("AnalyzeSafetyWith: %v", err)
	}
	if rep.Verdict != Unsafe {
		t.Fatalf("guideline A alone should be deemed unsafe: %s", rep)
	}
}

// TestGaoRexfordConstraintCounts checks the constraint census of §IV-C's
// second example: 3 preference constraints (C<R, C<P, R=P) and 5 strict-
// monotonicity constraints (the non-φ entries of the combined ⊕ table).
func TestGaoRexfordConstraintCounts(t *testing.T) {
	res, err := CheckWith(context.Background(), algebra.GaoRexfordA(), StrictMonotonicity, smt.Native{})
	if err != nil {
		t.Fatalf("CheckWith: %v", err)
	}
	if res.NumPreference != 3 {
		t.Errorf("want 3 preference constraints, got %d", res.NumPreference)
	}
	// The combined table of §II-B has entries: c⊕C=C, r⊕C=R, p⊕C=P, p⊕R=P,
	// p⊕P=P — five strict-monotonicity constraints after omitting φ.
	if res.NumMonotonicity != 5 {
		t.Errorf("want 5 strict-monotonicity constraints, got %d", res.NumMonotonicity)
	}
}

// TestYicesEmission checks the generated Yices text contains the paper's
// §IV-C forms and round-trips through the parser with the same verdict.
func TestYicesEmission(t *testing.T) {
	text, err := Yices(algebra.GaoRexfordA(), StrictMonotonicity)
	if err != nil {
		t.Fatalf("Yices: %v", err)
	}
	for _, want := range []string{
		"(define-type Sig (subtype (n::nat) (> n 0)))",
		"(define C::Sig)",
		"(assert (< C P))",
		"(assert (< C C))",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Yices output missing %q:\n%s", want, text)
		}
	}
}
