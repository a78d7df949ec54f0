package scenario

import (
	"context"
	"reflect"
	"testing"

	"fsr/internal/spp"
)

// TestGeneratorDeterminism: equal (kind, seed) pairs yield structurally
// equal instances and identical metadata — the property every campaign,
// shard, and corpus regeneration relies on.
func TestGeneratorDeterminism(t *testing.T) {
	for _, kind := range Kinds() {
		for seed := int64(1); seed <= 20; seed++ {
			a, err := Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			b, err := Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			if a.Expected != b.Expected || a.Note != b.Note {
				t.Fatalf("%s/%d: metadata differs: %v/%q vs %v/%q", kind, seed, a.Expected, a.Note, b.Expected, b.Note)
			}
			if !reflect.DeepEqual(a.Instance, b.Instance) {
				t.Fatalf("%s/%d: instances differ", kind, seed)
			}
		}
	}
}

// TestGeneratorGuarantees: every generator's Expected verdict is honored
// by the analysis, safe scenarios converge in bounded simulation, and the
// divergent fixture is always flagged. This is the construction-level
// soundness the campaign classifier assumes.
func TestGeneratorGuarantees(t *testing.T) {
	spec := Spec{}.withDefaults()
	sawSafe, sawUnsafe := map[Kind]bool{}, map[Kind]bool{}
	for _, kind := range Kinds() {
		for seed := int64(1); seed <= 40; seed++ {
			sc, err := Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, seed, err)
			}
			if err := sc.Instance.Validate(); err != nil {
				t.Fatalf("%s/%d: invalid instance: %v", kind, seed, err)
			}
			sat, _, rep, err := evaluate(context.Background(), sc.Instance, spec, seed, sc.Plan)
			if err != nil {
				t.Fatalf("%s/%d: evaluate: %v", kind, seed, err)
			}
			if rep == nil {
				t.Fatalf("%s/%d: simulation did not run", kind, seed)
			}
			converged := rep.Converged
			if sc.Plan != nil && !sc.Plan.Empty() && rep.Faults == 0 {
				t.Errorf("%s/%d: churn plan scheduled but no faults injected", kind, seed)
			}
			switch {
			case kind == DivergentFixture:
				// Deliberately mislabeled: must be flagged, never proven safe.
				if sat {
					t.Errorf("%s/%d: fixture analyzed sat; the divergence pipeline would miss it", kind, seed)
				}
			case sc.Expected == ExpectSafe:
				sawSafe[kind] = true
				if !sat {
					t.Errorf("%s/%d: expected safe, analysis unsat (%s)", kind, seed, sc.Note)
				}
				if !converged {
					t.Errorf("%s/%d: proven safe but did not converge (%s)", kind, seed, sc.Note)
				}
			case sc.Expected == ExpectUnsafe:
				sawUnsafe[kind] = true
				if sat {
					t.Errorf("%s/%d: injected violation analyzed sat (%s)", kind, seed, sc.Note)
				}
			}
		}
	}
	// 40 seeds per kind must exercise both classes of every honest kind.
	for _, kind := range append(DefaultKinds(), GaoRexfordInternet, LexicalProduct) {
		if kind != GadgetSplice && !sawSafe[kind] {
			t.Errorf("%s: no violation-free scenario in 40 seeds", kind)
		}
		if !sawUnsafe[kind] {
			t.Errorf("%s: no injected-violation scenario in 40 seeds", kind)
		}
	}
	if !sawSafe[GadgetSplice] || !sawUnsafe[GadgetSplice] {
		t.Errorf("gadget-splice: missing class coverage (safe=%v unsafe=%v)", sawSafe[GadgetSplice], sawUnsafe[GadgetSplice])
	}
}

// TestKindByName: resolution and the error path.
func TestKindByName(t *testing.T) {
	for _, kind := range Kinds() {
		got, err := KindByName(string(kind))
		if err != nil || got != kind {
			t.Errorf("KindByName(%s) = %v, %v", kind, got, err)
		}
	}
	if _, err := KindByName("no-such-kind"); err == nil {
		t.Error("unknown kind resolved")
	}
	if _, err := Generate("no-such-kind", 1); err == nil {
		t.Error("unknown kind generated")
	}
}

// TestSppMutators: the shrinker's vocabulary preserves instance validity
// and the receiver.
func TestSppMutators(t *testing.T) {
	in := spp.Figure3IBGP()
	before := in.Clone()

	rm := in.RemoveNode("a")
	if err := rm.Validate(); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	for _, l := range rm.Links {
		if l.From == "a" || l.To == "a" {
			t.Fatalf("RemoveNode left link %s", l)
		}
	}
	for n, paths := range rm.Permitted {
		for _, p := range paths {
			for _, e := range p {
				if e == "a" {
					t.Fatalf("RemoveNode left path %s at %s", p, n)
				}
			}
		}
	}

	rs := in.RemoveSession("a", "b")
	if err := rs.Validate(); err != nil {
		t.Fatalf("RemoveSession: %v", err)
	}
	if rs.HasLink("a", "b") || rs.HasLink("b", "a") {
		t.Fatal("RemoveSession left the link")
	}

	dp := in.DropPath("a", 0)
	if err := dp.Validate(); err != nil {
		t.Fatalf("DropPath: %v", err)
	}
	if len(dp.Permitted["a"]) != len(in.Permitted["a"])-1 {
		t.Fatalf("DropPath kept %d paths", len(dp.Permitted["a"]))
	}

	if !reflect.DeepEqual(in, before) {
		t.Fatal("mutators modified the receiver")
	}
}
