package scenario

import (
	"context"
	"fmt"
	"testing"

	"fsr/internal/spp"
)

// requireDeltaParity checks the delta verifier and the full-pipeline oracle
// agree bit for bit on the verifier's current instance.
func requireDeltaParity(t *testing.T, label string, v *spp.DeltaVerifier) {
	t.Helper()
	got, gotSus, gotErr := v.Verify(context.Background())
	got.Model = v.Model() // Verify leaves the witness to Model
	want, wantSus, wantErr := v.VerifyFull(context.Background())
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error mismatch: delta %v, oracle %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text: delta %v, oracle %v", label, gotErr, wantErr)
		}
		return
	}
	if got.Sat != want.Sat {
		t.Fatalf("%s: Sat = %v, oracle %v", label, got.Sat, want.Sat)
	}
	if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
		t.Fatalf("%s: counts (%d pref, %d mono), oracle (%d, %d)",
			label, got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d, oracle %d", label, len(got.Model), len(want.Model))
	}
	for k, val := range want.Model {
		if got.Model[k] != val {
			t.Fatalf("%s: model[%s] = %d, oracle %d", label, k, got.Model[k], val)
		}
	}
	if len(got.Core) != len(want.Core) {
		t.Fatalf("%s: core size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Core), len(want.Core), got.Core, want.Core)
	}
	for i := range want.Core {
		if got.Core[i] != want.Core[i] {
			t.Fatalf("%s: Core[%d] = %v, oracle %v", label, i, got.Core[i], want.Core[i])
		}
	}
	if fmt.Sprint(gotSus) != fmt.Sprint(wantSus) {
		t.Fatalf("%s: suspects %v, oracle %v", label, gotSus, wantSus)
	}
}

// TestDeltaVerifierScenarioSeeds drives the delta verifier over procedurally
// generated instances — gadget splices, Gao-Rexford policies, and iBGP
// route-reflection configurations — applying a generic edit sequence
// (ranking rotation and restoration, session failure) and asserting parity
// with the full-rebuild oracle after every step.
func TestDeltaVerifierScenarioSeeds(t *testing.T) {
	kinds := []Kind{GadgetSplice, GaoRexford, IBGP}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s-%d", kind, seed), func(t *testing.T) {
				sc, err := Generate(kind, seed)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				v, err := spp.NewDeltaVerifier(sc.Instance)
				if err != nil {
					t.Fatalf("NewDeltaVerifier: %v", err)
				}
				requireDeltaParity(t, "initial", v)

				// Rotate the ranking of the first node holding at least two
				// paths, then restore it.
				in := v.Snapshot()
				var target spp.Node
				var original []spp.Path
				for _, n := range in.Nodes {
					if paths := in.Permitted[n]; len(paths) >= 2 {
						target, original = n, paths
						break
					}
				}
				if target != "" {
					rotated := append(append([]spp.Path(nil), original[1:]...), original[0])
					if err := v.ReRank(target, rotated...); err != nil {
						t.Fatalf("rerank %s: %v", target, err)
					}
					requireDeltaParity(t, "rotated "+string(target), v)
					if err := v.ReRank(target, original...); err != nil {
						t.Fatalf("restore %s: %v", target, err)
					}
					requireDeltaParity(t, "restored "+string(target), v)
				}

				// Fail the first session (unless it is the only one: the
				// empty-topology algebra is a degenerate oracle error case
				// covered elsewhere).
				if len(in.Links) > 2 {
					l := in.Links[0]
					if err := v.DropSession(l.From, l.To); err != nil {
						t.Fatalf("drop %s: %v", l, err)
					}
					requireDeltaParity(t, "dropped "+l.String(), v)
				}
			})
		}
	}
}
