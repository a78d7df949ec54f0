package spp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// driveTransactions runs seeded random transactions on a resident verifier
// over in: Begin, one to three random edits (re-ranks over new origin
// tokens and clashing ones, session drops and adds, new nodes), parity with
// the full-pipeline oracle while the edits are applied, then Commit or —
// two times in three — Rollback, after which the verifier must be the one
// Begin found: Snapshot deep-equal, the index a scan of it, the standing
// verdict answered again from the memoized result, and oracle parity. It
// reports how many transactions it rolled back, and how many of those were
// degraded or unsafe while open.
func driveTransactions(t *testing.T, in *Instance, seed int64, rounds int) (rolledBack, degraded, unsafe int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	v, err := NewDeltaVerifier(in)
	if err != nil {
		t.Fatalf("NewDeltaVerifier: %v", err)
	}
	requireVerifyParity(t, "initial", v)
	fresh := 0
	for round := 0; round < rounds; round++ {
		label := fmt.Sprintf("%s seed %d round %d", in.Name, seed, round)
		before, wasDegraded := v.Snapshot(), v.Degraded()
		want, wantSus, wantErr := v.Verify(ctx)
		wantModel := v.Model()

		v.Begin()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			desc, err := randomEdit(rng, v, &fresh)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, desc, err)
			}
			label += " [" + desc + "]"
		}
		requireIndexMatchesSnapshot(t, label+" inside", v)
		requireVerifyParity(t, label+" inside", v)
		if rng.Intn(3) == 0 {
			v.Commit()
			requireVerifyParity(t, label+" committed", v)
			continue
		}
		rolledBack++
		if v.Degraded() {
			degraded++
		} else if res, _, err := v.Verify(ctx); err == nil && !res.Sat {
			unsafe++
		}
		if splices, entries := v.Journal(); entries < splices || entries == 0 {
			t.Fatalf("%s: journal of %d splices has %d entries", label, splices, entries)
		}

		st := v.DeltaStats()
		v.Rollback()
		if after := v.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: rollback left\n%+v\nBegin found\n%+v", label, after, before)
		}
		if v.Degraded() != wasDegraded {
			t.Fatalf("%s: Degraded() = %v after rollback, %v before Begin", label, v.Degraded(), wasDegraded)
		}
		requireIndexMatchesSnapshot(t, label+" rolled back", v)
		got, gotSus, gotErr := v.Verify(ctx)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Sat != want.Sat ||
			!reflect.DeepEqual(got.Core, want.Core) || !reflect.DeepEqual(gotSus, wantSus) ||
			!reflect.DeepEqual(v.Model(), wantModel) {
			t.Fatalf("%s: verdict after rollback\n%+v %v %v\nbefore Begin\n%+v %v %v", label, got, gotSus, gotErr, want, wantSus, wantErr)
		}
		if now := v.DeltaStats(); !v.fromScratch() && wantErr == nil &&
			(now.CacheHits != st.CacheHits+1 || now.Checks != st.Checks) {
			t.Fatalf("%s: verify after rollback was not answered from the memoized result: %+v → %+v", label, st, now)
		}
		requireVerifyParity(t, label+" rolled back", v)
	}
	return rolledBack, degraded, unsafe
}

// clashInstance holds two paths that sanitize to one solver variable (x.y
// beside x_y): a verifier over it starts degraded.
func clashInstance() *Instance {
	in := NewInstance("clash")
	in.AddSession("n0", "n1", 0)
	in.AddSession("n1", "n2", 3)
	in.Rank("n0", P("n0", "x.y"))
	in.Rank("n1", P("n1", "x_y"), P("n1", "n0", "x.y"))
	in.Rank("n2", P("n2", "n1", "x_y"), P("n2", "r2"))
	return in
}

// TestDeltaTransactions holds Rollback to "as if it never ran" on the
// gadget library: each scripted edit sequence of TestDeltaVerifierGadgets
// as one rolled-back batch, then random transactions on the gadget, on a
// longer chain and on an instance that starts degraded.
func TestDeltaTransactions(t *testing.T) {
	var rolledBack, degraded, unsafe int
	for _, tc := range gadgetCases() {
		v, err := NewDeltaVerifier(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireVerifyParity(t, tc.name+" initial", v)
		before := v.Snapshot()
		v.Begin()
		for _, op := range tc.ops {
			if err := op.apply(v); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, op.name, err)
			}
		}
		requireVerifyParity(t, tc.name+" batch applied", v)
		v.Rollback()
		if after := v.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: rollback of the scripted batch left\n%+v\nBegin found\n%+v", tc.name, after, before)
		}
		requireIndexMatchesSnapshot(t, tc.name+" batch rolled back", v)
		requireVerifyParity(t, tc.name+" batch rolled back", v)

		r, d, u := driveTransactions(t, tc.in, 7, 20)
		rolledBack, degraded, unsafe = rolledBack+r, degraded+d, unsafe+u
	}
	chain := ChainGadget(12)
	chain.AddSession("n0", "n5", 0)
	chain.AddSession("n3", "n9", 2)
	for seed := int64(1); seed <= 4; seed++ {
		for _, in := range []*Instance{chain, clashInstance()} {
			r, d, u := driveTransactions(t, in, seed, 40)
			rolledBack, degraded, unsafe = rolledBack+r, degraded+d, unsafe+u
		}
	}
	t.Logf("%d transactions rolled back: %d degraded and %d unsafe while open", rolledBack, degraded, unsafe)
	if degraded == 0 || unsafe == 0 {
		t.Fatalf("rolled back %d degraded and %d unsafe transactions, want both > 0", degraded, unsafe)
	}
}
