package spp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fsr/internal/analysis"
)

// requireVerifyParity runs the delta path and the full-pipeline oracle on
// the verifier's current instance and fails unless verdict, model (read
// through Model, as the daemon's /verify does), core, constraint counts,
// and suspect nodes agree bit for bit (Stats excluded: durations and graph
// sizes legitimately differ).
func requireVerifyParity(t *testing.T, label string, v *DeltaVerifier) {
	t.Helper()
	got, gotSus, gotErr := v.Verify(context.Background())
	if got.Model != nil {
		t.Fatalf("%s: Verify built a model", label)
	}
	got.Model = v.Model()
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
	if got.Algebra != want.Algebra || got.Condition != want.Condition {
		t.Fatalf("%s: header mismatch: (%s, %s) vs (%s, %s)",
			label, got.Algebra, got.Condition, want.Algebra, want.Condition)
	}
	if got.Sat != want.Sat {
		t.Fatalf("%s: Sat = %v, oracle %v", label, got.Sat, want.Sat)
	}
	if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
		t.Fatalf("%s: counts (%d pref, %d mono), oracle (%d, %d)",
			label, got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Model), len(want.Model), got.Model, want.Model)
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
	if len(gotSus) != len(wantSus) {
		t.Fatalf("%s: suspects %v, oracle %v", label, gotSus, wantSus)
	}
	for i := range wantSus {
		if gotSus[i] != wantSus[i] {
			t.Fatalf("%s: suspects %v, oracle %v", label, gotSus, wantSus)
		}
	}
	_ = analysis.StrictMonotonicity // keep the import obvious at a glance
}

// gadgetOp is one scripted edit in a table-driven parity sequence.
type gadgetOp struct {
	name  string
	apply func(v *DeltaVerifier) error
}

func rerank(n string, paths ...Path) gadgetOp {
	return gadgetOp{
		name:  "rerank " + n,
		apply: func(v *DeltaVerifier) error { return v.ReRank(Node(n), paths...) },
	}
}

func dropSession(a, b string) gadgetOp {
	return gadgetOp{
		name:  fmt.Sprintf("drop %s-%s", a, b),
		apply: func(v *DeltaVerifier) error { return v.DropSession(Node(a), Node(b)) },
	}
}

func addSession(a, b string, cost int) gadgetOp {
	return gadgetOp{
		name:  fmt.Sprintf("add %s-%s", a, b),
		apply: func(v *DeltaVerifier) error { return v.AddSession(Node(a), Node(b), cost) },
	}
}

// TestDeltaVerifierGadgets drives edit sequences over the gadget library
// and checks delta-vs-oracle parity after every step. The sequences cross
// the safe/unsafe boundary in both directions: Figure 3's broken reflector
// cycle is repaired the way Figure3IBGPFixed does (and broken again),
// GOODGADGET is morphed into BADGADGET's dispute wheel, sessions fail and
// recover.
func TestDeltaVerifierGadgets(t *testing.T) {
	deltaSolves := 0
	for _, tc := range gadgetCases() {
		t.Run(tc.name, func(t *testing.T) {
			v, err := NewDeltaVerifier(tc.in)
			if err != nil {
				t.Fatalf("NewDeltaVerifier: %v", err)
			}
			requireVerifyParity(t, "initial", v)
			for _, op := range tc.ops {
				if err := op.apply(v); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				requireVerifyParity(t, op.name, v)
			}
			deltaSolves += v.DeltaStats().DeltaSolves
		})
	}
	// Sequences that go unsat get their cores from a full solve by design,
	// but the table as a whole must exercise the incremental path.
	if deltaSolves == 0 {
		t.Error("no case recorded a delta solve")
	}
}

// gadgetCase is one scripted edit sequence over a library gadget.
type gadgetCase struct {
	name string
	in   *Instance
	ops  []gadgetOp
}

func gadgetCases() []gadgetCase {
	return []gadgetCase{
		{
			name: "fig3-repair-and-break",
			in:   Figure3IBGP(),
			ops: []gadgetOp{
				// The Figure3IBGPFixed repair, one reflector at a time.
				rerank("a", P("a", "d", "r1"), P("a", "b", "e", "r2")),
				rerank("b", P("b", "e", "r2"), P("b", "c", "f", "r3")),
				rerank("c", P("c", "f", "r3"), P("c", "a", "d", "r1")),
				// Break reflector a again (the paper's broken ranking).
				rerank("a", P("a", "b", "e", "r2"), P("a", "d", "r1")),
			},
		},
		{
			name: "disagree-session-failure",
			in:   Disagree(),
			ops: []gadgetOp{
				// Losing the only session prunes both indirect paths.
				dropSession("1", "2"),
				// Recovery: session back, rankings restored.
				addSession("1", "2", 0),
				rerank("1", P("1", "2", "r2"), P("1", "r1")),
				rerank("2", P("2", "1", "r1"), P("2", "r2")),
			},
		},
		{
			name: "goodgadget-to-badgadget",
			in:   GoodGadget(),
			ops: []gadgetOp{
				// Rerank node by node until this is BADGADGET's wheel.
				rerank("1", P("1", "2", "r2"), P("1", "r1")),
				rerank("2", P("2", "3", "r3"), P("2", "r2")),
				rerank("3", P("3", "1", "r1"), P("3", "r3")),
				// And break the wheel at node 2.
				rerank("2", P("2", "r2"), P("2", "3", "r3")),
			},
		},
		{
			name: "chain-extend",
			in:   ChainGadget(6),
			ops: []gadgetOp{
				// Mid-chain preference flip: prefer the relay over the direct
				// route.
				rerank("n3", P("n3", "n4", "r4"), P("n3", "r3")),
				// Graft a new node onto the chain's tail.
				addSession("n5", "n6", 0),
				rerank("n6", P("n6", "n5", "r5")),
				// Session failure mid-chain prunes the relay path of n2.
				dropSession("n2", "n3"),
			},
		},
		{
			name: "badgadget-collapse",
			in:   BadGadget(),
			ops: []gadgetOp{
				dropSession("1", "2"),
				dropSession("2", "3"),
			},
		},
	}
}

// TestDeltaVerifierClone commits an edit on a clone and checks the original
// is untouched — the server's what-if discard path.
func TestDeltaVerifierClone(t *testing.T) {
	v, err := NewDeltaVerifier(Figure3IBGP())
	if err != nil {
		t.Fatal(err)
	}
	requireVerifyParity(t, "base", v)
	c := v.Clone()
	// Apply the full Figure3IBGPFixed repair to the clone only.
	if err := c.ReRank("a", P("a", "d", "r1"), P("a", "b", "e", "r2")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReRank("b", P("b", "e", "r2"), P("b", "c", "f", "r3")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReRank("c", P("c", "f", "r3"), P("c", "a", "d", "r1")); err != nil {
		t.Fatal(err)
	}
	requireVerifyParity(t, "clone after repair", c)
	requireVerifyParity(t, "original after clone edit", v)
	res, _, err := c.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("repaired clone should be safe")
	}
	res, sus, err := v.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatal("original must stay unsafe")
	}
	if len(sus) == 0 {
		t.Fatal("unsafe verdict should implicate suspect nodes")
	}
}

// TestDeltaVerifierRejectsInvalid checks edits that would make the instance
// invalid are rejected without mutating state.
func TestDeltaVerifierRejectsInvalid(t *testing.T) {
	v, err := NewDeltaVerifier(Disagree())
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := v.Verify(context.Background())
	bad := []error{
		v.ReRank("1", P("1", "9", "r9")), // missing link 1→9
		v.ReRank("1", P("2", "1", "r1")), // not owned by node
		v.ReRank("1", P("1")),            // too short
		v.DropSession("1", "9"),          // no such session
		v.AddSession("1", "2", 0),        // already exists
		v.AddSession("1", "1", 0),        // self session
	}
	for i, err := range bad {
		if err == nil {
			t.Fatalf("invalid edit %d accepted", i)
		}
	}
	after, _, _ := v.Verify(context.Background())
	if before.Sat != after.Sat || len(before.Model) != len(after.Model) {
		t.Fatal("rejected edits mutated state")
	}
	requireVerifyParity(t, "after rejections", v)
}

// TestDeltaVerifierDegraded forces a signature-rendering collision (two
// egress paths over the same origin token), checks Verify falls back to the
// full pipeline, and checks the verifier recovers once the collision is
// edited away.
func TestDeltaVerifierDegraded(t *testing.T) {
	in := NewInstance("degraded")
	in.AddSession("a", "b", 0)
	in.Rank("a", P("a", "r1"))
	in.Rank("b", P("b", "a", "r1"))
	v, err := NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("clean instance reported degraded")
	}
	requireVerifyParity(t, "clean", v)

	// b now also claims an egress path over r1: both [a r1] and [b r1]
	// render as signature r1, which ToAlgebra rejects.
	if err := v.ReRank("b", P("b", "r1"), P("b", "a", "r1")); err != nil {
		t.Fatal(err)
	}
	if !v.Degraded() {
		t.Fatal("duplicate rendering not detected")
	}
	if _, _, err := v.Verify(context.Background()); err == nil {
		t.Fatal("degraded Verify should surface the oracle's duplicate-path error")
	}

	// Edit the collision away: the verifier must recover and agree with the
	// oracle again on the incremental path.
	if err := v.ReRank("b", P("b", "a", "r1")); err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("collision removal did not clear degraded mode")
	}
	requireVerifyParity(t, "recovered", v)
	res, _, err := v.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("recovered instance should be safe")
	}
}

// TestDeltaVerifierLinkLabelClash: ToAlgebra names a link's label after its
// ends joined, so adding ab↔c beside a↔bc gives two links one label — an
// instance the full pipeline rejects. The verifier used to keep answering
// "safe" from its resident system; it now answers what a from-scratch
// analysis answers for as long as the clash stands, inside a transaction
// and outside, and recovers when the session goes.
func TestDeltaVerifierLinkLabelClash(t *testing.T) {
	ctx := context.Background()
	in := NewInstance("labels")
	in.AddSession("a", "bc", 0)
	in.AddSession("ab", "d", 0)
	in.Rank("a", P("a", "r1"))
	in.Rank("bc", P("bc", "a", "r1"))
	in.Rank("ab", P("ab", "r2"))
	in.Rank("d", P("d", "ab", "r2"))
	v, err := NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	requireClean := func(label string) {
		t.Helper()
		if res, _, err := v.Verify(ctx); err != nil || !res.Sat || v.Degraded() {
			t.Fatalf("%s: sat=%v degraded=%v err=%v, want a safe, sound verifier", label, res.Sat, v.Degraded(), err)
		}
		requireVerifyParity(t, label, v)
	}
	requireClash := func(label string) {
		t.Helper()
		_, _, err := v.Verify(ctx)
		_, _, want := Analyze(ctx, v.Snapshot())
		if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "duplicate link ab→c") || !v.Degraded() {
			t.Fatalf("%s: Verify error %v (degraded %v), a from-scratch analysis says %v", label, err, v.Degraded(), want)
		}
		requireVerifyParity(t, label, v)
	}
	requireClean("initial")

	v.Begin()
	if err := v.AddSession("ab", "c", 0); err != nil {
		t.Fatal(err)
	}
	requireClash("inside a transaction")
	v.Rollback()
	requireClean("rolled back")

	if err := v.AddSession("ab", "c", 0); err != nil {
		t.Fatal(err)
	}
	requireClash("outside a transaction")
	if c := v.Clone(); !c.Degraded() {
		t.Fatal("a clone of the clashing verifier is not degraded")
	}
	if err := v.DropSession("ab", "c"); err != nil {
		t.Fatal(err)
	}
	requireClean("session dropped")
	if nodes, sessions := v.Size(); nodes != len(v.Snapshot().Nodes) || sessions != 2 {
		t.Fatalf("Size() = (%d, %d), the instance has %d nodes and 2 sessions", nodes, sessions, len(v.Snapshot().Nodes))
	}
}

// TestResidentAssertionsAreTheSegments pins the solver's view of a segment
// to the provenance functions': what prefAsserts and monoAsserts emit is the
// Assertion of every prefSeg and monoSeg constraint, less its origin — on
// the generated instances, for every node and link.
func TestResidentAssertionsAreTheSegments(t *testing.T) {
	for _, in := range []*Instance{Figure3IBGP(), Disagree(), ChainGadget(6)} {
		v, err := NewDeltaVerifier(in)
		if err != nil {
			t.Fatal(err)
		}
		cons, _, err := ShardedConstraints(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := v.dc.Assertions()
		if len(got) != len(cons) {
			t.Fatalf("%s: %d resident assertions, %d constraints", in.Name, len(got), len(cons))
		}
		for i, c := range cons {
			want := c.Assertion
			want.Origin = ""
			if got[i] != want {
				t.Fatalf("%s: resident assertion %d is %v, the emitter's %v", in.Name, i, got[i], want)
			}
		}
		// Regenerating every segment from the rankings changes nothing.
		for id := 0; id < v.dc.Segments(); id++ {
			if changed, err := v.dc.SetSeg(id, v.segAsserts(nil, id, v.rankVars)); err != nil || changed {
				t.Fatalf("%s: segment %d regenerated differently (err %v)", in.Name, id, err)
			}
		}
	}
}
