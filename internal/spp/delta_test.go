package spp

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/smt"
)

// requireVerifyParity runs the delta path and the full-pipeline oracle on
// the verifier's current instance and fails unless verdict, model (read
// through Model, as the daemon's /verify does), core, constraint counts,
// and suspect nodes agree bit for bit (Stats excluded: durations and graph
// sizes legitimately differ), unless an unsafe verdict's core and suspects
// are, member for member and in order, those spp.Analyze finds on the
// snapshot, and unless a safe, non-degraded verdict's model predicts a
// stable routing (modelWalk, checked by isStable). No answer places its
// core: CoreIdx is the one-shot's.
func requireVerifyParity(t *testing.T, label string, v *DeltaVerifier) {
	t.Helper()
	got, gotSus, gotErr := v.Verify(context.Background())
	if got.Model != nil {
		t.Fatalf("%s: Verify built a model", label)
	}
	if got.CoreIdx != nil {
		t.Fatalf("%s: Verify placed its core at %v (degraded %v)", label, got.CoreIdx, v.Degraded())
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
	if !got.Sat {
		one, oneSus, err := Analyze(context.Background(), v.Snapshot())
		if err != nil || !slices.Equal(got.Core, one.Core) || !slices.Equal(gotSus, oneSus) {
			t.Fatalf("%s: core %v with suspects %v; Analyze on the snapshot: %v with %v (error %v)", label, got.Core, gotSus, one.Core, oneSus, err)
		}
	}
	if got.Sat && !v.Degraded() {
		in := v.Snapshot()
		if sel := modelWalk(in, got.Model); !isStable(in, sel) {
			t.Fatalf("%s: the model's walk selects %v, which is not a stable assignment", label, sel)
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

// answer is what a verifier answers now — verdict, core, counts, suspects,
// model and instance — rendered, so that a later answer can be compared.
func answer(v *DeltaVerifier) string {
	res, sus, err := v.Verify(context.Background())
	return fmt.Sprint(res.Sat, res.Core, res.NumPreference, res.NumMonotonicity, sus, err, v.Model(), *v.Snapshot())
}

// TestDeltaVerifierClone: a clone and its original are independent in both
// directions — the server's what-if discard path once, and the benchmark
// replay's clone of a fresh load for every discarded query. Each side takes
// edits that write what a load lays out in shared arrays (extension lists,
// ranking ids, the node index, origins, link serials and label hashes), and
// after each the other side answers as before and both agree with the
// oracle.
func TestDeltaVerifierClone(t *testing.T) {
	v, err := NewDeltaVerifier(Figure3IBGP())
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone() // a fresh load, as the replay clones it
	requireVerifyParity(t, "base", v)
	original := answer(v)
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
	if got := answer(v); got != original {
		t.Fatalf("editing the clone changed the original:\n%s\nwas\n%s", got, original)
	}
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

	// Now the other way: the original loses the a↔d session, pruning the
	// paths over it, and grows a node, an origin and a session whose path
	// extends c's; then the clone takes a session and a path of its own.
	repaired := answer(c)
	edit := func(x *DeltaVerifier, label string, ops ...gadgetOp) {
		t.Helper()
		for _, op := range ops {
			if err := op.apply(x); err != nil {
				t.Fatalf("%s: %s: %v", label, op.name, err)
			}
		}
		requireVerifyParity(t, label, x)
		requireIndexMatchesSnapshot(t, label+", original's tables", v)
		requireIndexMatchesSnapshot(t, label+", clone's tables", c)
	}
	edit(v, "original after its own edits", dropSession("a", "d"), addSession("c", "g", 2), rerank("g", P("g", "c", "f", "r3"), P("g", "rg")))
	if got := answer(c); got != repaired {
		t.Fatalf("editing the original changed the clone:\n%s\nwas\n%s", got, repaired)
	}
	edited := answer(v)
	edit(c, "clone after its own edits", addSession("b", "g", 0), rerank("g", P("g", "b", "e", "r2")), dropSession("d", "e"))
	if got := answer(v); got != edited {
		t.Fatalf("editing the clone again changed the original:\n%s\nwas\n%s", got, edited)
	}
	requireVerifyParity(t, "original at the end", v)
}

// TestDeltaVerifierOwnsItsCopy: a load deep-copies its instance. Four edits
// of the caller's instance after NewDeltaVerifier — a re-rank, a new
// session, a node appended to Nodes and one hop of a ranked path written in
// place — change none of Verify's answer, Model and Snapshot, and neither do
// the same four on the instance Snapshot returns.
func TestDeltaVerifierOwnsItsCopy(t *testing.T) {
	scribble := func(x *Instance) {
		x.Rank("a", P("a", "r9"))
		x.AddSession("a", "zz", 3)
		x.Nodes = append(x.Nodes, "yy")
		x.Permitted["b"][0][1] = "nowhere"
	}
	for _, in := range []*Instance{Figure3IBGP(), Figure3IBGPFixed()} {
		v, err := NewDeltaVerifier(in)
		if err != nil {
			t.Fatal(err)
		}
		want := answer(v)
		scribble(in)
		if got := answer(v); got != want {
			t.Fatalf("%s: editing the loaded instance reached the verifier:\n%s\nwas\n%s", in.Name, got, want)
		}
		requireVerifyParity(t, in.Name+" after the caller's edits", v)
		scribble(v.Snapshot())
		if got := answer(v); got != want {
			t.Fatalf("%s: editing a snapshot reached the verifier:\n%s\nwas\n%s", in.Name, got, want)
		}
		requireVerifyParity(t, in.Name+" after a snapshot's edits", v)
	}
}

// TestFirstCheckIsTheDenseSolve: the first Verify of an unedited load is
// one full solve that loads every atom and walks no graph edge, safe or
// not, and the next Verify is a cache hit. After a safe one the next edit
// is a delta solve from the model it installed, after an unsafe one a full
// solve. A load edited, or verified inside a transaction, first is checked
// on the graph, as any other check.
func TestFirstCheckIsTheDenseSolve(t *testing.T) {
	for _, tc := range []struct {
		in   *Instance
		next string // the discharge of the check after an edit
	}{{Figure3IBGPFixed(), "delta"}, {Figure3IBGP(), "full"}} {
		v, err := NewDeltaVerifier(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		requireVerifyParity(t, tc.in.Name+" first", v)
		res, _, _ := v.Verify(context.Background())
		st := v.DeltaStats()
		if st.Steps != res.NumPreference+res.NumMonotonicity || st.FullSolves != 1 || st.Checks != 1 || st.CacheHits < 1 {
			t.Fatalf("%s: first check %+v over %d atoms, want their steps, one full solve, then a cache hit", tc.in.Name, st, res.NumPreference+res.NumMonotonicity)
		}
		if err := v.ReRank("d", P("d", "a", "b", "e", "r2"), P("d", "r1"), P("d", "a", "c", "f", "r3")); err != nil {
			t.Fatal(err)
		}
		requireVerifyParity(t, tc.in.Name+" edited", v)
		if after := v.DeltaStats(); (after.DeltaSolves > st.DeltaSolves) != (tc.next == "delta") || (after.FullSolves > st.FullSolves) != (tc.next == "full") {
			t.Fatalf("%s: the check after an edit moved %+v to %+v, want a %s solve", tc.in.Name, st, after, tc.next)
		}
	}
	for _, first := range []func(v *DeltaVerifier){
		func(v *DeltaVerifier) { v.ReRank("a", P("a", "d", "r1"), P("a", "b", "e", "r2")) },
		func(v *DeltaVerifier) { v.Begin(); requireVerifyParity(t, "inside a transaction", v); v.Rollback() },
	} {
		v, err := NewDeltaVerifier(Figure3IBGP())
		if err != nil {
			t.Fatal(err)
		}
		first(v)
		requireVerifyParity(t, "after the first", v)
		if st := v.DeltaStats(); st.Steps <= v.numPref+v.numMono {
			t.Fatalf("a load edited or checked in a transaction first took %d steps over %d atoms: the dense solve, not the graph", st.Steps, v.numPref+v.numMono)
		}
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

// TestResidentAssertionsAreTheSegments pins the solver's view of the
// instance to the provenance functions': the atoms the implied graph walks,
// in key order and named through the verifier's table, are the Assertion of
// every prefSeg and monoSeg constraint, less its origin — and coreMember,
// fed an atom's tail and kind, renders it as that constraint, origin
// included; the atom counts are the walked atoms of each kind — on the
// generated instances, for every node and link.
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
		type atom struct {
			key      uint64
			from, to int32
		}
		var atoms []atom
		g := (*graph)(v)
		for x := int32(1); x <= int32(g.Vars()); x++ {
			for _, ed := range g.Out(nil, x) {
				atoms = append(atoms, atom{ed.Key, x, ed.To})
			}
		}
		slices.SortFunc(atoms, func(a, b atom) int { return cmp.Compare(a.key, b.key) })
		if len(atoms) != len(cons) {
			t.Fatalf("%s: %d resident atoms, %d constraints", in.Name, len(atoms), len(cons))
		}
		pref := 0
		for i, c := range cons {
			want := c.Assertion
			want.Origin = ""
			a := atoms[i]
			if a.key&keyMono == 0 {
				pref++
			}
			if got := (smt.Assertion{Rel: smt.Lt, A: smt.Term{Var: v.paths[a.to].name}, B: smt.Term{Var: v.paths[a.from].name}}); got != want {
				t.Fatalf("%s: resident atom %d is %v, the emitter's %v", in.Name, i, got, want)
			}
			if got, _ := v.coreMember(a.from, a.key&keyMono != 0); got.Assertion != c.Assertion {
				t.Fatalf("%s: key %#x renders as %v, the emitter has %v at %d", in.Name, a.key, got.Assertion, c.Assertion, i)
			}
		}
		if v.numPref != pref || v.numMono != len(atoms)-pref {
			t.Fatalf("%s: %d + %d atoms counted, %d + %d walked", in.Name, v.numPref, v.numMono, pref, len(atoms)-pref)
		}
	}
}
