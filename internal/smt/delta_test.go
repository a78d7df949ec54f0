package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// oracleCheck solves the assertion list on a fresh Context — the full
// rebuild the delta path must match bit for bit.
func oracleCheck(t *testing.T, asserts []Assertion) Result {
	t.Helper()
	c := NewContext()
	c.AssertAll(asserts)
	res, err := c.Check()
	if err != nil {
		t.Fatalf("oracle check: %v", err)
	}
	return res
}

// requireParity fails unless got matches the oracle on verdict, model,
// core and core indices (Stats are excluded:
// durations differ by construction, and a delta solve may keep orphaned
// variables interned).
func requireParity(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Sat != want.Sat {
		t.Fatalf("%s: Sat = %v, oracle %v", label, got.Sat, want.Sat)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.Model), len(want.Model), got.Model, want.Model)
	}
	for v, k := range want.Model {
		if got.Model[v] != k {
			t.Fatalf("%s: model[%s] = %d, oracle %d", label, v, got.Model[v], k)
		}
	}
	if len(got.CoreIdx) != len(want.CoreIdx) {
		t.Fatalf("%s: core size %d, oracle %d\n got: %v\nwant: %v",
			label, len(got.CoreIdx), len(want.CoreIdx), got.CoreIdx, want.CoreIdx)
	}
	for i := range want.CoreIdx {
		if got.CoreIdx[i] != want.CoreIdx[i] {
			t.Fatalf("%s: CoreIdx[%d] = %d, oracle %d", label, i, got.CoreIdx[i], want.CoreIdx[i])
		}
		if got.Core[i] != want.Core[i] {
			t.Fatalf("%s: Core[%d] = %v, oracle %v", label, i, got.Core[i], want.Core[i])
		}
	}
}

// deltaCheck runs Check and names its answer — the model Model reads by
// id, the core atoms under the keys Check returns, which are their positions
// in the list, with their heads and tails — so a result compares field for field with
// a fresh Context.Check of the spelled list.
func deltaCheck(t *testing.T, d *deltaList) Result {
	t.Helper()
	res, core, err := d.Check(context.Background())
	if err != nil {
		t.Fatalf("delta check: %v", err)
	}
	if res.Sat != (core == nil) {
		t.Fatalf("Sat=%v with core keys %v", res.Sat, core)
	}
	if res.Model != nil || res.Core != nil || res.CoreIdx != nil {
		t.Fatalf("delta check named its answer: model %v, core %v at %v", res.Model, res.Core, res.CoreIdx)
	}
	res.Model = spellModel(d.Model())
	if res.Sat != (res.Model != nil) {
		t.Fatalf("Sat=%v but Model()=%v", res.Sat, res.Model)
	}
	atoms := atomsOf(d)
	for _, ed := range core {
		if atoms[ed.Key].A != ed.To || atoms[ed.Key].B != ed.From {
			t.Fatalf("core atom %v reported with head %d and tail %d", atoms[ed.Key], ed.To, ed.From)
		}
		res.CoreIdx = append(res.CoreIdx, int(ed.Key))
		res.Core = append(res.Core, spell(atoms[ed.Key]))
	}
	return res
}

// requireOracle checks the context against a fresh solve of its own list,
// and an unsat core for a certificate: one simple cycle through a strict
// atom.
func requireOracle(t *testing.T, label string, d *deltaList) Result {
	t.Helper()
	got := deltaCheck(t, d)
	requireParity(t, label, got, oracleCheck(t, spellAll(atomsOf(d))))
	if !got.Sat && !isCycleCore(got.Core) {
		t.Fatalf("%s: core %v is not one simple cycle through a strict atom", label, got.Core)
	}
	return got
}

// The tests write atoms over names; the context takes ids. testIDs numbers a
// name on its first use, for the whole test binary, and the string door
// gets the atoms back spelled over "x<id>".
var testIDs struct {
	sync.Mutex
	of map[string]int32
}

func id(name string) int32 {
	testIDs.Lock()
	defer testIDs.Unlock()
	if testIDs.of == nil {
		testIDs.of = map[string]int32{}
	}
	v, ok := testIDs.of[name]
	if !ok {
		v = int32(len(testIDs.of) + 1)
		testIDs.of[name] = v
	}
	return v
}

// less is the atom a < b.
func less(a, b string) DenseConstraint { return DenseConstraint{A: id(a), B: id(b)} }

// spellVar names variable v for the string door.
func spellVar(v int32) Var { return Var("x" + strconv.Itoa(int(v))) }

// spell is atom a as the string door's assertion.
func spell(a DenseConstraint) Assertion {
	return Assertion{Rel: Lt, A: Term{Var: spellVar(a.A)}, B: Term{Var: spellVar(a.B)}}
}

func spellAll(atoms []DenseConstraint) []Assertion {
	out := make([]Assertion, len(atoms))
	for i, a := range atoms {
		out[i] = spell(a)
	}
	return out
}

// spellModel names a model read by id: its nonzero entries, the variables
// some atom references.
func spellModel(model []int) map[Var]int {
	if model == nil {
		return nil
	}
	out := map[Var]int{}
	for v, val := range model {
		if val != 0 {
			out[spellVar(int32(v))] = val
		}
	}
	return out
}

// deltaList is the tests' resident graph: a list of strict atoms A < B cut
// into segments, the unit the tests edit by, whose edges B → A carry the
// atom's position in the list as their key. It holds its DeltaContext, so a
// test drives both through one value. An edit reports the heads of the atoms
// it removed and added; Begin saves the list and Rollback puts it back
// before the context rolls back.
type deltaList struct {
	*DeltaContext
	vars  int
	segs  [][]DenseConstraint
	out   [][]Edge
	in    [][]int32
	saved [][]DenseConstraint // the list Begin found
	vars0 int
}

func (l *deltaList) Vars() int { return l.vars }

func (l *deltaList) Out(dst []Edge, v int32) []Edge {
	if int(v) < len(l.out) {
		dst = append(dst, l.out[v]...)
	}
	return dst
}

func (l *deltaList) In(dst []int32, v int32) []int32 {
	if int(v) < len(l.in) {
		dst = append(dst, l.in[v]...)
	}
	return dst
}

// link rebuilds the edge lists from the segments.
func (l *deltaList) link() {
	l.out, l.in = make([][]Edge, l.vars+1), make([][]int32, l.vars+1)
	for pos, a := range atomsOf(l) {
		l.out[a.B] = append(l.out[a.B], Edge{To: a.A, Key: uint64(pos)})
		l.in[a.A] = append(l.in[a.A], a.B)
	}
}

// atomsOf returns the list's atoms in canonical order.
func atomsOf(l *deltaList) []DenseConstraint {
	var out []DenseConstraint
	for _, seg := range l.segs {
		out = append(out, seg...)
	}
	return out
}

func (l *deltaList) Len() int      { return len(atomsOf(l)) }
func (l *deltaList) Segments() int { return len(l.segs) }

// SetSeg replaces segment id's atoms and reports whether that changed
// anything; a segment given its own content again is left alone.
func (l *deltaList) SetSeg(id int, as []DenseConstraint) bool {
	if slices.Equal(l.segs[id], as) {
		return false
	}
	for _, a := range l.segs[id] {
		l.Changed(a.A)
	}
	for _, a := range as {
		l.vars = max(l.vars, int(a.A), int(a.B))
	}
	l.segs[id] = slices.Clone(as)
	l.link()
	for _, a := range as {
		l.Changed(a.A)
	}
	return true
}

// InsertSeg inserts an empty segment at position id.
func (l *deltaList) InsertSeg(id int) {
	l.segs = slices.Insert(l.segs, id, nil)
	l.link()
}

// RemoveSeg deletes segment id and its atoms.
func (l *deltaList) RemoveSeg(id int) {
	l.SetSeg(id, nil)
	l.segs = slices.Delete(l.segs, id, id+1)
	l.link()
}

func (l *deltaList) Begin() {
	l.saved, l.vars0 = slices.Clone(l.segs), l.vars
	l.DeltaContext.Begin()
}

func (l *deltaList) Rollback() {
	l.segs, l.vars = l.saved, l.vars0
	l.link()
	l.DeltaContext.Rollback()
}

// Clone copies the list and its context.
func (l *deltaList) Clone() *deltaList {
	c := &deltaList{vars: l.vars, segs: slices.Clone(l.segs)}
	c.link()
	c.DeltaContext = l.DeltaContext.Clone(c)
	return c
}

// maxID is the largest id the atoms use: the variable count a context over
// them is built with.
func maxID(atoms []DenseConstraint) int {
	n := int32(0)
	for _, a := range atoms {
		n = max(n, a.A, a.B)
	}
	return int(n)
}

// singles cuts n atoms into one segment each.
func singles(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// newDelta is a context over the atoms, cut into segments of the given
// lengths (nil makes them one), over the variables they use.
func newDelta(t testing.TB, atoms []DenseConstraint, segLen []int) *deltaList {
	t.Helper()
	if segLen == nil {
		segLen = []int{len(atoms)}
	}
	l := &deltaList{vars: maxID(atoms)}
	for _, n := range segLen {
		l.segs, atoms = append(l.segs, slices.Clone(atoms[:n])), atoms[n:]
	}
	if len(atoms) != 0 {
		t.Fatalf("segment lengths leave %d atoms over", len(atoms))
	}
	l.link()
	l.DeltaContext = NewDeltaContext(l)
	return l
}

// appendSeg adds a new last segment holding the atoms.
func appendSeg(t *testing.T, d *deltaList, as ...DenseConstraint) {
	t.Helper()
	d.InsertSeg(d.Segments())
	d.SetSeg(d.Segments()-1, as)
}

func setSeg(t *testing.T, d *deltaList, seg int, as ...DenseConstraint) {
	t.Helper()
	d.SetSeg(seg, as)
}

func removeSeg(t *testing.T, d *deltaList, seg int) {
	t.Helper()
	d.RemoveSeg(seg)
}

// deltaState is everything a DeltaContext carries between checks, with the
// list it decides, for comparing a rolled-back context with the one Begin
// found.
type deltaState struct {
	Atoms    []DenseConstraint
	SegLen   []int
	Built    bool
	Dist     []int
	Changed  []int32
	Res      Result
	Core     []Edge
	ResValid bool
}

func stateOf(d *deltaList) deltaState {
	st := deltaState{Atoms: atomsOf(d), Built: d.built, Res: d.res, Core: d.core, ResValid: d.resValid}
	for _, seg := range d.segs {
		st.SegLen = append(st.SegLen, len(seg))
	}
	for v, node := range d.nodes {
		st.Dist = append(st.Dist, node.dist)
		if node.changed != slices.Contains(d.changed, int32(v)) || node.local != 0 {
			panic(fmt.Sprintf("node %d: flags %+v, changed set %v", v, node, d.changed))
		}
	}
	st.Changed = slices.Sorted(slices.Values(d.changed))
	return st
}

// requireConsistent checks the invariants between the context and the
// graph: its node table covers the graph's variables and no more than the
// largest check or edit reached, and nothing touches the zero node.
func requireConsistent(t *testing.T, label string, d *deltaList) {
	t.Helper()
	st := stateOf(d)
	if len(st.Dist) > d.vars+1 {
		t.Fatalf("%s: %d nodes for %d variables", label, len(st.Dist), d.vars)
	}
	if d.nodes[zeroNode] != (deltaNode{}) || slices.Contains(st.Changed, zeroNode) {
		t.Fatalf("%s: the zero node is part of the graph: %+v", label, d.nodes[zeroNode])
	}
}

// txDriver turns a byte string into delta transactions: an initial
// segmented list, then rounds of Begin, one to four segment operations
// (replacements with strict pairs — fresh variables, repeats and self-loops
// among them — insertions, removals, a segment given its own content), a
// Check that must match a fresh full solve of the same list bit for bit, and
// Commit or Rollback. A rolled-back context must be, field for field, the
// one Begin found: the next Check is answered from the memoized result, and
// a one-edge edit after it by a delta solve — also when the check that was
// rolled back had found a negative cycle. A string that runs out reads as
// zeros.
type txDriver struct {
	data  []byte
	fresh int

	unsatRolledBack, freshRolledBack, regionCores int
}

func (x *txDriver) next() int {
	if len(x.data) == 0 {
		return 0
	}
	b := x.data[0]
	x.data = x.data[1:]
	return int(b)
}

var driverVars = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// atom draws a strict pair: mostly one that agrees with the order of
// driverVars, so a system can stay sat, and otherwise one against it, a
// self-loop, or one with a variable the context has never seen.
func (x *txDriver) atom() DenseConstraint {
	k, i := x.next(), x.next()%len(driverVars)
	j := (i + 1 + x.next()%(len(driverVars)-1)) % len(driverVars)
	a, b := driverVars[min(i, j)], driverVars[max(i, j)]
	switch k % 16 {
	case 0: // a negative cycle by itself
		b = a
	case 1, 2, 3: // against the order: may close a cycle
		a, b = b, a
	case 4:
		x.fresh++
		a = fmt.Sprintf("v%d", x.fresh)
	}
	return less(a, b)
}

func (x *txDriver) atoms(n int) []DenseConstraint {
	out := make([]DenseConstraint, n)
	for i := range out {
		out[i] = x.atom()
	}
	return out
}

func (x *txDriver) run(t *testing.T) {
	segLen := make([]int, 1+x.next()%5)
	total := 0
	for i := range segLen {
		segLen[i] = x.next() % 4
		total += segLen[i]
	}
	d := newDelta(t, x.atoms(total), segLen)
	requireOracle(t, "initial", d)
	requireConsistent(t, "initial", d)
	for round := 0; len(x.data) > 0 && round < 40; round++ {
		label := fmt.Sprintf("round %d", round)
		before, vars := stateOf(d), len(d.nodes)
		d.Begin()
		for k := 1 + x.next()%4; k > 0; k-- {
			switch op, id := x.next(), x.next(); {
			case op%8 == 5:
				d.InsertSeg(id % (d.Segments() + 1))
			case op%8 == 6 && d.Segments() > 1:
				d.RemoveSeg(id % d.Segments())
			case op%8 == 7: // its own content: must change nothing
				id %= d.Segments()
				if d.SetSeg(id, slices.Clone(d.segs[id])) {
					t.Fatalf("%s: segment %d given its own content reports a change", label, id)
				}
			default:
				d.SetSeg(id%d.Segments(), x.atoms(op/8%4))
			}
		}
		full := d.Stats().FullSolves
		inside := requireOracle(t, label+" inside", d)
		requireConsistent(t, label+" inside", d)
		if !inside.Sat && before.Built && d.Stats().FullSolves == full && len(inside.CoreIdx) > 0 && d.Stats().LastAffected > 0 {
			x.regionCores++
		}
		if x.next()%2 == 0 {
			d.Commit()
			requireOracle(t, label+" committed", d)
			requireConsistent(t, label+" committed", d)
			continue
		}
		grew := d.built && len(d.nodes) > vars
		d.Rollback()
		if after := stateOf(d); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: rollback left\n%+v\nBegin found\n%+v", label, after, before)
		}
		requireConsistent(t, label+" rolled back", d)
		st := d.Stats()
		requireParity(t, label+" rolled back", deltaCheck(t, d), oracleCheck(t, spellAll(before.Atoms)))
		if now := d.Stats(); now.CacheHits != st.CacheHits+1 || now.Checks != st.Checks {
			t.Fatalf("%s: check after rollback was not answered from the memoized result: %+v → %+v", label, st, now)
		}
		if !before.Res.Sat {
			continue
		}
		if before.Built && grew {
			x.freshRolledBack++
		}
		if !inside.Sat {
			x.unsatRolledBack++
		}
		// A one-edge edit on the restored fixed point: pad < a, with pad in
		// no other atom, closes no cycle.
		for _, edit := range []func(){
			func() { appendSeg(t, d, less("pad", "a")) },
			func() { removeSeg(t, d, d.Segments()-1) },
		} {
			st := d.Stats()
			edit()
			requireOracle(t, label+" one-edge edit", d)
			if now := d.Stats(); now.DeltaSolves != st.DeltaSolves+1 || now.FullSolves != st.FullSolves {
				t.Fatalf("%s: one-edge edit after rollback was not a delta solve: %+v → %+v", label, st, now)
			}
		}
	}
}

// TestDeltaSpliceFuzz drives thirty seeded byte strings through txDriver
// and checks the interesting cases came up: rolled-back unsat checks,
// rolled-back fresh variables, and cores decided from the region.
func TestDeltaSpliceFuzz(t *testing.T) {
	var unsatRolledBack, freshRolledBack, regionCores int
	for seed := int64(1); seed <= 30; seed++ {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(data)
		x := &txDriver{data: data}
		t.Run(fmt.Sprint("seed", seed), x.run)
		unsatRolledBack += x.unsatRolledBack
		freshRolledBack += x.freshRolledBack
		regionCores += x.regionCores
	}
	t.Logf("unsat rolled back %d, fresh rolled back %d, region cores %d", unsatRolledBack, freshRolledBack, regionCores)
	if unsatRolledBack == 0 || freshRolledBack == 0 || regionCores == 0 {
		t.Fatalf("fuzz rolled back %d unsat checks and %d transactions with fresh variables and decided %d cores from a region, want all > 0",
			unsatRolledBack, freshRolledBack, regionCores)
	}
}

// FuzzDeltaTransactions is txDriver on arbitrary byte strings.
func FuzzDeltaTransactions(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		(&txDriver{data: data}).run(t)
	})
}

// requireRegionCore checks that the last check was unsat, matched the
// oracle, and came from the region: a delta solve, no full one.
func requireRegionCore(t *testing.T, label string, d *deltaList, before DeltaStats) Result {
	t.Helper()
	res := requireOracle(t, label, d)
	if now := d.Stats(); res.Sat || now.DeltaSolves != before.DeltaSolves+1 || now.FullSolves != before.FullSolves {
		t.Fatalf("%s: sat=%v, stats %+v → %+v; want an unsat delta solve", label, res.Sat, before, now)
	}
	return res
}

// TestDeltaRegionCores plants the disputes the region argument has to get
// right on a standing satisfiable chain x0 < x1 < … < x9 beside two
// unrelated pairs, and compares each with a fresh solve of the same list.
func TestDeltaRegionCores(t *testing.T) {
	x := func(i int) string { return fmt.Sprintf("x%d", i) }
	standing := func() *deltaList {
		var as []DenseConstraint
		for i := 0; i < 9; i++ {
			as = append(as, less(x(i), x(i+1)))
		}
		as = append(as, less("p", "q"), less("r", "s"))
		d := newDelta(t, as, singles(len(as)))
		if res := requireOracle(t, "standing", d); !res.Sat {
			t.Fatal("the standing system is unsat")
		}
		return d
	}

	t.Run("two disjoint disputes in one batch", func(t *testing.T) {
		d := standing()
		st := d.Stats()
		d.Begin()
		appendSeg(t, d, less("q", "p"))
		appendSeg(t, d, less("s", "r"))
		res := requireRegionCore(t, "both planted", d, st)
		if len(res.CoreIdx) != 2 {
			t.Fatalf("core %v, want one dispute's two atoms", res.CoreIdx)
		}
		d.Rollback()
		requireOracle(t, "rolled back", d)
	})

	t.Run("a second break on a standing unsat verdict", func(t *testing.T) {
		d := standing()
		st := d.Stats()
		appendSeg(t, d, less("q", "p"))
		first := requireRegionCore(t, "first break", d, st)
		st = d.Stats()
		d.Begin()
		setSeg(t, d, 0, less(x(1), x(0))) // x0 < x1 becomes x1 < x0: no cycle by itself
		setSeg(t, d, 1, less(x(0), x(1))) // x1 < x2 becomes x0 < x1: closes it
		d.Commit()
		second := requireRegionCore(t, "second break", d, st)
		if slices.Equal(first.CoreIdx, second.CoreIdx) {
			t.Fatalf("the earlier dispute %v became the core", second.CoreIdx)
		}
		// Repair the later one, then the earlier: the fixed point that stood
		// before both is still the one re-probed from.
		st = d.Stats()
		setSeg(t, d, 0, less(x(0), x(1)))
		setSeg(t, d, 1, less(x(1), x(2)))
		requireRegionCore(t, "first dispute still standing", d, st)
		removeSeg(t, d, d.Segments()-1)
		st = d.Stats()
		if res := requireOracle(t, "both repaired", d); !res.Sat || d.Stats().FullSolves != st.FullSolves {
			t.Fatalf("repair: sat=%v, stats %+v → %+v", res.Sat, st, d.Stats())
		}
	})

	t.Run("a self-loop", func(t *testing.T) {
		d := standing()
		st := d.Stats()
		appendSeg(t, d, less(x(4), x(4)))
		res := requireRegionCore(t, "x4 < x4", d, st)
		if !slices.Equal(res.CoreIdx, []int{d.Len() - 1}) {
			t.Fatalf("core %v, want the self-loop alone", res.CoreIdx)
		}
		st = d.Stats()
		removeSeg(t, d, d.Segments()-1)
		if res := requireOracle(t, "x4 < x4 removed", d); !res.Sat || d.Stats().DeltaSolves != st.DeltaSolves+1 || d.Stats().FullSolves != st.FullSolves {
			t.Fatalf("removal: sat=%v, stats %+v → %+v; want a sat delta solve", res.Sat, st, d.Stats())
		}
	})

	t.Run("a region that is the whole graph", func(t *testing.T) {
		d := standing()
		st := d.Stats()
		d.Begin()
		setSeg(t, d, 9, less("q", x(0)))                 // p < q becomes q < x0 …
		appendSeg(t, d, less(x(9), "r"), less("s", "q")) // … and x9 < r < s < q closes the ring
		res := requireRegionCore(t, "ring", d, st)
		if len(res.CoreIdx) != d.Len() {
			t.Fatalf("core %v, want all %d atoms", res.CoreIdx, d.Len())
		}
		vars := map[int32]bool{}
		for _, a := range append(atomsOf(d), less("p", "q")) { // p is an orphan of the graph now
			vars[a.A], vars[a.B] = true, true
		}
		if got := d.Stats().LastAffected; got != len(vars) {
			t.Fatalf("region of %d nodes, the graph has %d variables", got, len(vars))
		}
		d.Rollback()
		requireOracle(t, "rolled back", d)
	})
}

// TestDeltaSatToUnsatAndBack walks a context across the sat/unsat boundary:
// an unsat verdict (exact core from the region, on a pooled engine) costs
// the standing fixed point nothing, so the repair is a delta solve.
func TestDeltaSatToUnsatAndBack(t *testing.T) {
	base := []DenseConstraint{less("x", "y"), less("y", "z")}
	d := newDelta(t, base, singles(2))
	requireOracle(t, "sat", d)

	// z < x closes a strict cycle: unsat with a three-atom core.
	st := d.Stats()
	appendSeg(t, d, less("z", "x"))
	if res := requireRegionCore(t, "unsat", d, st); len(res.Core) != 3 {
		t.Fatalf("expected 3-atom unsat core, got %v", res.Core)
	}

	// Remove the closing atom: sat again, re-probed from the fixed point
	// that stood before the cycle.
	st = d.Stats()
	removeSeg(t, d, 2)
	requireOracle(t, "sat again", d)
	if now := d.Stats(); now.DeltaSolves != st.DeltaSolves+1 || now.FullSolves != st.FullSolves {
		t.Fatalf("repair after unsat was not a delta solve: %+v → %+v", st, now)
	}

	// Now a benign delta on the warm state.
	setSeg(t, d, 0, less("x", "z"))
	requireOracle(t, "delta after recovery", d)

	// Before any sat verdict the graph is linked all the same, orphans
	// included: a check must leave them out like a fresh solve, which never
	// interns them.
	t.Run("orphans before any sat verdict", func(t *testing.T) {
		d := newDelta(t, []DenseConstraint{less("x", "y"), less("y", "x"), less("u", "v")}, singles(3))
		if res := requireFullSolve(t, "x < y < x", d); res.Sat {
			t.Fatal("x < y < x is sat")
		}
		setSeg(t, d, 1, less("y", "z"))                 // fresh z
		setSeg(t, d, 2, less("u", "w"), less("w", "u")) // orphans v, fresh w
		if res := requireFullSolve(t, "u < w < u, v orphaned", d); res.Sat || len(res.CoreIdx) != 2 {
			t.Fatalf("u < w < u: sat=%v, core %v; want the two-atom cycle", res.Sat, res.CoreIdx)
		}
		setSeg(t, d, 2, less("u", "w"))
		if res := requireFullSolve(t, "repaired, v still orphaned", d); !res.Sat {
			t.Fatal("the repair is unsat")
		}
	})

	// A first sat solve inside a transaction installs a fixed point for a
	// list Rollback takes away: nothing stands after it.
	t.Run("a first sat solve rolled back", func(t *testing.T) {
		for _, edit := range []bool{false, true} {
			d := newDelta(t, base, singles(2))
			before := stateOf(d)
			d.Begin()
			if edit {
				appendSeg(t, d, less("z", "w")) // fresh w
			}
			requireFullSolve(t, "inside", d)
			d.Rollback()
			if m := d.Model(); m != nil {
				t.Fatalf("edit=%v: Model() = %v after the first sat solve was rolled back", edit, m)
			}
			if after := stateOf(d); !reflect.DeepEqual(after, before) {
				t.Fatalf("edit=%v: rollback left\n%+v\nBegin found\n%+v", edit, after, before)
			}
			requireConsistent(t, "rolled back", d)
			requireFullSolve(t, "after rollback", d)
		}
	})
}

// requireFullSolve checks a check that must solve the whole list against a
// fresh Context.Check of it, the graph's size included.
func requireFullSolve(t *testing.T, label string, d *deltaList) Result {
	t.Helper()
	st := d.Stats()
	got, want := deltaCheck(t, d), oracleCheck(t, spellAll(atomsOf(d)))
	requireParity(t, label, got, want)
	if got.Stats.Variables != want.Stats.Variables || got.Stats.Edges != want.Stats.Edges {
		t.Fatalf("%s: %d variables and %d edges, a fresh solve has %d and %d",
			label, got.Stats.Variables, got.Stats.Edges, want.Stats.Variables, want.Stats.Edges)
	}
	if now := d.Stats(); now.FullSolves != st.FullSolves+1 || now.DeltaSolves != st.DeltaSolves {
		t.Fatalf("%s: not a full solve: %+v → %+v", label, st, now)
	}
	return got
}

// TestDeltaOrphanVariables removes every atom mentioning a variable and
// checks the orphan is filtered from the model, matching the oracle (which
// never interns it).
func TestDeltaOrphanVariables(t *testing.T) {
	d := newDelta(t, []DenseConstraint{less("x", "y"), less("u", "v")}, singles(2))
	requireOracle(t, "initial", d)
	setSeg(t, d, 1) // orphans u and v
	res := requireOracle(t, "after orphaning", d)
	for _, v := range []string{"u", "v"} {
		if _, ok := res.Model[spellVar(id(v))]; ok {
			t.Fatalf("orphaned %s still in model %v", v, res.Model)
		}
	}
	// Re-adding a reference resurrects the variable.
	setSeg(t, d, 1, less("u", "x"))
	res = requireOracle(t, "after resurrection", d)
	if _, ok := res.Model[spellVar(id("u"))]; !ok {
		t.Fatalf("resurrected u missing from model %v", res.Model)
	}
}

// TestDeltaCheckMemoization verifies repeated Checks without intervening
// edits are answered from the cache.
func TestDeltaCheckMemoization(t *testing.T) {
	d := newDelta(t, []DenseConstraint{less("x", "y")}, nil)
	first := deltaCheck(t, d)
	second := deltaCheck(t, d)
	if st := d.Stats(); st.Checks != 1 || st.CacheHits != 1 {
		t.Fatalf("expected 1 check + 1 cache hit, stats %+v", st)
	}
	requireParity(t, "memoized", second, first)
}

// TestDeltaClone applies divergent edits to a clone and its original and
// checks they stay independent and each matches its own oracle.
func TestDeltaClone(t *testing.T) {
	d := newDelta(t, []DenseConstraint{less("x", "y"), less("y", "z")}, singles(2))
	deltaCheck(t, d) // warm the engine so the clone copies live state
	c := d.Clone()
	appendSeg(t, c, less("z", "x"))
	setSeg(t, d, 0, less("w", "x"))
	requireOracle(t, "clone", c)
	requireOracle(t, "original", d)
	requireConsistent(t, "clone", c)
	requireConsistent(t, "original", d)
	if got := deltaCheck(t, c); got.Sat {
		t.Fatal("clone should be unsat")
	}
	if got := deltaCheck(t, d); !got.Sat {
		t.Fatal("original should stay sat")
	}
}
