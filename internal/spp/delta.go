// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. A DeltaVerifier keeps the instance's full
// constraint list resident — organized as one segment per node (its
// pairwise preference chain) followed by one segment per directed link (its
// ⊕ monotonicity entries), exactly the order §IV-B constraint generation
// produces — so an edit regenerates only the segments whose content is a
// function of the touched rankings, reached through the node's position and
// its incident-link list rather than a scan of the instance, and splices
// them into a warm smt.DeltaContext. The solver then re-probes only the
// dispute-digraph region those constraints reach.
//
// A what-if that is not kept costs its edit, not the instance: between
// Begin and Rollback every mutation — of the instance, the topology index,
// the segment table, the collision counters — logs its inverse, the solver
// context journals its own, and Rollback runs both backwards, leaving the
// verifier as Begin found it. Nothing is copied up front.
//
// Correctness is anchored to the full pipeline, not argued independently:
// the resident list is built by the batch emitter and patched with the same
// two segment functions (prefSeg, monoSeg) under the natural naming, tests
// enforce bit-for-bit parity against VerifyFull — after edits, inside
// transactions and after rolling them back — and any instance the natural
// naming does not fit — signature-rendering collisions, duplicate permitted
// paths — flips the verifier into degraded mode, where Verify analyses the
// instance from scratch instead.

package spp

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"fsr/internal/analysis"
	"fsr/internal/smt"
)

// DeltaVerifier owns a private copy of an SPP instance plus the resident
// solver state needed to re-verify it incrementally after edits. It is not
// safe for concurrent use.
type DeltaVerifier struct {
	in *Instance
	dc *smt.DeltaContext

	// ix answers node, origin and link membership for edit validation; a
	// node's position is also its preference segment id, and incident[pos]
	// lists the links (by position in Links) whose monotonicity segments
	// read the node's ranking. Both are maintained across edits.
	ix       *topoIndex
	incident [][]int32

	// cons mirrors the delta context's assertion list with algebra-level
	// provenance, segmented per segLen: first one segment per node (in
	// Nodes order), then one per directed link (in Links order). numPref
	// is the node segments' total.
	cons    []analysis.Constraint
	segLen  []int
	numPref int

	// symCount counts permitted paths per signature rendering; nameCount
	// per sanitized solver-variable name. Any rendering shared by two paths
	// (a ToAlgebra error) or any name collision (where the full pipeline
	// would suffix) makes the naturally named resident list unsound, so
	// dupSyms / dupNames > 0 degrades Verify to a from-scratch analysis
	// until edits resolve the clash.
	symCount  map[string]int
	nameCount map[string]int
	dupSyms   int
	dupNames  int

	// scratch is the witness of the last from-scratch Verify, for Model;
	// any edit drops it.
	scratch map[string]int

	// undo holds the open transaction's inverses, oldest first.
	inTx bool
	undo []func()
}

// NewDeltaVerifier builds the resident constraint state for a deep copy of
// the instance. The instance must validate; rendering collisions are
// tolerated (the verifier starts degraded and recovers if edits remove
// them).
func NewDeltaVerifier(in *Instance) (*DeltaVerifier, error) {
	cp := in.Clone()
	p, err := buildShardPrep(cp, 0)
	if err != nil {
		return nil, err
	}
	v := &DeltaVerifier{
		in:        cp,
		ix:        indexInstance(cp),
		cons:      p.shardedConstraints(0),
		segLen:    p.segLens(),
		numPref:   int(p.totalPref()),
		symCount:  map[string]int{},
		nameCount: map[string]int{},
	}
	v.incident = incidentLinks(cp, v.ix.nodes)
	for _, paths := range p.perms {
		for _, q := range paths {
			v.countPath(q, +1)
		}
	}
	v.dc = smt.NewDeltaContext(assertsOf(v.cons))
	return v, nil
}

// Name returns the instance name.
func (v *DeltaVerifier) Name() string { return v.in.Name }

// Snapshot returns a deep copy of the verifier's current instance.
func (v *DeltaVerifier) Snapshot() *Instance { return v.in.Clone() }

// Degraded reports whether the resident list is unsound for the current
// instance (rendering collision or duplicate permitted path) and Verify is
// analysing from scratch.
func (v *DeltaVerifier) Degraded() bool { return v.dupSyms > 0 || v.dupNames > 0 }

// DeltaStats returns the underlying solver's delta statistics.
func (v *DeltaVerifier) DeltaStats() smt.DeltaStats { return v.dc.Stats() }

// Clone returns an independent copy, including the warm solver state, taken
// outside any transaction. What-ifs roll back instead; only the benchmark's
// frozen replay still clones.
func (v *DeltaVerifier) Clone() *DeltaVerifier {
	c := &DeltaVerifier{
		in: v.in.Clone(),
		dc: v.dc.Clone(),
		ix: &topoIndex{
			nodes:   maps.Clone(v.ix.nodes),
			origins: maps.Clone(v.ix.origins),
			links:   maps.Clone(v.ix.links),
		},
		cons:      slices.Clone(v.cons),
		segLen:    slices.Clone(v.segLen),
		numPref:   v.numPref,
		symCount:  maps.Clone(v.symCount),
		nameCount: maps.Clone(v.nameCount),
		dupSyms:   v.dupSyms,
		dupNames:  v.dupNames,
		scratch:   v.scratch,
	}
	c.incident = incidentLinks(c.in, c.ix.nodes)
	return c
}

// Begin opens a transaction: every edit and Verify until Commit or Rollback
// is undoable, and Rollback leaves the verifier as Begin found it —
// Snapshot, Degraded, Model, and the next Verify's verdict, core, suspects
// and discharge mode (cached if it follows a Verify with no edit between)
// are what they would have been had the transaction never run; only
// DeltaStats' counters keep counting. The journal grows with the edits,
// not the instance. Transactions do not nest.
func (v *DeltaVerifier) Begin() {
	if v.inTx {
		panic("spp: DeltaVerifier.Begin inside a transaction")
	}
	v.inTx = true
	v.dc.Begin()
	scratch := v.scratch
	v.onRollback(func() { v.scratch = scratch })
}

// Commit closes the transaction, keeping its edits.
func (v *DeltaVerifier) Commit() {
	v.dc.Commit()
	v.endTx()
}

// Rollback closes the transaction and undoes it; see Begin.
func (v *DeltaVerifier) Rollback() {
	v.inTx = false // the inverses are not themselves logged
	for i := len(v.undo) - 1; i >= 0; i-- {
		v.undo[i]()
	}
	v.dc.Rollback()
	v.endTx()
}

func (v *DeltaVerifier) endTx() {
	clear(v.undo)
	v.undo, v.inTx = v.undo[:0], false
}

// onRollback logs the inverse of the mutation its caller is making.
func (v *DeltaVerifier) onRollback(inverse func()) {
	if v.inTx {
		v.undo = append(v.undo, inverse)
	}
}

// Journal reports the open transaction's size: solver splices recorded,
// and undo entries in all, across both layers.
func (v *DeltaVerifier) Journal() (splices, entries int) {
	splices, entries = v.dc.Journal()
	return splices, entries + len(v.undo)
}

// fromScratch reports that the instance is Analyze's to decide: a name
// collision needs the suffixed variables, and a degenerate instance (no
// links, or no permitted paths at all) the error a fresh analysis reports.
func (v *DeltaVerifier) fromScratch() bool {
	return v.dupNames > 0 || len(v.in.Links) == 0 || len(v.symCount) == 0
}

// Verify decides strict monotonicity for the current instance on the delta
// path (from scratch when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the contract of
// Session.AnalyzeSPP, except that a safe result carries no model: Model
// renders the witness for the caller that wants it.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	if v.dupSyms > 0 {
		return analysis.Result{}, nil, duplicatePath(v.in)
	}
	if v.fromScratch() {
		res, suspects, err := Analyze(ctx, v.in, smt.Native{}, 0)
		v.scratch, res.Model = res.Model, nil
		return res, suspects, err
	}
	out, err := v.dc.Check(ctx)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:         "spp-" + v.in.Name,
		Condition:       analysis.StrictMonotonicity,
		Sat:             out.Sat,
		Stats:           out.Stats,
		NumPreference:   v.numPref,
		NumMonotonicity: len(v.cons) - v.numPref,
	}
	if out.Sat {
		return res, nil, nil
	}
	res.Core = make([]analysis.Constraint, 0, len(out.CoreIdx))
	res.CoreIdx = make([]int, 0, len(out.CoreIdx))
	for _, i := range out.CoreIdx {
		if i >= 0 && i < len(v.cons) {
			res.Core = append(res.Core, v.cons[i])
			res.CoreIdx = append(res.CoreIdx, i)
		}
	}
	return res, suspects(v.in, v.segLen, res.CoreIdx), nil
}

// Model renders the strict-monotonicity witness of the last Verify: the
// model Session.AnalyzeSPP would return for the current instance. It is nil
// unless that Verify was safe and no edit came after it.
func (v *DeltaVerifier) Model() map[string]int {
	if v.fromScratch() {
		return v.scratch
	}
	m := v.dc.Model()
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for name, val := range m {
		out[string(name)] = val
	}
	return out
}

// VerifyFull runs the full pipeline — ToAlgebra, fresh constraint
// generation, fresh solve — on the current instance. It is the differential
// oracle the delta path is tested (and optionally served) against.
func (v *DeltaVerifier) VerifyFull(ctx context.Context) (analysis.Result, []Node, error) {
	conv, err := v.in.ToAlgebra()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
	if err != nil {
		return analysis.Result{}, nil, err
	}
	return res, conv.SuspectNodes(res.Core), nil
}

// ReRank replaces a node's ranked permitted paths (declaring the node and
// any new origin tokens like Instance.Rank) and refreshes the node's
// preference segment plus the monotonicity segments of its incident links.
// The paths are validated against the current topology first; an invalid
// ranking is rejected without mutating anything.
func (v *DeltaVerifier) ReRank(n Node, paths ...Path) error {
	if n == "" {
		return fmt.Errorf("spp %s: rerank of empty node name", v.in.Name)
	}
	for _, p := range paths {
		if err := v.ix.validatePath(v.in.Name, n, p, true); err != nil {
			return err
		}
	}
	v.scratch = nil
	old, ranked := v.in.Permitted[n]
	fresh := clonePaths(paths)
	v.recount(old, fresh)
	v.onRollback(func() { v.recount(fresh, old) })
	for _, p := range fresh {
		if o := p[len(p)-1]; !v.ix.origins[o] {
			v.ix.origins[o] = true
			v.in.Origins = append(v.in.Origins, o)
			v.onRollback(func() {
				delete(v.ix.origins, o)
				v.in.Origins = v.in.Origins[:len(v.in.Origins)-1]
			})
		}
	}
	ni, known := v.ix.nodes[n]
	if !known {
		ni = v.declareNode(n)
	}
	v.in.Permitted[n] = fresh
	v.onRollback(func() {
		if ranked {
			v.in.Permitted[n] = old
		} else {
			delete(v.in.Permitted, n)
		}
	})
	return v.refresh(ni)
}

// DropSession removes the bidirectional session a↔b, prunes every permitted
// path crossing it (the operational reading of a session failure), and
// refreshes the segments of the pruned nodes. Removing a session that does
// not exist is an error.
func (v *DeltaVerifier) DropSession(a, b Node) error {
	var idx []int
	for i, l := range v.in.Links {
		if (l.From == a && l.To == b) || (l.From == b && l.To == a) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return fmt.Errorf("spp %s: no session %s↔%s", v.in.Name, a, b)
	}
	v.scratch = nil
	// Link positions shift, so the incident lists are rebuilt — here, and
	// by the inverse logged first, which runs once the links are back.
	reindex := func() { v.incident = incidentLinks(v.in, v.ix.nodes) }
	v.onRollback(reindex)
	// Remove link segments and links together, descending so earlier
	// indices stay valid.
	for k := len(idx) - 1; k >= 0; k-- {
		i, l := idx[k], v.in.Links[idx[k]]
		if err := v.removeSeg(len(v.in.Nodes) + i); err != nil {
			return err
		}
		v.in.Links = slices.Delete(v.in.Links, i, i+1)
		delete(v.ix.links, l)
		v.onRollback(func() {
			v.in.Links = slices.Insert(v.in.Links, i, l)
			v.ix.links[l] = true
		})
	}
	reindex()
	for _, l := range [2]Link{{a, b}, {b, a}} {
		v.setCost(l, 0)
	}

	crosses := func(p Path) bool {
		for i := 0; i+2 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
	var pruned []int32
	for ni, n := range v.in.Nodes {
		old := v.in.Permitted[n]
		if !slices.ContainsFunc(old, crosses) {
			continue
		}
		kept := make([]Path, 0, len(old)-1)
		for _, p := range old {
			if !crosses(p) {
				kept = append(kept, p)
			}
		}
		v.recount(old, kept)
		v.in.Permitted[n] = kept
		v.onRollback(func() {
			v.recount(kept, old)
			v.in.Permitted[n] = old
		})
		pruned = append(pruned, int32(ni))
	}
	return v.refresh(pruned...)
}

// AddSession adds the bidirectional session a↔b with an optional IGP cost,
// declaring new nodes like Instance.AddSession. The new links' monotonicity
// segments start empty (no permitted path can reference a link that did not
// exist); a follow-up ReRank introduces paths over the session.
func (v *DeltaVerifier) AddSession(a, b Node, cost int) error {
	if a == b || a == "" || b == "" {
		return fmt.Errorf("spp %s: invalid session %s↔%s", v.in.Name, a, b)
	}
	if v.ix.links[Link{a, b}] || v.ix.links[Link{b, a}] {
		return fmt.Errorf("spp %s: session %s↔%s already exists", v.in.Name, a, b)
	}
	v.scratch = nil
	var ends [2]int32
	for i, n := range [2]Node{a, b} {
		ni, known := v.ix.nodes[n]
		if !known {
			ni = v.declareNode(n)
		}
		ends[i] = ni
	}
	first := int32(len(v.in.Links))
	for _, l := range [2]Link{{a, b}, {b, a}} {
		v.in.Links = append(v.in.Links, l)
		v.ix.links[l] = true
		if cost != 0 {
			v.setCost(l, cost)
		}
	}
	for _, ni := range ends {
		v.incident[ni] = append(v.incident[ni], first, first+1)
	}
	v.onRollback(func() {
		for _, ni := range ends {
			v.incident[ni] = v.incident[ni][:len(v.incident[ni])-2]
		}
		for _, l := range v.in.Links[first:] {
			delete(v.ix.links, l)
		}
		v.in.Links = v.in.Links[:first]
	})
	ra, rb := naturalRanking(v.in.Permitted[a]), naturalRanking(v.in.Permitted[b])
	if err := v.insertSeg(len(v.in.Nodes)+int(first), linkSeg(Link{a, b}, ra, rb)); err != nil {
		return err
	}
	return v.insertSeg(len(v.in.Nodes)+int(first)+1, linkSeg(Link{b, a}, rb, ra))
}

// refresh regenerates the preference segment of every touched node (by
// position in Nodes) and the monotonicity segment of every link incident to
// one, in ascending segment order with one running constraint offset. It
// runs after all ranking mutations of an operation, so each segment is
// regenerated from the final rankings. Between touched segments only
// segLen is read.
func (v *DeltaVerifier) refresh(touched ...int32) error {
	nn := len(v.in.Nodes)
	var segs []int
	for _, ni := range touched {
		segs = append(segs, int(ni))
		for _, li := range v.incident[ni] {
			segs = append(segs, nn+int(li))
		}
	}
	slices.Sort(segs)
	segs = slices.Compact(segs)

	// Each endpoint's names are rendered once per refresh, however many
	// touched segments share it.
	rankings := map[Node]ranking{}
	rankingOf := func(n Node) ranking {
		r, ok := rankings[n]
		if !ok {
			r = naturalRanking(v.in.Permitted[n])
			rankings[n] = r
		}
		return r
	}
	off, next := 0, 0
	for _, id := range segs {
		for ; next < id; next++ {
			off += v.segLen[next]
		}
		var seg []analysis.Constraint
		if id < nn {
			r := rankingOf(v.in.Nodes[id])
			seg = make([]analysis.Constraint, max(len(r.paths)-1, 0))
			prefSeg(seg, r)
		} else {
			l := v.in.Links[id-nn]
			seg = linkSeg(l, rankingOf(l.From), rankingOf(l.To))
		}
		if err := v.setSeg(id, off, seg); err != nil {
			return err
		}
	}
	return nil
}

// linkSeg generates one directed link's monotonicity segment from its
// endpoints' current rankings.
func linkSeg(l Link, from, to ranking) []analysis.Constraint {
	ms := appendMatches(nil, 0, l.From, from.paths, to.paths)
	seg := make([]analysis.Constraint, len(ms))
	monoSeg(seg, l, ms, from, to)
	return seg
}

// declareNode appends a real node with an empty preference segment (an
// undeclared node cannot have a ranking yet) and returns its position.
// Links may already name it, so its incident list takes a scan of Links.
func (v *DeltaVerifier) declareNode(n Node) int32 {
	id := len(v.in.Nodes)
	var links []int32
	for li, l := range v.in.Links {
		if l.From == n || l.To == n {
			links = append(links, int32(li))
		}
	}
	v.ix.nodes[n] = int32(id)
	v.in.Nodes = append(v.in.Nodes, n)
	v.incident = append(v.incident, links)
	v.segLen = slices.Insert(v.segLen, id, 0)
	v.onRollback(func() {
		delete(v.ix.nodes, n)
		v.in.Nodes = v.in.Nodes[:id]
		v.incident = v.incident[:id]
		v.segLen = slices.Delete(v.segLen, id, id+1)
	})
	return int32(id)
}

// setCost annotates a link with an IGP cost; zero removes the annotation.
func (v *DeltaVerifier) setCost(l Link, cost int) {
	old := v.in.Cost[l]
	if cost == old {
		return
	}
	if cost == 0 {
		delete(v.in.Cost, l)
	} else {
		v.in.Cost[l] = cost
	}
	v.onRollback(func() { v.setCost(l, old) })
}

// --- segment bookkeeping ---

func (v *DeltaVerifier) segOffset(id int) int {
	off := 0
	for i := 0; i < id; i++ {
		off += v.segLen[i]
	}
	return off
}

// setSeg replaces the constraints of segment id, which start at offset off,
// splicing the solver context only when the content actually changed.
func (v *DeltaVerifier) setSeg(id, off int, fresh []analysis.Constraint) error {
	old := v.cons[off : off+v.segLen[id]]
	if slices.Equal(old, fresh) {
		return nil
	}
	if err := v.dc.Splice(off, len(old), assertsOf(fresh)); err != nil {
		return err
	}
	if v.inTx {
		saved := slices.Clone(old)
		v.undo = append(v.undo, func() { v.putSeg(id, off, len(fresh), saved) })
	}
	v.putSeg(id, off, len(old), fresh)
	return nil
}

// putSeg writes seg over the n constraints of segment id at offset off, in
// place: a segment that keeps its length touches only its own entries.
func (v *DeltaVerifier) putSeg(id, off, n int, seg []analysis.Constraint) {
	if len(seg) == n {
		copy(v.cons[off:], seg)
	} else {
		v.cons = slices.Replace(v.cons, off, off+n, seg...)
	}
	if id < len(v.in.Nodes) {
		v.numPref += len(seg) - n
	}
	v.segLen[id] = len(seg)
}

// insertSeg inserts a new segment at id.
func (v *DeltaVerifier) insertSeg(id int, fresh []analysis.Constraint) error {
	v.segLen = slices.Insert(v.segLen, id, 0)
	v.onRollback(func() { v.segLen = slices.Delete(v.segLen, id, id+1) })
	return v.setSeg(id, v.segOffset(id), fresh)
}

// removeSeg deletes segment id.
func (v *DeltaVerifier) removeSeg(id int) error {
	if err := v.setSeg(id, v.segOffset(id), nil); err != nil {
		return err
	}
	v.segLen = slices.Delete(v.segLen, id, id+1)
	v.onRollback(func() { v.segLen = slices.Insert(v.segLen, id, 0) })
	return nil
}

// recount moves the collision counters from one ranking to another; its own
// inverse with the arguments exchanged.
func (v *DeltaVerifier) recount(out, in []Path) {
	for _, p := range out {
		v.countPath(p, -1)
	}
	for _, p := range in {
		v.countPath(p, +1)
	}
}

// countPath tracks rendering and variable-name multiplicity as paths come
// and go, maintaining the degradation counters.
func (v *DeltaVerifier) countPath(p Path, d int) {
	sym := sigName(p)
	bump := func(m map[string]int, key string, dup *int) {
		old := m[key]
		nw := old + d
		if nw == 0 {
			delete(m, key)
		} else {
			m[key] = nw
		}
		if old <= 1 && nw >= 2 {
			*dup++
		} else if old >= 2 && nw <= 1 {
			*dup--
		}
	}
	bump(v.symCount, sym, &v.dupSyms)
	bump(v.nameCount, string(analysis.VarName(sym)), &v.dupNames)
}

// --- helpers ---

func assertsOf(cons []analysis.Constraint) []smt.Assertion {
	out := make([]smt.Assertion, len(cons))
	for i := range cons {
		out[i] = cons[i].Assertion
	}
	return out
}

func clonePaths(paths []Path) []Path {
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = append(Path(nil), p...)
	}
	return out
}
