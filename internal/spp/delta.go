// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. A DeltaVerifier keeps the instance's constraint
// system resident in the solver's own form — two variable ids per
// constraint, no provenance, no names — organized as one segment per node
// (its pairwise preference chain) followed by one segment per directed link
// (its ⊕ monotonicity entries), exactly the order §IV-B constraint
// generation produces, over the ids of the verifier's one name table. An
// edit looks up only the paths it is handed, regenerates only the segments
// whose content is a function of the touched rankings — reached through the
// node's position and its incident-link list, rendering nothing — and
// replaces them in a warm smt.DeltaContext, which re-probes only the
// dispute-digraph region those constraints reach. When that region holds a
// dispute, the solver decides the exact core from the region alone (the
// argument, with its proof obligation, heads internal/smt/delta.go), and
// Verify renders just the core's members through prefSeg and monoSeg, as
// Analyze does, so an unsafe answer costs its dispute, not the instance.
//
// A what-if that is not kept costs its edit, not the instance: between
// Begin and Rollback every mutation — of the instance, the topology index,
// the name table and its counts — logs its inverse, the solver context
// journals its own segments, and Rollback runs both backwards, leaving the
// verifier as Begin found it. Nothing is copied up front.
//
// Correctness is anchored to the full pipeline, not argued independently:
// the resident system is what the emitter's prefSeg and monoSeg assert,
// position for position, under the natural naming, tests enforce
// bit-for-bit parity against VerifyFull — after edits, inside transactions
// and after rolling them back — and any instance the natural naming does
// not fit — a name held by two paths (a duplicate permitted path, or two
// renderings sanitized to one name) or a label by two links — flips the
// verifier into degraded mode, where Verify analyses the instance from
// scratch instead.

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
	in      *Instance
	dc      *smt.DeltaContext
	algebra string // the result's Algebra: the instance's name never changes

	// ix answers node, origin and link membership for edit validation; a
	// node's position is also its preference segment id, and incident[pos]
	// lists the links (by position in Links) whose monotonicity segments
	// read the node's ranking. Both are maintained across edits.
	ix       *topoIndex
	incident [][]int32

	// The delta context's segments are first one per node (in Nodes
	// order), then one per directed link (in Links order). numPref is the
	// node segments' total.
	numPref int

	// The name table, the one place a solver variable has a name: ids maps
	// a name to its id, names and refs hold by id the name and the number
	// of permitted paths holding it (id 0 is the solver's zero anchor), and
	// ranks[pos] is node pos's ranking as ids. A name nothing holds keeps
	// its id. held counts the names some path holds, dupNames those two or
	// more paths hold: the collision counter.
	ids      map[string]int32
	names    []smt.Var
	refs     []int32
	ranks    [][]int32
	held     int
	dupNames int

	// labelCount counts links per label, dupLabels the labels two links
	// share. Any clash makes the naturally named resident system the wrong
	// one to answer from, so Verify analyses from scratch until edits
	// resolve it.
	labelCount map[string]int
	dupLabels  int

	// scratch is the witness of the last from-scratch Verify, for Model;
	// any edit drops it.
	scratch map[string]int

	// Scratch: refresh's segments, atoms and matches, ReRank's rendering.
	segs    []int
	atoms   []smt.DenseConstraint
	matches []linkMatch
	buf     []byte

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
	p := new(shardPrep)
	err := buildShardPrep(p, cp)
	if err != nil {
		return nil, err
	}
	p.name(false) // natural names: the verifier counts collisions itself
	v := &DeltaVerifier{
		in:         cp,
		algebra:    "spp-" + cp.Name,
		ix:         indexInstance(cp),
		numPref:    int(p.totalPref()),
		ids:        make(map[string]int32, p.nPaths),
		names:      append(make([]smt.Var, 0, p.nPaths+1), ""),
		refs:       append(make([]int32, 0, p.nPaths+1), 0),
		ranks:      make([][]int32, len(cp.Nodes)),
		labelCount: map[string]int{},
	}
	v.incident = incidentLinks(cp, v.ix.nodes)
	// The table is the prep's interned names, in global path order; one
	// backing array holds every ranking (replaced whole, never appended to).
	byPath := make([]int32, p.nPaths)
	for g, name := range p.vars {
		id, ok := v.ids[string(name)]
		if !ok {
			id = v.intern(name)
		}
		byPath[g] = id
		v.hold(id, +1)
	}
	for ni := range v.ranks {
		lo, hi := p.pathOff[ni], p.pathOff[ni+1]
		v.ranks[ni] = byPath[lo:hi:hi]
	}
	for _, l := range cp.Links {
		v.countLabel(l, +1)
	}
	// The canonical emission order: every node's preference chain, then
	// the matches, which are in link order.
	atoms := make([]smt.DenseConstraint, 0, p.total())
	for _, ids := range v.ranks {
		atoms = prefAtoms(atoms, ids)
	}
	for _, m := range p.matches {
		from, to := v.ranks[p.linkEnds[2*m.li]], v.ranks[p.linkEnds[2*m.li+1]]
		atoms = append(atoms, smt.DenseConstraint{A: to[m.tq], B: from[m.fq]})
	}
	if v.dc, err = smt.NewDeltaContext(len(v.names)-1, atoms, p.segLens()); err != nil {
		return nil, err
	}
	return v, nil
}

// prefAtoms appends what prefSeg asserts on each adjacent pair of a
// ranking's ids: the ranked list as strict pairwise preferences.
func prefAtoms(dst []smt.DenseConstraint, ids []int32) []smt.DenseConstraint {
	for i := 1; i < len(ids); i++ {
		dst = append(dst, smt.DenseConstraint{A: ids[i-1], B: ids[i]})
	}
	return dst
}

// Name returns the instance name.
func (v *DeltaVerifier) Name() string { return v.in.Name }

// Snapshot returns a deep copy of the verifier's current instance.
func (v *DeltaVerifier) Snapshot() *Instance { return v.in.Clone() }

// Size returns the instance's node and session counts.
func (v *DeltaVerifier) Size() (nodes, sessions int) {
	// Links stores both directions of every session.
	return len(v.in.Nodes), len(v.in.Links) / 2
}

// Degraded reports whether the resident system is the wrong one to answer
// from for the current instance (a name or link-label clash) and Verify is
// analysing from scratch.
func (v *DeltaVerifier) Degraded() bool { return v.dupNames > 0 || v.dupLabels > 0 }

// DeltaStats returns the underlying solver's delta statistics.
func (v *DeltaVerifier) DeltaStats() smt.DeltaStats { return v.dc.Stats() }

// Clone returns an independent copy, including the warm solver state, taken
// outside any transaction. What-ifs roll back instead; only the benchmark's
// frozen replay still clones. Rankings are replaced whole, never written in
// place, so the copy shares their id slices.
func (v *DeltaVerifier) Clone() *DeltaVerifier {
	c := &DeltaVerifier{
		in:      v.in.Clone(),
		dc:      v.dc.Clone(),
		algebra: v.algebra,
		ix: &topoIndex{
			nodes:   maps.Clone(v.ix.nodes),
			origins: maps.Clone(v.ix.origins),
			links:   maps.Clone(v.ix.links),
		},
		numPref:    v.numPref,
		ids:        maps.Clone(v.ids),
		names:      slices.Clone(v.names),
		refs:       slices.Clone(v.refs),
		ranks:      slices.Clone(v.ranks),
		held:       v.held,
		dupNames:   v.dupNames,
		labelCount: maps.Clone(v.labelCount),
		dupLabels:  v.dupLabels,
		scratch:    v.scratch,
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
	scratch, numPref := v.scratch, v.numPref
	v.onRollback(func() { v.scratch, v.numPref = scratch, numPref })
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

// Journal reports the open transaction's size: solver segments replaced,
// and undo entries in all, across both layers.
func (v *DeltaVerifier) Journal() (splices, entries int) {
	splices, entries = v.dc.Journal()
	return splices, entries + len(v.undo)
}

// fromScratch reports that the instance is Analyze's to decide: a name
// clash needs the suffixed variables or is the duplicate-path error, and a
// label clash or a degenerate instance (no links, or no permitted paths at
// all) the error a fresh analysis reports.
func (v *DeltaVerifier) fromScratch() bool {
	return v.dupLabels > 0 || v.dupNames > 0 || len(v.in.Links) == 0 || v.held == 0
}

// Verify decides strict monotonicity for the current instance on the delta
// path (from scratch when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the contract of
// Session.AnalyzeSPP, except that a safe result carries no model: Model
// renders the witness for the caller that wants it.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	if v.fromScratch() {
		res, suspects, err := Analyze(ctx, v.in)
		v.scratch, res.Model = res.Model, nil
		return res, suspects, err
	}
	out, err := v.dc.Check(ctx)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:         v.algebra,
		Condition:       analysis.StrictMonotonicity,
		Sat:             out.Sat,
		Stats:           out.Stats,
		NumPreference:   v.numPref,
		NumMonotonicity: v.dc.Len() - v.numPref,
	}
	if out.Sat {
		return res, nil, nil
	}
	res.Core, res.CoreIdx = make([]analysis.Constraint, len(out.CoreIdx)), out.CoreIdx
	suspects := make([]Node, len(out.CoreIdx))
	for k, pos := range out.CoreIdx {
		res.Core[k], suspects[k] = v.coreMember(pos)
	}
	slices.Sort(suspects)
	return res, slices.Compact(suspects), nil
}

// coreMember renders the constraint at a position of the canonical emission
// order — an unsat core's member — through prefSeg or monoSeg on just the
// paths it names, and returns the §VI-B suspect it implicates: the node
// whose ranking a preference orders, or the tail of a monotonicity entry's
// link, owner of the extended path. A monotonicity member's ranks are found
// by its resident atom's two ids.
func (v *DeltaVerifier) coreMember(pos int) (analysis.Constraint, Node) {
	seg, k := v.dc.Locate(pos)
	if nn := len(v.in.Nodes); seg >= nn {
		l := v.in.Links[seg-nn]
		a := v.dc.At(seg, k)
		fi, ti := v.ix.nodes[l.From], v.ix.nodes[l.To]
		fq, tq := slices.Index(v.ranks[fi], a.B), slices.Index(v.ranks[ti], a.A)
		return monoSeg(l, v.rankSlice(fi, fq, fq+1), v.rankSlice(ti, tq, tq+1)), l.From
	}
	return prefSeg(v.rankSlice(int32(seg), k, k+2)), v.in.Nodes[seg]
}

// rankSlice is ranks [lo,hi) of node position ni, its solver variables
// read from the table.
func (v *DeltaVerifier) rankSlice(ni int32, lo, hi int) ranking {
	r := ranking{paths: v.in.Permitted[v.in.Nodes[ni]][lo:hi], vars: make([]smt.Var, hi-lo)}
	for i := range r.vars {
		r.vars[i] = v.names[v.ranks[ni][lo+i]]
	}
	return r
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
	out := make(map[string]int, v.held)
	for id, val := range m {
		if val != 0 { // an id no constraint references
			out[string(v.names[id])] = val
		}
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
// ranking is rejected without mutating anything. Each path's name is looked
// up in the table, rendered into a scratch buffer; only a name the table has
// never held is allocated.
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
	fresh := clonePaths(paths)
	ids := make([]int32, len(fresh))
	for i, q := range fresh {
		v.buf = appendVar(v.buf[:0], q)
		id, ok := v.ids[string(v.buf)]
		if !ok {
			id = v.intern(smt.Var(v.buf))
		}
		ids[i] = id
	}
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
	v.rank(ni, true, fresh, ids)
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
		if err := v.dc.RemoveSeg(len(v.in.Nodes) + i); err != nil {
			return err
		}
		v.in.Links = slices.Delete(v.in.Links, i, i+1)
		delete(v.ix.links, l)
		v.countLabel(l, -1)
		v.onRollback(func() {
			v.in.Links = slices.Insert(v.in.Links, i, l)
			v.ix.links[l] = true
			v.countLabel(l, +1)
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
		ids := make([]int32, 0, len(old)-1)
		for r, p := range old {
			if !crosses(p) {
				kept = append(kept, p)
				ids = append(ids, v.ranks[ni][r])
			}
		}
		v.rank(int32(ni), true, kept, ids)
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
		v.countLabel(l, +1)
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
			v.countLabel(l, -1)
		}
		v.in.Links = v.in.Links[:first]
	})
	for id := len(v.in.Nodes) + int(first); id < len(v.in.Nodes)+len(v.in.Links); id++ {
		if err := v.dc.InsertSeg(id); err != nil {
			return err
		}
		if err := v.setSeg(id, v.segAtoms(nil, id)); err != nil {
			return err
		}
	}
	return nil
}

// refresh regenerates the preference segment of every touched node (by
// position in Nodes) and the monotonicity segment of every link incident to
// one. It runs after all ranking mutations of an operation, so each segment
// is regenerated from the final rankings.
func (v *DeltaVerifier) refresh(touched ...int32) error {
	nn := len(v.in.Nodes)
	segs := v.segs[:0]
	for _, ni := range touched {
		segs = append(segs, int(ni))
		for _, li := range v.incident[ni] {
			segs = append(segs, nn+int(li))
		}
	}
	slices.Sort(segs)
	v.segs = slices.Compact(segs)
	for _, id := range v.segs {
		v.atoms = v.segAtoms(v.atoms[:0], id)
		if err := v.setSeg(id, v.atoms); err != nil {
			return err
		}
	}
	return nil
}

// segAtoms appends what segment id asserts under the current rankings, over
// their ids: a node's preference chain, or a directed link's monotonicity
// entries — each permitted extension ranks strictly below the path it
// extends.
func (v *DeltaVerifier) segAtoms(dst []smt.DenseConstraint, id int) []smt.DenseConstraint {
	nn := len(v.in.Nodes)
	if id < nn {
		return prefAtoms(dst, v.ranks[id])
	}
	l := v.in.Links[id-nn]
	fi, okF := v.ix.nodes[l.From]
	ti, okT := v.ix.nodes[l.To]
	if !okF || !okT { // an undeclared end has no ranking
		return dst
	}
	v.matches = appendMatches(v.matches[:0], 0, l.From, v.in.Permitted[l.From], v.in.Permitted[l.To])
	for _, m := range v.matches {
		dst = append(dst, smt.DenseConstraint{A: v.ranks[ti][m.tq], B: v.ranks[fi][m.fq]})
	}
	return dst
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
	v.ranks = append(v.ranks, nil)
	if err := v.dc.InsertSeg(id); err != nil {
		panic(err) // id is the node segments' count
	}
	v.onRollback(func() {
		delete(v.ix.nodes, n)
		v.in.Nodes = v.in.Nodes[:id]
		v.incident = v.incident[:id]
		v.ranks = v.ranks[:id]
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

// setSeg replaces the atoms of segment id in the solver context, which
// leaves a segment given its own content alone.
func (v *DeltaVerifier) setSeg(id int, fresh []smt.DenseConstraint) error {
	old := v.dc.SegLen(id)
	changed, err := v.dc.SetSeg(id, fresh)
	if changed && id < len(v.in.Nodes) {
		v.numPref += len(fresh) - old
	}
	return err
}

// rank installs a ranking at node position ni — its paths in the instance
// (ranked false removes the node's ranking), its ids in ranks — and moves
// the table's counts from the ranking it replaces, which it logs.
func (v *DeltaVerifier) rank(ni int32, ranked bool, paths []Path, ids []int32) {
	n := v.in.Nodes[ni]
	old, wasRanked := v.in.Permitted[n]
	oldIDs := v.ranks[ni]
	v.onRollback(func() { v.rank(ni, wasRanked, old, oldIDs) })
	for _, id := range oldIDs {
		v.hold(id, -1)
	}
	for _, id := range ids {
		v.hold(id, +1)
	}
	if ranked {
		v.in.Permitted[n] = paths
	} else {
		delete(v.in.Permitted, n)
	}
	v.ranks[ni] = ids
}

// intern adds a name to the table, held by nothing yet, and returns its id.
func (v *DeltaVerifier) intern(name smt.Var) int32 {
	id := int32(len(v.names))
	v.ids[string(name)] = id
	v.names = append(v.names, name)
	v.refs = append(v.refs, 0)
	v.onRollback(func() {
		delete(v.ids, string(name))
		v.names[id] = ""
		v.names, v.refs = v.names[:id], v.refs[:id]
	})
	return id
}

// hold moves the number of paths holding name id by d (±1).
func (v *DeltaVerifier) hold(id, d int32) {
	old, nw := v.refs[id], v.refs[id]+d
	v.refs[id] = nw
	v.held += crossed(old, nw, 1)
	v.dupNames += crossed(old, nw, 2)
}

// countLabel tracks link-label multiplicity as links come and go: ToAlgebra
// names a link's label after its ends joined, so a↔bc and ab↔c clash.
func (v *DeltaVerifier) countLabel(l Link, d int) {
	key := string(l.From) + string(l.To)
	old, nw := v.labelCount[key], v.labelCount[key]+d
	if nw == 0 {
		delete(v.labelCount, key)
	} else {
		v.labelCount[key] = nw
	}
	v.dupLabels += int(crossed(int32(old), int32(nw), 2))
}

// crossed is how a count's move from old to nw changes the counts ≥ at.
func crossed(old, nw, at int32) int {
	switch {
	case old < at && nw >= at:
		return 1
	case old >= at && nw < at:
		return -1
	}
	return 0
}

// --- helpers ---

// clonePaths copies a ranking into one backing array, each path capped at
// its length: two allocations however many paths it holds.
func clonePaths(paths []Path) []Path {
	hops := 0
	for _, p := range paths {
		hops += len(p)
	}
	flat := make(Path, 0, hops)
	out := make([]Path, len(paths))
	for i, p := range paths {
		if len(p) > 0 { // an empty path stays nil, as append(nil, p...) has it
			flat = append(flat, p...)
			out[i] = flat[len(flat)-len(p) : len(flat) : len(flat)]
		}
	}
	return out
}
