// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. A DeltaVerifier keeps the instance's constraint
// system resident in the solver's own form — two variable names per
// constraint, no provenance — organized as one segment per node (its
// pairwise preference chain) followed by one segment per directed link (its
// ⊕ monotonicity entries), exactly the order §IV-B constraint generation
// produces. An edit regenerates only the segments whose content is a
// function of the touched rankings, reached through the node's position and
// its incident-link list rather than a scan of the instance, and replaces
// them in a warm smt.DeltaContext, which re-probes only the dispute-digraph
// region those constraints reach. When that region holds a dispute, the
// solver decides the exact core from the region alone (the argument, with
// its proof obligation, heads internal/smt/delta.go), and Verify renders
// just the core's members — through prefSeg and monoSeg on the two or three
// rankings a dispute involves, as Analyze does — so an unsafe answer costs
// its dispute, not the instance.
//
// A what-if that is not kept costs its edit, not the instance: between
// Begin and Rollback every mutation — of the instance, the topology index,
// the collision counters — logs its inverse, the solver context journals
// its own segments, and Rollback runs both backwards, leaving the verifier
// as Begin found it. Nothing is copied up front.
//
// Correctness is anchored to the full pipeline, not argued independently:
// the resident system is what the batch emitter's two segment functions
// (prefSeg, monoSeg) assert under the natural naming, tests enforce
// bit-for-bit parity against VerifyFull — after edits, inside transactions
// and after rolling them back — and any instance the natural naming does
// not fit — signature-rendering or link-label collisions, duplicate
// permitted paths — flips the verifier into degraded mode, where Verify
// analyses the instance from scratch instead.

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

	// The delta context's segments are first one per node (in Nodes
	// order), then one per directed link (in Links order). numPref is the
	// node segments' total.
	numPref int

	// symCount counts permitted paths per signature rendering, nameCount
	// per sanitized solver-variable name, labelCount links per label. Any
	// rendering shared by two paths or label by two links (ToAlgebra
	// errors) or any name collision (where the full pipeline would suffix)
	// makes the naturally named resident system the wrong one to answer
	// from, so a nonzero dup count degrades Verify to a from-scratch
	// analysis until edits resolve the clash.
	symCount   map[string]int
	nameCount  map[string]int
	labelCount map[string]int
	dupSyms    int
	dupNames   int
	dupLabels  int

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
	p := new(shardPrep)
	err := buildShardPrep(p, cp)
	if err != nil {
		return nil, err
	}
	v := &DeltaVerifier{
		in:         cp,
		ix:         indexInstance(cp),
		numPref:    int(p.totalPref()),
		symCount:   map[string]int{},
		nameCount:  map[string]int{},
		labelCount: map[string]int{},
	}
	v.incident = incidentLinks(cp, v.ix.nodes)
	for _, paths := range p.perms {
		for _, q := range paths {
			v.countPath(q, +1)
		}
	}
	for _, l := range cp.Links {
		v.countLabel(l, +1)
	}
	// The canonical emission order, in the prep's interned names: every
	// node's preference chain, then the matches, which are in link order.
	atoms := make([]smt.Less, 0, p.total())
	for ni := range p.perms {
		atoms = prefAsserts(atoms, p.vars[p.pathOff[ni]:p.pathOff[ni+1]])
	}
	for _, m := range p.matches {
		from, to := p.pathOff[p.linkEnds[2*m.li]], p.pathOff[p.linkEnds[2*m.li+1]]
		atoms = append(atoms, smt.Less{A: p.vars[to+m.tq], B: p.vars[from+m.fq]})
	}
	if v.dc, err = smt.NewDeltaContext(atoms, p.segLens()); err != nil {
		return nil, err
	}
	return v, nil
}

// prefAsserts appends what prefSeg asserts over a ranking's variables: the
// ranked list as strict pairwise preferences.
func prefAsserts(dst []smt.Less, vars []smt.Var) []smt.Less {
	for i := 1; i < len(vars); i++ {
		dst = append(dst, smt.Less{A: vars[i-1], B: vars[i]})
	}
	return dst
}

// monoAsserts appends what monoSeg asserts for a link's matches over its
// endpoints' variables: each permitted extension ranks strictly below the
// path it extends.
func monoAsserts(dst []smt.Less, ms []linkMatch, from, to []smt.Var) []smt.Less {
	for _, m := range ms {
		dst = append(dst, smt.Less{A: to[m.tq], B: from[m.fq]})
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
// from for the current instance (rendering or link-label collision,
// duplicate permitted path) and Verify is analysing from scratch.
func (v *DeltaVerifier) Degraded() bool { return v.dupSyms > 0 || v.dupNames > 0 || v.dupLabels > 0 }

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
		numPref:    v.numPref,
		symCount:   maps.Clone(v.symCount),
		nameCount:  maps.Clone(v.nameCount),
		labelCount: maps.Clone(v.labelCount),
		dupSyms:    v.dupSyms,
		dupNames:   v.dupNames,
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
// collision needs the suffixed variables, and a label clash or a degenerate
// instance (no links, or no permitted paths at all) the error a fresh
// analysis reports.
func (v *DeltaVerifier) fromScratch() bool {
	return v.dupLabels > 0 || v.dupNames > 0 || len(v.in.Links) == 0 || len(v.symCount) == 0
}

// Verify decides strict monotonicity for the current instance on the delta
// path (from scratch when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the contract of
// Session.AnalyzeSPP, except that a safe result carries no model: Model
// renders the witness for the caller that wants it.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	if v.dupSyms > 0 && v.dupLabels == 0 { // a label clash is reported first
		return analysis.Result{}, nil, duplicatePath(v.in)
	}
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
		Algebra:         "spp-" + v.in.Name,
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
	var suspects []Node
	for k, pos := range out.CoreIdx {
		suspects = append(suspects, v.coreMember(res.Core[k:k+1], pos))
	}
	slices.Sort(suspects)
	return res, slices.Compact(suspects), nil
}

// coreMember renders the constraint at a position of the canonical emission
// order — an unsat core's member — into out, a single-slot segment, through
// prefSeg or monoSeg on just the paths it names, and returns the §VI-B
// suspect it implicates: the node whose ranking a preference orders, or the
// tail of a monotonicity entry's link, owner of the extended path.
func (v *DeltaVerifier) coreMember(out []analysis.Constraint, pos int) Node {
	seg, k := v.dc.Locate(pos)
	if nn := len(v.in.Nodes); seg >= nn {
		l := v.in.Links[seg-nn]
		from, to := v.in.Permitted[l.From], v.in.Permitted[l.To]
		m := appendMatches(nil, 0, l.From, from, to)[k]
		monoSeg(out, l, []linkMatch{{}}, naturalRanking(from[m.fq:m.fq+1]), naturalRanking(to[m.tq:m.tq+1]))
		return l.From
	}
	n := v.in.Nodes[seg]
	prefSeg(out, naturalRanking(v.in.Permitted[n][k:k+2]))
	return n
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
		if err := v.setSeg(id, v.segAsserts(nil, id, v.rankVars)); err != nil {
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
	rendered := map[Node][]smt.Var{}
	varsOf := func(n Node) []smt.Var {
		vars, ok := rendered[n]
		if !ok {
			vars = v.rankVars(n)
			rendered[n] = vars
		}
		return vars
	}
	var seg []smt.Less
	for _, id := range segs {
		seg = v.segAsserts(seg[:0], id, varsOf)
		if err := v.setSeg(id, seg); err != nil {
			return err
		}
	}
	return nil
}

// rankVars renders the solver variables of a node's ranking under the
// natural naming, by rank.
func (v *DeltaVerifier) rankVars(n Node) []smt.Var {
	paths := v.in.Permitted[n]
	vars := make([]smt.Var, len(paths))
	var buf []byte
	for i, q := range paths {
		vars[i], buf = renderVar(buf, q)
	}
	return vars
}

// segAsserts appends what segment id asserts under the current rankings:
// a node's preference chain, or a directed link's monotonicity entries.
func (v *DeltaVerifier) segAsserts(dst []smt.Less, id int, varsOf func(Node) []smt.Var) []smt.Less {
	nn := len(v.in.Nodes)
	if id < nn {
		return prefAsserts(dst, varsOf(v.in.Nodes[id]))
	}
	l := v.in.Links[id-nn]
	ms := appendMatches(nil, 0, l.From, v.in.Permitted[l.From], v.in.Permitted[l.To])
	return monoAsserts(dst, ms, varsOf(l.From), varsOf(l.To))
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
	if err := v.dc.InsertSeg(id); err != nil {
		panic(err) // id is the node segments' count
	}
	v.onRollback(func() {
		delete(v.ix.nodes, n)
		v.in.Nodes = v.in.Nodes[:id]
		v.incident = v.incident[:id]
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

// setSeg replaces the assertions of segment id in the solver context,
// which leaves a segment given its own content alone.
func (v *DeltaVerifier) setSeg(id int, fresh []smt.Less) error {
	old := v.dc.SegLen(id)
	changed, err := v.dc.SetSeg(id, fresh)
	if changed && id < len(v.in.Nodes) {
		v.numPref += len(fresh) - old
	}
	return err
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
	bump(v.symCount, sym, d, &v.dupSyms)
	bump(v.nameCount, string(analysis.VarName(sym)), d, &v.dupNames)
}

// countLabel tracks link-label multiplicity as links come and go: ToAlgebra
// names a link's label after its ends joined, so a↔bc and ab↔c clash.
func (v *DeltaVerifier) countLabel(l Link, d int) {
	bump(v.labelCount, string(l.From)+string(l.To), d, &v.dupLabels)
}

// bump adds d to a key's multiplicity and keeps dup, the number of keys held
// more than once, in step.
func bump(m map[string]int, key string, d int, dup *int) {
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

// --- helpers ---

func clonePaths(paths []Path) []Path {
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = append(Path(nil), p...)
	}
	return out
}
