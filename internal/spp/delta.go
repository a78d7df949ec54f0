// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. A DeltaVerifier keeps the instance's full
// constraint list resident — organized as one segment per node (its
// pairwise preference chain) followed by one segment per directed link (its
// ⊕ monotonicity entries), exactly the order §IV-B constraint generation
// produces — so an edit regenerates only the segments whose content is a
// function of the touched rankings and splices them into a warm
// smt.DeltaContext. The solver then re-probes only the dispute-digraph
// region those constraints reach.
//
// Correctness is anchored to the full pipeline, not argued independently:
// the resident list is built by the batch emitter and patched with the same
// two segment functions (prefSeg, monoSeg) under the natural naming, tests
// enforce bit-for-bit parity against VerifyFull, and any instance the
// natural naming does not fit — signature-rendering collisions, duplicate
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
	// node's position is also its preference segment id. It is maintained
	// across edits and shared copy-on-write with clones (ixShared): re-ranks
	// over known origin tokens — the what-if common case — never copy it.
	ix       *topoIndex
	ixShared bool

	// cons mirrors the delta context's assertion list with algebra-level
	// provenance, segmented per segLen: first one segment per node (in
	// Nodes order), then one per directed link (in Links order).
	cons   []analysis.Constraint
	segLen []int

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
		symCount:  map[string]int{},
		nameCount: map[string]int{},
	}
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

// Clone returns an independent copy, including the warm solver state: a
// what-if is applied to the clone and simply dropped when not committed.
// Only the topology index stays shared, until either side edits it.
func (v *DeltaVerifier) Clone() *DeltaVerifier {
	v.ixShared = true
	return &DeltaVerifier{
		in:        v.in.Clone(),
		dc:        v.dc.Clone(),
		ix:        v.ix,
		ixShared:  true,
		cons:      append([]analysis.Constraint(nil), v.cons...),
		segLen:    append([]int(nil), v.segLen...),
		symCount:  maps.Clone(v.symCount),
		nameCount: maps.Clone(v.nameCount),
		dupSyms:   v.dupSyms,
		dupNames:  v.dupNames,
	}
}

// Verify decides strict monotonicity for the current instance on the delta
// path (from scratch when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the same contract
// as Session.AnalyzeSPP.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	if v.dupSyms > 0 {
		return analysis.Result{}, nil, duplicatePath(v.in)
	}
	// A name collision needs the suffixed variables, and a degenerate
	// instance (no links, or no permitted paths at all) the error a fresh
	// analysis reports: both are Analyze's to decide.
	if v.dupNames > 0 || len(v.in.Links) == 0 || len(v.symCount) == 0 {
		return Analyze(ctx, v.in, smt.Native{}, 0)
	}
	out, err := v.dc.Check(ctx)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:   "spp-" + v.in.Name,
		Condition: analysis.StrictMonotonicity,
		Sat:       out.Sat,
		Stats:     out.Stats,
	}
	for _, n := range v.segLen[:len(v.in.Nodes)] {
		res.NumPreference += n
	}
	res.NumMonotonicity = len(v.cons) - res.NumPreference
	if out.Sat {
		res.Model = make(map[string]int, len(out.Model))
		for name, val := range out.Model {
			res.Model[string(name)] = val
		}
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
	for _, p := range v.in.Permitted[n] {
		v.countPath(p, -1)
	}
	for _, p := range paths {
		v.countPath(p, +1)
		if o := p[len(p)-1]; !v.ix.origins[o] {
			v.ownIndex().origins[o] = true
			v.in.Origins = append(v.in.Origins, o)
		}
	}
	if _, known := v.ix.nodes[n]; !known {
		v.declareNode(n)
	}
	v.in.Permitted[n] = clonePaths(paths)
	return v.refresh(map[Node]bool{n: true})
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
	// Remove link segments and links together, descending so earlier
	// indices stay valid.
	for k := len(idx) - 1; k >= 0; k-- {
		i := idx[k]
		if err := v.removeSeg(len(v.in.Nodes) + i); err != nil {
			return err
		}
		v.in.Links = append(v.in.Links[:i], v.in.Links[i+1:]...)
	}
	delete(v.in.Cost, Link{a, b})
	delete(v.in.Cost, Link{b, a})
	ix := v.ownIndex()
	delete(ix.links, Link{a, b})
	delete(ix.links, Link{b, a})

	crosses := func(p Path) bool {
		for i := 0; i+2 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
	pruned := map[Node]bool{}
	for _, n := range v.in.Nodes {
		old := v.in.Permitted[n]
		kept := make([]Path, 0, len(old))
		for _, p := range old {
			if crosses(p) {
				v.countPath(p, -1)
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) != len(old) {
			v.in.Permitted[n] = kept
			pruned[n] = true
		}
	}
	return v.refresh(pruned)
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
	for _, n := range []Node{a, b} {
		if _, known := v.ix.nodes[n]; !known {
			v.declareNode(n)
		}
	}
	v.in.Links = append(v.in.Links, Link{a, b}, Link{b, a})
	ix := v.ownIndex()
	ix.links[Link{a, b}], ix.links[Link{b, a}] = true, true
	if cost != 0 {
		v.in.Cost[Link{a, b}] = cost
		v.in.Cost[Link{b, a}] = cost
	}
	ra, rb := naturalRanking(v.in.Permitted[a]), naturalRanking(v.in.Permitted[b])
	if err := v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-2, linkSeg(Link{a, b}, ra, rb)); err != nil {
		return err
	}
	return v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-1, linkSeg(Link{b, a}, rb, ra))
}

// refresh regenerates the preference segment of every touched node and the
// monotonicity segment of every link incident to one, in a single pass
// over the segment list that carries the running constraint offset. It
// runs after all ranking mutations of an operation, so each segment is
// regenerated from the final rankings.
func (v *DeltaVerifier) refresh(touched map[Node]bool) error {
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
	off := 0
	for i, n := range v.in.Nodes {
		if touched[n] {
			r := rankingOf(n)
			seg := make([]analysis.Constraint, max(len(r.paths)-1, 0))
			prefSeg(seg, r)
			if err := v.setSeg(i, off, seg); err != nil {
				return err
			}
		}
		off += v.segLen[i]
	}
	for i, l := range v.in.Links {
		id := len(v.in.Nodes) + i
		if touched[l.From] || touched[l.To] {
			if err := v.setSeg(id, off, linkSeg(l, rankingOf(l.From), rankingOf(l.To))); err != nil {
				return err
			}
		}
		off += v.segLen[id]
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

// ownIndex returns the topology index for writing, taking a private copy
// first if a clone still shares it.
func (v *DeltaVerifier) ownIndex() *topoIndex {
	if v.ixShared {
		v.ix = &topoIndex{
			nodes:   maps.Clone(v.ix.nodes),
			origins: maps.Clone(v.ix.origins),
			links:   maps.Clone(v.ix.links),
		}
		v.ixShared = false
	}
	return v.ix
}

// declareNode appends a real node with an empty preference segment (an
// undeclared node cannot have a ranking yet).
func (v *DeltaVerifier) declareNode(n Node) {
	id := len(v.in.Nodes)
	v.ownIndex().nodes[n] = int32(id)
	v.in.Nodes = append(v.in.Nodes, n)
	v.segLen = slices.Insert(v.segLen, id, 0)
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
	v.cons = slices.Replace(v.cons, off, off+len(old), fresh...)
	v.segLen[id] = len(fresh)
	return nil
}

// insertSeg inserts a new segment at id.
func (v *DeltaVerifier) insertSeg(id int, fresh []analysis.Constraint) error {
	v.segLen = slices.Insert(v.segLen, id, 0)
	return v.setSeg(id, v.segOffset(id), fresh)
}

// removeSeg deletes segment id.
func (v *DeltaVerifier) removeSeg(id int) error {
	if err := v.setSeg(id, v.segOffset(id), nil); err != nil {
		return err
	}
	v.segLen = slices.Delete(v.segLen, id, id+1)
	return nil
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
