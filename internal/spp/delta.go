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
// segment generation mirrors Instance.ToAlgebra + analysis constraint
// generation statement for statement (same orderings, same provenance
// strings, same variable naming via analysis.VarName), tests enforce
// bit-for-bit parity against VerifyFull, and any instance the mirror cannot
// name identically — signature-rendering collisions, duplicate permitted
// paths — flips the verifier into degraded mode, where Verify transparently
// runs the full pipeline instead.

package spp

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"fsr/internal/algebra"
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
	// would suffix) makes the incremental mirror unsound, so dupSyms /
	// dupNames > 0 degrades Verify to the full pipeline until edits resolve
	// the clash.
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
	ix := indexInstance(cp)
	if err := cp.validate(ix); err != nil {
		return nil, err
	}
	v := &DeltaVerifier{
		in:        cp,
		ix:        ix,
		symCount:  map[string]int{},
		nameCount: map[string]int{},
	}
	for _, n := range cp.Nodes {
		for _, p := range cp.Permitted[n] {
			v.countPath(p, +1)
		}
	}
	v.segLen = make([]int, 0, len(cp.Nodes)+len(cp.Links))
	for _, n := range cp.Nodes {
		seg := v.prefSeg(n)
		v.cons = append(v.cons, seg...)
		v.segLen = append(v.segLen, len(seg))
	}
	for _, l := range cp.Links {
		seg := v.monoSeg(l)
		v.cons = append(v.cons, seg...)
		v.segLen = append(v.segLen, len(seg))
	}
	v.dc = smt.NewDeltaContext(assertsOf(v.cons))
	return v, nil
}

// Name returns the instance name.
func (v *DeltaVerifier) Name() string { return v.in.Name }

// Snapshot returns a deep copy of the verifier's current instance.
func (v *DeltaVerifier) Snapshot() *Instance { return v.in.Clone() }

// Degraded reports whether the incremental mirror is unsound for the
// current instance (rendering collision or duplicate permitted path) and
// Verify is falling back to the full pipeline.
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
// path (full pipeline when degraded), returning the analysis result and the
// suspect nodes implicated by the core (nil when sat) — the same contract
// as Session.AnalyzeSPP.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	// Degenerate instances (no links, or no permitted paths at all) are
	// rejected by the algebra builder; route them through the full pipeline
	// so the caller sees the same error a fresh analysis would produce.
	if v.Degraded() || len(v.in.Links) == 0 || len(v.symCount) == 0 {
		return v.VerifyFull(ctx)
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
	for i := range v.cons {
		if v.cons[i].Kind == analysis.KindPreference {
			res.NumPreference++
		} else {
			res.NumMonotonicity++
		}
	}
	if out.Sat {
		res.Model = make(map[string]int, len(out.Model))
		for name, val := range out.Model {
			res.Model[string(name)] = val
		}
		return res, nil, nil
	}
	res.Core = make([]analysis.Constraint, 0, len(out.CoreIdx))
	for _, i := range out.CoreIdx {
		if i >= 0 && i < len(v.cons) {
			res.Core = append(res.Core, v.cons[i])
		}
	}
	return res, v.suspects(res.Core), nil
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
	if err := v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-2, v.monoSeg(Link{a, b})); err != nil {
		return err
	}
	return v.insertSeg(len(v.in.Nodes)+len(v.in.Links)-1, v.monoSeg(Link{b, a}))
}

// refresh regenerates the preference segment of every touched node and the
// monotonicity segment of every link incident to one, in a single pass
// over the segment list that carries the running constraint offset. It
// runs after all ranking mutations of an operation, so each segment is
// regenerated from the final rankings.
func (v *DeltaVerifier) refresh(touched map[Node]bool) error {
	off := 0
	for i, n := range v.in.Nodes {
		if touched[n] {
			if err := v.setSeg(i, off, v.prefSeg(n)); err != nil {
				return err
			}
		}
		off += v.segLen[i]
	}
	for i, l := range v.in.Links {
		id := len(v.in.Nodes) + i
		if touched[l.From] || touched[l.To] {
			if err := v.setSeg(id, off, v.monoSeg(l)); err != nil {
				return err
			}
		}
		off += v.segLen[id]
	}
	return nil
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

// --- segment generation (the incremental mirror of §IV-B) ---

// term names a permitted path's solver variable exactly as the full
// pipeline does for a collision-free instance.
func (v *DeltaVerifier) term(p Path) smt.Term {
	return smt.Term{Var: analysis.VarName(sigName(p))}
}

// prefSeg generates the node's preference segment: the ranked list as
// adjacent strict pairs, Builder.Chain's expansion.
func (v *DeltaVerifier) prefSeg(n Node) []analysis.Constraint {
	paths := v.in.Permitted[n]
	if len(paths) < 2 {
		return nil
	}
	out := make([]analysis.Constraint, 0, len(paths)-1)
	for i := 0; i+1 < len(paths); i++ {
		pair := algebra.PrefPair{
			A:      algebra.Symbol(sigName(paths[i])),
			B:      algebra.Symbol(sigName(paths[i+1])),
			Strict: true,
		}
		out = append(out, analysis.Constraint{
			Assertion: smt.Assertion{
				Rel:    smt.Lt,
				A:      v.term(paths[i]),
				B:      v.term(paths[i+1]),
				Origin: "pref: " + pair.String(),
			},
			Kind: analysis.KindPreference,
			Pref: pair,
		})
	}
	return out
}

// monoSeg generates the directed link's monotonicity segment: for every
// permitted path q of the link's head whose extension [tail]+q is permitted
// at the tail, the ⊕ entry l_uv ⊕ r_q = r_uq — the owner-ordered slice of
// algebra.ConcatTable this link contributes.
func (v *DeltaVerifier) monoSeg(l Link) []analysis.Constraint {
	var out []analysis.Constraint
	lab := algebra.LSym("l_" + string(l.From) + string(l.To))
	for _, q := range v.in.Permitted[l.To] {
		p := make(Path, 0, len(q)+1)
		p = append(append(p, l.From), q...)
		if !v.in.permitted(p) {
			continue
		}
		entry := algebra.ConcatEntry{
			Label: lab,
			In:    algebra.Symbol(sigName(q)),
			Out:   algebra.Symbol(sigName(p)),
		}
		out = append(out, analysis.Constraint{
			Assertion: smt.Assertion{
				Rel:    smt.Lt,
				A:      v.term(q),
				B:      v.term(p),
				Origin: "mono: " + entry.String(),
			},
			Kind:  analysis.KindMonotonicity,
			Entry: entry,
		})
	}
	return out
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

// suspects mirrors Conversion.SuspectNodes over the mirrored constraints:
// preference constraints implicate the ranking's owner, monotonicity
// constraints the owner of the derived path.
func (v *DeltaVerifier) suspects(core []analysis.Constraint) []Node {
	seen := map[Node]bool{}
	var out []Node
	add := func(s algebra.Sig) {
		n, found := v.ownerOfSym(s)
		if found && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, c := range core {
		switch c.Kind {
		case analysis.KindPreference:
			add(c.Pref.A)
		case analysis.KindMonotonicity:
			add(c.Entry.Out)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (v *DeltaVerifier) ownerOfSym(s algebra.Sig) (Node, bool) {
	for _, n := range v.in.Nodes {
		for _, p := range v.in.Permitted[n] {
			if algebra.Symbol(sigName(p)) == s {
				return n, true
			}
		}
	}
	return "", false
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
