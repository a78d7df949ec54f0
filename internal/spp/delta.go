// Delta verification of SPP instances: the bridge between an operator's
// what-if edits (re-rank a router, drop or add a session) and the smt
// package's delta solver. §IV-B asserts two kinds of atom: a preference atom
// joins two adjacent paths of one ranking, and a strict monotonicity atom
// joins a path to the tail it extends, when the tail is permitted at the
// next hop. So in the constraint graph (the dispute digraph of Griffin,
// Shepherd & Wilfong) every path has at most two out-edges, its rank
// predecessor and its tail, and the graph is implied by what the verifier
// holds anyway: the rankings, and a tail per path. A path's in-edges are its
// rank successor and its extensions. The verifier is that graph (smt.Graph,
// over the path ids of its one table), with no atom stored: an edit looks up
// only the paths it is handed, reports the head of each edge it adds or
// removes to a warm smt.DeltaContext — rendering nothing — and the context
// re-decides only the dispute-digraph region those heads reach.
//
// An atom's key sorts exactly like its position in the canonical emission
// order — the nodes' preference chains in Nodes order, then the links'
// monotonicity entries in Links order, each link's by its tail's rank:
// (0, node position, offset) for a preference atom, (1, link serial, rank
// of the tail) for a monotonicity one. A link serial is never reused, so
// serial order is Links order across drops, adds and rollbacks. When the
// region holds a dispute, the solver decides the exact core from the region
// alone (the argument, with its proof obligation, heads
// internal/smt/delta.go) and reports it by key, each atom with both its
// paths. Verify renders just the core's members through prefSeg and monoSeg,
// as Analyze does, in key order, which is the emitter's: an unsafe answer
// costs its dispute, not the instance, and names its atoms, not their
// positions in a list the verifier never generates.
//
// A load costs about one analysis. It copies the instance once
// (Instance.Clone: one array holds every hop, another every path header),
// fills the emitter's prep of the copy and borrows what the prep has: the
// node index and origin set; the link ends, whose positions key a link's
// serial; the label hashes, kept beside Links to count clashes by; and the
// paths, a loaded path's id being its prep id plus one. A hash collision can
// only count a label clash that is not there, which sends Verify to
// Analyze, and Analyze compares the labels themselves. The first check of a
// load nothing has edited is the prep's dense system, decided by
// smt.SolveDense and installed in the context as its whole-graph check.
//
// A what-if that is not kept costs its edit, not the instance: between
// Begin and Rollback every mutation — of the instance, the topology index,
// the path table and its counts — logs its inverse, the solver context
// journals the distances its checks install, and Rollback runs both
// backwards, leaving the verifier as Begin found it. Nothing is copied up
// front, and there is one graph journal, the verifier's.
//
// Correctness is anchored to the full pipeline, not argued independently:
// the implied atoms, in key order and named through the table, are what the
// emitter's prefSeg and monoSeg assert, position for position, under the
// natural naming, tests enforce bit-for-bit parity against VerifyFull —
// after edits, inside transactions and after rolling them back — and any
// instance the natural naming does not fit — a name held by two paths (a
// duplicate permitted path, or two renderings sanitized to one name) or a
// label by two links — flips the verifier into degraded mode, where Verify
// analyses the instance from scratch instead.

package spp

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/smt"
)

// DeltaVerifier owns a private copy of an SPP instance plus the resident
// solver state needed to re-verify it incrementally after edits. It is not
// safe for concurrent use.
type DeltaVerifier struct {
	in      *Instance
	dc      *smt.DeltaContext
	algebra string     // the result's Algebra: the instance's name never changes
	prep    *shardPrep // the load's, read by the first Verify; an edit drops it

	// ix answers node and origin membership for edit validation: the load's
	// prep's index, which edits extend. links maps each link between
	// declared nodes, keyed by their positions (hopKey), to its serial, and
	// loose each loaded link with an undeclared end, by name; serials is the
	// last serial issued. numPref and numMono count the implied graph's
	// atoms of each kind.
	ix               topoIndex
	links            map[uint64]int32
	loose            map[Link]int32
	serials          int32
	numPref, numMono int

	// The path table, the one place a solver variable has a name: every
	// path a ranking holds or once held, and every tail of one, by id (id 0
	// is the solver's zero anchor); ids maps a rendering to the first path
	// with it. A path nothing holds keeps its id. ranks[pos] is node pos's ranking as
	// ids. held counts the names some path holds, dupNames those two or more
	// paths hold: the collision counter.
	paths    []pathRec
	ids      map[string]int32
	ranks    [][]int32
	held     int
	dupNames int

	// keys holds each link's label hash, in Links order, and dupLabels
	// counts the links whose hash repeats an earlier one's (bit 0 aside, as
	// shardPrep.dups has it). Any clash makes the naturally named resident
	// system the wrong one to answer from, so Verify analyses from scratch
	// until edits resolve it.
	keys      []uint64
	dupLabels int

	// scratch is the witness of the last from-scratch Verify, for Model;
	// any edit drops it.
	scratch map[string]int

	// Scratch: ReRank's rendering.
	buf []byte

	// undo holds the open transaction's inverses, oldest first.
	inTx bool
	undo []func()
}

// pathRec is one path of the table: a vertex of the implied graph.
type pathRec struct {
	path Path
	name smt.Var // its natural solver variable
	// head is the first path with this name, whose count is the name's
	// occurrences in rankings; next is the next path with it.
	head, next, count int32
	refs              int32   // occurrences in rankings: held when > 0
	tail              int32   // the path it extends, path[1:]; 0 for an egress path
	own, at, link     int32   // while held: its node, its rank, its first link's serial
	ext               []int32 // the held paths extending it
}

// NewDeltaVerifier builds the resident graph for a deep copy of the
// instance from the emitter's prep of that copy, kept for the first check.
// The instance must validate; rendering collisions are tolerated (the
// verifier starts degraded and recovers if edits remove them).
func NewDeltaVerifier(in *Instance) (*DeltaVerifier, error) {
	cp := in.Clone()
	p := new(shardPrep)
	if err := buildShardPrep(p, cp); err != nil {
		return nil, err
	}
	p.name(false) // natural names: the verifier counts collisions itself
	nl := len(cp.Links)
	v := &DeltaVerifier{
		in:        cp,
		algebra:   "spp-" + cp.Name,
		prep:      p,
		ix:        p.ix,
		links:     make(map[uint64]int32, nl),
		loose:     map[Link]int32{},
		serials:   int32(nl),
		paths:     make([]pathRec, 1, p.nPaths+1),
		ids:       make(map[string]int32, p.nPaths),
		ranks:     make([][]int32, len(cp.Nodes)),
		keys:      p.keys,
		dupLabels: p.dups(),
	}
	for li := nl - 1; li >= 0; li-- { // link i is serial i+1, a repeated link's the first
		if a, b := p.linkEnds[2*li], p.linkEnds[2*li+1]; a >= 0 && b >= 0 {
			v.links[hopKey(a, b)] = int32(li + 1)
		} else {
			v.loose[cp.Links[li]] = int32(li + 1)
		}
	}
	v.table(p)
	v.dc = smt.NewDeltaContext((*graph)(v))
	return v, nil
}

// table fills the path table as ranking every node would: prep path g is id
// g+1, the rankings' ids are runs of one array, the extension lists of
// another. A path ranked twice is held under its first id, as find has it,
// its own record left blank; a tail not permitted is pathID's.
func (v *DeltaVerifier) table(p *shardPrep) {
	ids := make([]int32, p.nPaths)
	for ni, paths := range p.perms {
		lo, hi := p.pathOff[ni], p.pathOff[ni+1]
		for r, q := range paths {
			g := lo + int32(r)
			head := v.ids[string(p.vars[g])]
			if ids[g] = v.find(q, head); ids[g] == 0 {
				ids[g] = v.add(q, p.vars[g], head)
			} else {
				v.paths = append(v.paths, pathRec{}) // held under its first id
			}
		}
		v.ranks[ni] = ids[lo:hi:hi]
	}
	for _, m := range p.matches { // in link order: a repeated link's first serial
		x := &v.paths[ids[p.pathOff[p.linkEnds[2*m.li]]+m.fq]]
		x.link = cmp.Or(x.link, m.li+1)
	}
	for ni, rk := range v.ranks {
		v.numPref += max(len(rk)-1, 0)
		for r, id := range rk {
			x, h := &v.paths[id], &v.paths[v.paths[id].head]
			x.refs, h.count, x.own, x.at = x.refs+1, h.count+1, int32(ni), int32(r)
			v.held += crossed(h.count-1, h.count, 1)
			v.dupNames += crossed(h.count-1, h.count, 2)
			if g := p.pathOff[ni] + int32(r); x.refs == 1 && p.tail[g] >= 0 {
				x.tail = ids[p.tail[g]]
			} else if x.refs == 1 && len(x.path) > 2 {
				x.link = v.serial(x.path[0], x.path[1])
				t := v.pathID(x.path[1:]) // may grow the table
				v.paths[id].tail = t
			}
		}
	}
	start := make([]int32, len(v.paths)+1) // by tail: where its extensions start
	for _, x := range v.paths {
		if x.refs > 0 && x.tail != 0 {
			start[x.tail+1]++
		}
	}
	for t := range v.paths {
		start[t+1] += start[t]
	}
	flat := make([]int32, start[len(v.paths)])
	for id, x := range v.paths {
		if t := &v.paths[x.tail]; x.refs > 0 && x.tail != 0 {
			t.ext = flat[start[x.tail] : start[x.tail]+int32(len(t.ext))+1 : start[x.tail+1]]
			t.ext[len(t.ext)-1] = int32(id)
			v.numMono += int(min(t.refs, 1))
		}
	}
}

// graph is the verifier as the constraint graph it implies (smt.Graph). Only
// a held path has edges, and a monotonicity edge needs its tail held too.
type graph DeltaVerifier

func (g *graph) Vars() int { return len(g.paths) - 1 }

// Out appends path x's rank predecessor and its tail.
func (g *graph) Out(dst []smt.Edge, x int32) []smt.Edge {
	p := &g.paths[x]
	if p.refs == 0 {
		return dst
	}
	if p.at > 0 {
		dst = append(dst, smt.Edge{To: g.ranks[p.own][p.at-1], Key: uint64(p.own)<<31 | uint64(p.at-1)})
	}
	if t := p.tail; t != 0 && g.paths[t].refs > 0 {
		dst = append(dst, smt.Edge{To: t, Key: keyMono | uint64(p.link)<<31 | uint64(g.paths[t].at)})
	}
	return dst
}

// In appends path x's rank successor and its extensions.
func (g *graph) In(dst []int32, x int32) []int32 {
	p := &g.paths[x]
	if p.refs == 0 {
		return dst
	}
	if r := g.ranks[p.own]; int(p.at)+1 < len(r) {
		dst = append(dst, r[p.at+1])
	}
	return append(dst, p.ext...)
}

// keyMono marks a monotonicity atom's key: the kind at bit 62, then a node
// position or a link serial, then an offset, 31 bits each.
const keyMono = 1 << 62

// Name returns the instance name.
func (v *DeltaVerifier) Name() string { return v.in.Name }

// Snapshot returns a deep copy of the verifier's current instance.
func (v *DeltaVerifier) Snapshot() *Instance { return v.in.Clone() }

// Size returns the instance's node and session counts.
func (v *DeltaVerifier) Size() (nodes, sessions int) {
	// Links stores both directions of every session.
	return len(v.in.Nodes), len(v.in.Links) / 2
}

// Degraded reports whether the resident graph is the wrong one to answer
// from for the current instance (a name or link-label clash) and Verify is
// analysing from scratch.
func (v *DeltaVerifier) Degraded() bool { return v.dupNames > 0 || v.dupLabels > 0 }

// DeltaStats returns the underlying solver's delta statistics.
func (v *DeltaVerifier) DeltaStats() smt.DeltaStats { return v.dc.Stats() }

// Clone returns an independent copy, including the warm solver state, taken
// outside any transaction. What-ifs roll back instead; only the benchmark's
// frozen replay still clones. Rankings are replaced whole, never written in
// place, so the copy shares their id slices. Its first check is not the
// dense one.
func (v *DeltaVerifier) Clone() *DeltaVerifier {
	c := new(DeltaVerifier)
	*c = *v
	c.in, c.prep = v.in.Clone(), nil
	c.ix = topoIndex{in: c.in, nodes: v.ix.nodes, origins: maps.Clone(v.ix.origins)}
	c.ix.nodes.slots = slices.Clone(v.ix.nodes.slots)
	c.links, c.loose, c.keys = maps.Clone(v.links), maps.Clone(v.loose), slices.Clone(v.keys)
	c.paths, c.ids, c.ranks = slices.Clone(v.paths), maps.Clone(v.ids), slices.Clone(v.ranks)
	for id := range c.paths {
		c.paths[id].ext = slices.Clip(slices.Clone(c.paths[id].ext))
	}
	c.buf, c.inTx, c.undo = nil, false, nil
	c.dc = v.dc.Clone((*graph)(c))
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

// Journal reports the open transaction's size: the undo entries of its one
// graph journal.
func (v *DeltaVerifier) Journal() (entries int) { return len(v.undo) }

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
// Session.AnalyzeSPP, except that a safe result carries no model (Model
// renders the witness for the caller that wants it) and an unsafe one no
// CoreIdx: the core's members in canonical order, not their positions.
func (v *DeltaVerifier) Verify(ctx context.Context) (analysis.Result, []Node, error) {
	p := v.prep
	v.prep = nil
	if v.fromScratch() {
		res, suspects, err := Analyze(ctx, v.in)
		v.scratch, res.Model, res.CoreIdx = res.Model, nil, nil
		return res, suspects, err
	}
	out, core, err := v.check(ctx, p)
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:         v.algebra,
		Condition:       analysis.StrictMonotonicity,
		Sat:             out.Sat,
		Stats:           out.Stats,
		NumPreference:   v.numPref,
		NumMonotonicity: v.numMono,
	}
	if out.Sat {
		return res, nil, nil
	}
	res.Core = make([]analysis.Constraint, len(core))
	suspects := make([]Node, len(core))
	for k, ed := range core {
		res.Core[k], suspects[k] = v.coreMember(ed.From, ed.Key&keyMono != 0)
	}
	slices.Sort(suspects)
	return res, slices.Compact(suspects), nil
}

// check decides the graph on the context, but for the first check of an
// unedited load outside a transaction: prep p's dense system, the graph's
// atoms in key order over its ids, decided by SolveDense and installed in
// the context, each core position as the out-edge it is.
func (v *DeltaVerifier) check(ctx context.Context, p *shardPrep) (smt.Result, []smt.Edge, error) {
	if p == nil || v.inTx {
		return v.dc.Check(ctx)
	}
	cons, _ := p.denseConstraints()
	sctx, sp := obs.StartSpan(ctx, "solve-dense")
	out, model, err := smt.SolveDense(sctx, p.nPaths, cons)
	if sp.End(); err != nil {
		return smt.Result{}, nil, err
	}
	var core []smt.Edge
	for _, c := range out.CoreIdx {
		for _, ed := range (*graph)(v).Out(nil, cons[c].B) {
			if ed.From = cons[c].B; ed.To == cons[c].A {
				core = append(core, ed)
			}
		}
	}
	v.dc.Install(out, model, core, len(cons))
	return out, core, nil
}

// coreMember renders the atom on an out-edge of path x — an unsat core's
// member — through prefSeg or monoSeg on just the paths it names, and
// returns the §VI-B suspect it implicates: the node whose ranking a
// preference orders, or the tail of a monotonicity entry's link, owner of
// the extended path.
func (v *DeltaVerifier) coreMember(x int32, mono bool) (analysis.Constraint, Node) {
	p := &v.paths[x]
	if !mono {
		return prefSeg(v.rankSlice(p.own, int(p.at)-1, int(p.at)+1)), v.in.Nodes[p.own]
	}
	t, l := &v.paths[p.tail], Link{p.path[0], p.path[1]}
	return monoSeg(l, v.rankSlice(p.own, int(p.at), int(p.at)+1), v.rankSlice(t.own, int(t.at), int(t.at)+1)), l.From
}

// rankSlice is ranks [lo,hi) of node position ni, its solver variables
// read from the table.
func (v *DeltaVerifier) rankSlice(ni int32, lo, hi int) ranking {
	r := ranking{paths: v.in.Permitted[v.in.Nodes[ni]][lo:hi], vars: make([]smt.Var, hi-lo)}
	for i := range r.vars {
		r.vars[i] = v.paths[v.ranks[ni][lo+i]].name
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
		if val != 0 { // a path no atom references
			out[string(v.paths[id].name)] = val
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
// any new origin tokens like Instance.Rank) and reports the edges that
// changes. The paths are validated against the current topology first; an
// invalid ranking is rejected without mutating anything. Each path is looked
// up in the table, its name rendered into a scratch buffer; only a path the
// table has never held is allocated.
func (v *DeltaVerifier) ReRank(n Node, paths ...Path) error {
	if n == "" {
		return fmt.Errorf("spp %s: rerank of empty node name", v.in.Name)
	}
	for _, p := range paths {
		if err := v.ix.validatePath(v.in.Name, n, p, true, v.linked); err != nil {
			return err
		}
	}
	v.scratch, v.prep = nil, nil
	fresh := clonePaths(paths)
	ids := make([]int32, len(fresh))
	for i, q := range fresh {
		ids[i] = v.pathID(q)
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
	ni := v.ix.node(n)
	if ni < 0 {
		ni = v.declareNode(n)
	}
	v.rank(ni, true, fresh, ids)
	return nil
}

// DropSession removes the bidirectional session a↔b, prunes every permitted
// path crossing it (the operational reading of a session failure), and
// reports the edges the pruned rankings lose. Removing a session that does
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
	v.scratch, v.prep = nil, nil
	crosses := func(p Path) bool {
		for i := 0; i+2 < len(p); i++ {
			if (p[i] == a && p[i+1] == b) || (p[i] == b && p[i+1] == a) {
				return true
			}
		}
		return false
	}
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
	}
	// The links go after the paths crossing them, so that their inverses
	// bring them back first; descending, so earlier indices stay valid.
	for k := len(idx) - 1; k >= 0; k-- {
		i, l, key := idx[k], v.in.Links[idx[k]], v.keys[idx[k]]
		v.in.Links, v.keys = slices.Delete(v.in.Links, i, i+1), slices.Delete(v.keys, i, i+1)
		v.relabel(key, -1)
		v.onRollback(func() {
			v.in.Links, v.keys = slices.Insert(v.in.Links, i, l), slices.Insert(v.keys, i, key)
			v.relabel(key, +1)
		})
	}
	for _, l := range [2]Link{{a, b}, {b, a}} {
		if _, ok := v.loose[l]; ok {
			put(v, v.loose, l, 0)
		} else {
			put(v, v.links, hopKey(v.ix.node(l.From), v.ix.node(l.To)), 0)
		}
		put(v, v.in.Cost, l, 0)
	}
	return nil
}

// AddSession adds the bidirectional session a↔b with an optional IGP cost,
// declaring new nodes like Instance.AddSession. The new links carry no
// monotonicity atom yet (no permitted path can cross a link that did not
// exist) and take the next two serials; a follow-up ReRank introduces paths
// over the session.
func (v *DeltaVerifier) AddSession(a, b Node, cost int) error {
	if a == b || a == "" || b == "" {
		return fmt.Errorf("spp %s: invalid session %s↔%s", v.in.Name, a, b)
	}
	if v.linked(a, b) || v.linked(b, a) {
		return fmt.Errorf("spp %s: session %s↔%s already exists", v.in.Name, a, b)
	}
	v.scratch, v.prep = nil, nil
	for _, n := range [2]Node{a, b} {
		if v.ix.node(n) < 0 {
			v.declareNode(n)
		}
	}
	for _, l := range [2]Link{{a, b}, {b, a}} {
		key := maphash.String(screenSeed, string(l.From)+string(l.To)) // as the match pass hashes a label
		v.in.Links, v.keys, v.serials = append(v.in.Links, l), append(v.keys, key), v.serials+1
		v.relabel(key, +1)
		v.onRollback(func() {
			n := len(v.keys) - 1
			v.in.Links, v.keys, v.serials = v.in.Links[:n], v.keys[:n], v.serials-1
			v.relabel(key, -1)
		})
		put(v, v.links, hopKey(v.ix.node(l.From), v.ix.node(l.To)), v.serials)
		put(v, v.in.Cost, l, cost)
	}
	return nil
}

// declareNode appends a real node with an empty ranking (an undeclared
// node cannot have a ranking yet) and returns its position.
func (v *DeltaVerifier) declareNode(n Node) int32 {
	id := len(v.in.Nodes)
	v.in.Nodes = append(v.in.Nodes, n)
	v.ix.nodes.add(v.in.Nodes)
	v.ranks = append(v.ranks, nil)
	v.onRollback(func() {
		v.ix.nodes.remove(v.in.Nodes, n) // the newest name: undo runs last in, first out
		v.in.Nodes = v.in.Nodes[:id]
		v.ranks = v.ranks[:id]
	})
	return int32(id)
}

// put sets m[k] to x, deleting the entry at the zero value, logging the
// inverse.
func put[K, V comparable](v *DeltaVerifier, m map[K]V, k K, x V) {
	var zero V
	old := m[k]
	if x == old {
		return
	}
	if x == zero {
		delete(m, k)
	} else {
		m[k] = x
	}
	v.onRollback(func() { put(v, m, k, old) })
}

// rank installs a ranking at node position ni (ranked false removes it),
// logging the one it replaces, and reports changed the preference edges
// the two chains do not share — all of them while a name is held twice,
// when a path may sit at two ranks — and, through hold, the monotonicity
// edges of every path it starts or stops holding.
func (v *DeltaVerifier) rank(ni int32, ranked bool, paths []Path, ids []int32) {
	n := v.in.Nodes[ni]
	old, wasRanked := v.in.Permitted[n]
	oldIDs := v.ranks[ni]
	v.onRollback(func() { v.rank(ni, wasRanked, old, oldIDs) })
	blurred := v.dupNames > 0
	v.chain(ni, ids, blurred)
	for _, id := range ids {
		v.hold(id, +1)
	}
	for _, id := range oldIDs {
		v.hold(id, -1)
	}
	v.ranks[ni] = ids
	for r, id := range ids {
		v.paths[id].own, v.paths[id].at = ni, int32(r)
	}
	v.chain(ni, oldIDs, blurred || v.dupNames > 0)
	v.numPref += max(len(ids)-1, 0) - max(len(oldIDs)-1, 0)
	if ranked {
		v.in.Permitted[n] = paths
	} else {
		delete(v.in.Permitted, n)
	}
}

// chain reports changed the head of every edge ids[k] → ids[k−1] that node
// ni's ranking, as the table has it, lacks (of every edge, with all).
func (v *DeltaVerifier) chain(ni int32, ids []int32, all bool) {
	for k := 1; k < len(ids); k++ {
		u, w := &v.paths[ids[k]], &v.paths[ids[k-1]]
		if all || u.refs == 0 || w.refs == 0 || u.own != ni || w.own != ni || u.at != w.at+1 {
			v.dc.Changed(ids[k-1])
		}
	}
}

// hold moves path id's occurrences, and its name's, by d (±1). A path that
// starts or stops being held brings or takes its monotonicity edges: to its
// held tail, and from its held extensions.
func (v *DeltaVerifier) hold(id, d int32) {
	x, h := &v.paths[id], &v.paths[v.paths[id].head]
	x.refs, h.count = x.refs+d, h.count+d
	v.held += crossed(h.count-d, h.count, 1)
	v.dupNames += crossed(h.count-d, h.count, 2)
	if !(d > 0 && x.refs == 1 || d < 0 && x.refs == 0) {
		return
	}
	if d > 0 && len(x.path) > 2 {
		x.link = v.serial(x.path[0], x.path[1])
	}
	if t := &v.paths[x.tail]; x.tail != 0 {
		if d > 0 {
			t.ext = append(t.ext, id)
		} else {
			i := slices.Index(t.ext, id)
			t.ext = slices.Delete(t.ext, i, i+1)
		}
		if t.refs > 0 {
			v.numMono += int(d)
			v.dc.Changed(x.tail)
		}
	}
	if len(x.ext) > 0 {
		v.numMono += int(d) * len(x.ext)
		v.dc.Changed(id)
	}
}

// pathID returns path q's id, adding it to the table, with its tail, when
// the table has never seen it.
func (v *DeltaVerifier) pathID(q Path) int32 {
	v.buf = appendVar(v.buf[:0], q)
	head := v.ids[string(v.buf)]
	if id := v.find(q, head); id != 0 {
		return id
	}
	id := v.add(q, smt.Var(v.buf), head)
	v.onRollback(func() {
		if x := v.paths[id]; x.head != id {
			v.paths[x.head].next = x.next
		} else {
			delete(v.ids, string(x.name))
		}
		clear(v.paths[id:])
		v.paths = v.paths[:id]
	})
	if len(q) > 2 {
		v.paths[id].tail = v.pathID(q[1:])
	}
	return id
}

// add appends path q, held by nothing yet, under its rendering name —
// behind head, the first path with that name, when there is one — and
// returns its id.
func (v *DeltaVerifier) add(q Path, name smt.Var, head int32) int32 {
	id := int32(len(v.paths))
	x := pathRec{path: q, name: name, head: id}
	if head != 0 {
		x.head, x.next = head, v.paths[head].next
		v.paths[head].next = id
	} else {
		v.ids[string(name)] = id
	}
	v.paths = append(v.paths, x)
	return id
}

// find returns the id of path q in the chain of paths from head, which
// share its rendering, or 0.
func (v *DeltaVerifier) find(q Path, head int32) int32 {
	for id := head; id != 0; id = v.paths[id].next {
		if slices.Equal(v.paths[id].path, q) {
			return id
		}
	}
	return 0
}

// relabel moves dupLabels by the change d (±1) keys has just seen in the
// links whose label hashes to key.
func (v *DeltaVerifier) relabel(key uint64, d int) {
	n := 0
	for _, k := range v.keys {
		if k|1 == key|1 {
			n++
		}
	}
	v.dupLabels += max(n-1, 0) - max(n-d-1, 0)
}

// serial returns link a→b's serial, or 0 when the instance has no such link.
func (v *DeltaVerifier) serial(a, b Node) int32 {
	return cmp.Or(v.links[hopKey(v.ix.node(a), v.ix.node(b))], v.loose[Link{a, b}])
}

// linked reports whether the directed link a→b is declared.
func (v *DeltaVerifier) linked(a, b Node) bool { return v.serial(a, b) != 0 }

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
