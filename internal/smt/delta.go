// Delta solving: the verification-as-a-service extension of the engine. A
// whole solve builds its constraint graph once per call; a DeltaContext
// links its graph once, at construction, and keeps it alive *across*
// checks, so a what-if that touches one session or ranking re-links
// the edges of the segments it replaces and re-decides only the region of
// the constraint graph reachable from them, instead of rebuilding and
// re-solving everything.
//
// A DeltaContext takes the one atom §IV-B emits for an SPP instance, as
// SolveDense does: a strict preference or strict monotonicity entry A < B
// between two variables the caller has numbered from 1 (DenseConstraint).
// It holds no names: variable v is node v, and a model and a core are
// reported by id and position. The atom is the difference constraint
// A − B ≤ −1, one edge B → A of weight −1. In a whole solve every variable
// is also positive (x ≥ 1, an edge x → 0 of weight −1 into the zero node),
// but no atom mentions a constant, so no edge ever leaves the zero node: it
// is a sink, it lies on no cycle, and its distance is one below the lowest
// variable's. So positivity can never take part in a contradiction, and the
// resident graph leaves the zero node out: no check takes it into a node
// set, and Model reads its distance off the variables'. Id 0 stays reserved
// all the same, as the dense door's zero anchor, and a check hands the
// engine that anchor at local id 0.
//
// Storage is slot-stable. The assertion list is a sequence of segments (the
// unit callers edit by); an atom lives in a slot that never moves, the slot
// is its edge and sits on intrusive doubly-linked out- and in-lists per node,
// and its canonical position — needed only to order a region's atoms and to
// report CoreIdx — is a Fenwick prefix over segment lengths plus its index in
// its segment. Replacing a segment touches its own slots and their list
// neighbours; nothing is renumbered and no tail moves. An atom over an id the
// graph has not reached yet grows the graph to it.
//
// Every check is one engine solve of the sub-system induced on a node set:
// the atoms whose edges leave a node of the set, in canonical order, over
// dense set-local ids. Until a check is sat no fixed point stands, and the
// set is every referenced node (orphans stay out), whose sub-system is the
// whole list. A sat verdict installs the standing state: the fixed point of
// the last *satisfiable* graph G0, plus the changed set — the heads of every
// edge deleted or added since G0, accumulated over however many edits and
// unsat verdicts came between. A node's fixed-point distance is the cheapest
// walk ending at it (from the virtual source that seeds every node at 0).
// From then on the set is the affected region: the forward closure of the
// changed set over the out-edges of the current graph G.
//
// Why the region's solve is G's. A walk of G0 into a node v outside the
// region either survives intact in G, or lost an edge whose head is changed
// and whose remaining suffix would put v inside the region; a walk of G into
// v cannot use an added edge for the same reason. So v keeps its distance.
// The region is forward-closed, so a walk of G that enters it never leaves:
// it starts inside, or arrives over an in-edge u → w from outside with u's
// standing distance. So each region node is seeded with the least
// dist(u) − 1 its in-edges from outside bring (0 with none), the engine's
// component pass runs from those seeds, and the fixpoint it reaches on the
// region is the one a whole solve of G reaches there. A negative cycle of G
// must contain an edge G0 lacked — G0 was satisfiable — so it lies inside
// the region, and the region's solve is unsat exactly when G is.
//
// And its core. The argument never used that G was the whole list, so every
// negative cycle of every *subset* of the atoms lies inside the region too.
// The deletion loop walks the list from last to first and keeps an atom
// exactly when the remainder without it has no negative cycle: for an atom
// whose edge leaves the region that is the same question asked of the
// region's atoms alone, and every other atom is on no negative cycle and is
// dropped. Seeds take no part in a cycle. So the region's sub-system, its
// atoms in canonical order, has the whole list's core, position for position
// once mapped back: bit for bit a fresh Context.Check, the differential
// oracle the tests and the server's -check-oracle mode enforce. An unsat
// verdict installs nothing: the standing fixed point and the changed set
// stay, so the repair that follows is a delta solve.
//
// Transactions make a what-if cost its edit. Between Begin and Rollback the
// context journals every segment operation, the distance of every node a sat
// check installed, and — at Begin — whether a fixed point stood, the graph's
// size, the pending changed set and the memoized result. A replaced
// segment's slots stay allocated, unlinked, until Commit frees them;
// Rollback replays the journal backwards — unlink and free what was added,
// re-link what was removed — restores the journalled distances (nodes
// outside every checked region never moved), shrinks the graph back to the
// ids Begin found (no atom reaches the nodes grown since), and reinstates
// the rest of what Begin found.

package smt

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"fsr/internal/obs"
)

// checkIDs rejects an atom that is not strict or is over an id outside
// 1..limit: the delta door takes only x < y, and no constants, so the zero
// anchor is no atom's variable. A and B may be the same variable: x < x is a
// one-atom negative cycle.
func checkIDs(atoms []DenseConstraint, limit int32) error {
	for _, a := range atoms {
		if a.Rel != Lt {
			return fmt.Errorf("smt: atom %d %s %d: a delta context takes only strict atoms", a.A, a.Rel, a.B)
		}
		if min(a.A, a.B) < 1 || max(a.A, a.B) > limit {
			return fmt.Errorf("smt: atom %d < %d: variable ids run from 1 to %d", a.A, a.B, limit)
		}
	}
	return nil
}

// DeltaStats counts solver activity on a DeltaContext, for observability:
// the server exports these as Prometheus counters.
type DeltaStats struct {
	// Checks counts Check calls that actually solved (cache misses).
	Checks int
	// CacheHits counts Check calls answered from the memoized result
	// (no edit since the last solve).
	CacheHits int
	// DeltaSolves counts checks answered from the affected region: one
	// engine solve of its seeded sub-system, the fixed point or the core.
	DeltaSolves int
	// FullSolves counts checks that solved the whole assertion list: every
	// check until the first sat verdict leaves a fixed point to start from.
	FullSolves int
	// LastAffected is the size of the affected region of the last delta
	// solve (0 when the last solve was full).
	LastAffected int
	// LastDuration is the wall time of the last solving Check.
	LastDuration time.Duration
	// Steps counts the slots, edges, list links and Fenwick entries read or
	// written by edits and checks, and the atoms a check loads into the
	// engine: what an edit cost, without a clock.
	Steps int
}

// DeltaContext is a mutable logical context with incremental solving:
// SetSeg, InsertSeg and RemoveSeg edit the segmented atom list in place and
// Check re-decides it, reusing the converged state of the last sat solve
// when there is one. It is the solver-level "delta verification" entry point
// of the fsr serve daemon. A DeltaContext is not safe for concurrent use.
type DeltaContext struct {
	// The atom list: segs[p] holds the slots of the segment at canonical
	// position p, fen is the Fenwick tree over their lengths.
	segs  [][]int32
	fen   []int32
	slots []deltaSlot
	free  []int32 // unused slots
	n     int     // asserted atoms, each one linked edge

	// The graph: every atom's edge is linked into the node lists. built: the
	// nodes' distances are its fixed point as of the last sat solve, and
	// changed lists the nodes whose in-edges moved since. False until a
	// check is sat.
	built   bool
	nodes   []deltaNode // by variable id; node 0 is the zero anchor, never linked
	changed []int32

	// Scratch: the node set a check decides (a node's index plus one is its
	// region-local id) and its atoms keyed for sorting.
	region []int32
	items  []uint64

	// memoized result of the last Check, valid until the next edit.
	res      Result
	resValid bool

	tx    deltaTx
	stats DeltaStats
}

// deltaSlot is one atom A < B in stable storage, and its edge: from B's node
// to A's, on from's out-list and to's in-list, with the slot's id as its
// edge id. Every edge weighs −1.
type deltaSlot struct {
	from, to         int32
	outPrev, outNext int32
	inPrev, inNext   int32
	seg, idx         int32 // segment position, and index within it
}

// deltaNode is one variable of the graph. A variable no atom references —
// one whose atoms were all removed, or an id the caller never used — stays
// as an orphan, with no edge; ref masks orphans out of models and whole
// solves, which keeps both bit-for-bit equal to a fresh solve's.
type deltaNode struct {
	dist    int
	out, in int32 // list heads, −1 for none
	ref     int32 // atom references
	local   int32 // region-local id during a check, 0 outside the region
	changed bool
}

// deltaTx is the undo journal of one transaction: what Begin found, and
// what to replay backwards to get there again.
type deltaTx struct {
	open bool

	built        bool
	vars         int     // graph size
	changed      []int32 // the pending changed set
	res          Result
	resValid     bool
	lastAffected int
	lastDuration time.Duration

	ops      []segUndo
	replaced int // SetSeg entries among ops
	// dist holds the distances sat checks replaced.
	dist []distUndo
}

// segUndo inverts one segment operation: a replacement (old holds the slots
// the segment held, unlinked but allocated), an insertion or a removal.
type segUndo struct {
	kind byte // 'r', 'i', 'd'
	seg  int32
	old  []int32
}

// distUndo is one node's distance before a check moved it.
type distUndo struct {
	node int32
	dist int
}

// NewDeltaContext returns a delta context over variables 1..nVars and the
// atoms between them, cut into consecutive segments of the given lengths;
// nil segLen makes them one segment. Every atom is linked in canonical order.
// An atom over an id outside 1..nVars is an error.
func NewDeltaContext(nVars int, atoms []DenseConstraint, segLen []int) (*DeltaContext, error) {
	if err := checkIDs(atoms, int32(min(nVars, math.MaxInt32))); err != nil {
		return nil, err
	}
	if segLen == nil {
		segLen = []int{len(atoms)}
	}
	d := &DeltaContext{
		segs:  make([][]int32, len(segLen)),
		slots: make([]deltaSlot, len(atoms)),
		n:     len(atoms),
		nodes: append(make([]deltaNode, 0, max(nVars, 0)+1), deltaNode{out: -1, in: -1}),
	}
	ids := make([]int32, len(atoms)) // one backing array: a segment's slice is replaced whole, never appended to
	at := 0
	for p, n := range segLen {
		d.segs[p] = ids[at : at+n : at+n]
		for i := range d.segs[p] {
			s := int32(at + i)
			d.segs[p][i] = s
			d.slots[s] = d.slot(atoms[s], p, i)
		}
		d.link(d.segs[p], +1)
		at += n
	}
	if at != len(atoms) {
		panic(fmt.Sprintf("smt: segment lengths sum to %d for %d atoms", at, len(atoms)))
	}
	d.fenRebuild()
	return d, nil
}

// Len returns the number of asserted atoms.
func (d *DeltaContext) Len() int { return d.n }

// Segments returns the number of segments.
func (d *DeltaContext) Segments() int { return len(d.segs) }

// SegLen returns the number of atoms in segment id.
func (d *DeltaContext) SegLen(id int) int { return len(d.segs[id]) }

// At returns the atom at offset off of segment seg.
func (d *DeltaContext) At(seg, off int) DenseConstraint { return d.atom(d.segs[seg][off]) }

// Stats returns the accumulated solver statistics.
func (d *DeltaContext) Stats() DeltaStats { return d.stats }

// Clone returns an independent copy, including the standing fixed point,
// taken outside any transaction. Nothing in production clones since what-ifs
// roll back; the benchmark's frozen replay still does.
func (d *DeltaContext) Clone() *DeltaContext {
	c := *d
	ids := make([]int32, 0, d.n)
	c.segs = make([][]int32, len(d.segs))
	for p, seg := range d.segs {
		ids = append(ids, seg...)
		c.segs[p] = ids[len(ids)-len(seg) : len(ids) : len(ids)]
	}
	c.fen, c.slots, c.free = slices.Clone(d.fen), slices.Clone(d.slots), slices.Clone(d.free)
	c.nodes, c.changed = slices.Clone(d.nodes), slices.Clone(d.changed)
	c.region, c.items, c.tx = nil, nil, deltaTx{}
	return &c
}

// --- canonical positions ---

// fenRebuild recomputes the Fenwick tree from the segment lengths, after the
// segment sequence itself changed.
func (d *DeltaContext) fenRebuild() {
	d.fen = grow(d.fen, len(d.segs)+1)
	clear(d.fen)
	for i := 1; i < len(d.fen); i++ {
		d.fen[i] += int32(len(d.segs[i-1]))
		if up := i + i&-i; up < len(d.fen) {
			d.fen[up] += d.fen[i]
		}
	}
}

// fenAdd adds delta to the length recorded for segment seg.
func (d *DeltaContext) fenAdd(seg int32, delta int) {
	for i := int(seg) + 1; i < len(d.fen); i += i & -i {
		d.fen[i] += int32(delta)
		d.stats.Steps++
	}
}

// position returns slot s's canonical position: the atoms in the segments
// before its own, plus its index.
func (d *DeltaContext) position(s int32) int {
	pos := int(d.slots[s].idx)
	for i := int(d.slots[s].seg); i > 0; i -= i & -i {
		pos += int(d.fen[i])
		d.stats.Steps++
	}
	return pos
}

// Locate returns the segment holding canonical position p, and p's offset
// within it.
func (d *DeltaContext) Locate(p int) (seg, off int) {
	if p < 0 || p >= d.n {
		panic(fmt.Sprintf("smt: position %d out of range 0..%d", p, d.n))
	}
	// Descend to the largest number of whole segments that end at or before
	// p: the next segment holds it.
	bit := 1
	for bit<<1 < len(d.fen) {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		if next := seg + bit; next < len(d.fen) && int(d.fen[next]) <= p {
			seg, p = next, p-int(d.fen[next])
		}
		d.stats.Steps++
	}
	return seg, p
}

// --- transactions ---

// Begin opens a transaction: every edit and Check until Commit or Rollback
// is journalled, and Rollback leaves the context — atoms, graph, standing
// fixed point, pending changes, memoized result — as
// Begin found it, so the next Check answers what, and how (cached, delta),
// it would have answered had the transaction never run. Only the monotone
// counters of Stats keep counting. Transactions do not nest.
func (d *DeltaContext) Begin() {
	if d.tx.open {
		panic("smt: DeltaContext.Begin inside a transaction")
	}
	tx := &d.tx
	tx.open = true
	tx.built, tx.vars = d.built, len(d.nodes)
	tx.changed = append(tx.changed[:0], d.changed...)
	tx.res, tx.resValid = d.res, d.resValid
	tx.lastAffected, tx.lastDuration = d.stats.LastAffected, d.stats.LastDuration
}

// Journal reports the open transaction's size: segment replacements
// recorded, and undo entries in all (segment operations plus journalled
// distances).
func (d *DeltaContext) Journal() (splices, entries int) {
	return d.tx.replaced, len(d.tx.ops) + len(d.tx.dist)
}

// Commit closes the transaction, keeping its edits: the slots they displaced
// are freed.
func (d *DeltaContext) Commit() {
	if !d.tx.open {
		panic("smt: DeltaContext.Commit outside a transaction")
	}
	for _, u := range d.tx.ops {
		d.free = append(d.free, u.old...)
	}
	d.tx.close()
}

// Rollback closes the transaction and undoes it; see Begin.
func (d *DeltaContext) Rollback() {
	tx := &d.tx
	if !tx.open {
		panic("smt: DeltaContext.Rollback outside a transaction")
	}
	tx.open = false // the inverse operations are not themselves journalled
	for i := len(tx.ops) - 1; i >= 0; i-- {
		switch u := tx.ops[i]; u.kind {
		case 'r':
			fresh := d.segs[u.seg]
			d.link(fresh, -1)
			d.free = append(d.free, fresh...)
			d.link(u.old, +1)
			d.segs[u.seg] = u.old
			d.n += len(u.old) - len(fresh)
			d.fenAdd(u.seg, len(u.old)-len(fresh))
		case 'i':
			d.moveSegs(int(u.seg), slices.Delete(d.segs, int(u.seg), int(u.seg)+1))
		case 'd':
			d.moveSegs(int(u.seg), slices.Insert(d.segs, int(u.seg), nil))
		}
	}
	for i := len(tx.dist) - 1; i >= 0; i-- {
		d.nodes[tx.dist[i].node].dist = tx.dist[i].dist
	}
	d.clearChanged()
	d.nodes = d.nodes[:tx.vars] // no atom reaches the nodes grown since Begin
	for _, v := range tx.changed {
		d.markChanged(v)
	}
	d.built = tx.built
	d.res, d.resValid = tx.res, tx.resValid
	d.stats.LastAffected, d.stats.LastDuration = tx.lastAffected, tx.lastDuration
	tx.close()
}

func (tx *deltaTx) close() {
	tx.open = false
	tx.res = Result{}
	clear(tx.ops) // drop the displaced slot lists
	tx.ops, tx.replaced = tx.ops[:0], 0
	tx.dist = tx.dist[:0]
}

// --- segment edits ---

func (d *DeltaContext) checkSeg(id, limit int) error {
	if id < 0 || id >= limit {
		return fmt.Errorf("smt: segment %d out of range 0..%d", id, limit)
	}
	return nil
}

// journal records the inverse of a segment operation while a transaction is
// open and reports whether it did.
func (d *DeltaContext) journal(u segUndo) bool {
	if d.tx.open {
		d.tx.ops = append(d.tx.ops, u)
	}
	return d.tx.open
}

// SetSeg replaces the atoms of segment id with add and reports whether that
// changed anything; a segment given its own content again is left alone.
// The segment's old slots are unlinked and new ones linked — no other slot,
// edge or position is touched. An id the graph has not reached grows it, and
// the heads of every touched edge are recorded as changed, so the next Check
// can re-decide just the region they reach. An atom over the zero anchor or a
// negative id is an error, and changes nothing.
func (d *DeltaContext) SetSeg(id int, add []DenseConstraint) (changed bool, err error) {
	if err := d.checkSeg(id, len(d.segs)); err != nil {
		return false, err
	}
	if err := checkIDs(add, math.MaxInt32); err != nil {
		return false, err
	}
	old := d.segs[id]
	same := len(old) == len(add)
	for i := 0; same && i < len(add); i++ {
		same = d.atom(old[i]) == add[i]
	}
	d.stats.Steps += len(old) + len(add)
	if same {
		return false, nil
	}
	obsDeltaSplices.Inc()
	d.resValid = false
	var fresh []int32
	if len(add) > 0 {
		fresh = make([]int32, len(add))
	}
	for i := range add {
		rec := d.slot(add[i], id, i)
		if n := len(d.free); n > 0 {
			fresh[i], d.free = d.free[n-1], d.free[:n-1]
			d.slots[fresh[i]] = rec
		} else {
			fresh[i] = int32(len(d.slots))
			d.slots = append(d.slots, rec)
		}
	}
	d.link(old, -1)
	d.link(fresh, +1)
	d.segs[id] = fresh
	d.n += len(fresh) - len(old)
	d.fenAdd(int32(id), len(fresh)-len(old))
	if d.journal(segUndo{kind: 'r', seg: int32(id), old: old}) {
		d.tx.replaced++
	} else {
		d.free = append(d.free, old...)
	}
	return true, nil
}

// InsertSeg inserts an empty segment at position id; later segments move up
// by one.
func (d *DeltaContext) InsertSeg(id int) error {
	if err := d.checkSeg(id, len(d.segs)+1); err != nil {
		return err
	}
	d.moveSegs(id, slices.Insert(d.segs, id, nil))
	d.journal(segUndo{kind: 'i', seg: int32(id)})
	return nil
}

// RemoveSeg deletes segment id and the atoms it holds; later segments move
// down by one.
func (d *DeltaContext) RemoveSeg(id int) error {
	if _, err := d.SetSeg(id, nil); err != nil {
		return err
	}
	d.moveSegs(id, slices.Delete(d.segs, id, id+1))
	d.journal(segUndo{kind: 'd', seg: int32(id)})
	return nil
}

// moveSegs installs a segment sequence that differs from the current one
// from position from on: the slots behind it learn their new segment and the
// Fenwick tree is rebuilt — the one cost here that grows with the list,
// paid by topology edits only.
func (d *DeltaContext) moveSegs(from int, segs [][]int32) {
	d.segs = segs
	for p := from; p < len(segs); p++ {
		for _, s := range segs[p] {
			d.slots[s].seg = int32(p)
		}
	}
	d.fenRebuild()
}

// slot returns atom a as the unlinked slot at index idx of segment seg,
// growing the graph to its ids. A fresh node starts at the virtual-source
// distance like every node of a fresh solve.
func (d *DeltaContext) slot(a DenseConstraint, seg, idx int) deltaSlot {
	for v := max(a.A, a.B); int(v) >= len(d.nodes); {
		d.nodes = append(d.nodes, deltaNode{out: -1, in: -1})
	}
	return deltaSlot{from: a.B, to: a.A, seg: int32(seg), idx: int32(idx)}
}

// atom reads slot s back as the atom it holds.
func (d *DeltaContext) atom(s int32) DenseConstraint {
	return DenseConstraint{A: d.slots[s].to, B: d.slots[s].from}
}

// link puts the slots' edges on their endpoints' lists (dir +1) or takes
// them off (dir −1); the slots stay allocated either way.
func (d *DeltaContext) link(slots []int32, dir int32) {
	for _, s := range slots {
		d.relink(s, dir)
	}
	d.stats.Steps += len(slots)
}

// relink puts slot s's edge on (dir +1) or takes it off (dir −1) its
// endpoints' lists, moves the endpoints' reference counts with it, and marks
// its head changed.
func (d *DeltaContext) relink(s int32, dir int32) {
	x := &d.slots[s]
	from, to := &d.nodes[x.from], &d.nodes[x.to]
	if dir > 0 {
		x.outPrev, x.outNext, from.out = -1, from.out, s
		x.inPrev, x.inNext, to.in = -1, to.in, s
		if x.outNext >= 0 {
			d.slots[x.outNext].outPrev = s
		}
		if x.inNext >= 0 {
			d.slots[x.inNext].inPrev = s
		}
	} else {
		if x.outPrev >= 0 {
			d.slots[x.outPrev].outNext = x.outNext
		} else {
			from.out = x.outNext
		}
		if x.outNext >= 0 {
			d.slots[x.outNext].outPrev = x.outPrev
		}
		if x.inPrev >= 0 {
			d.slots[x.inPrev].inNext = x.inNext
		} else {
			to.in = x.inNext
		}
		if x.inNext >= 0 {
			d.slots[x.inNext].inPrev = x.inPrev
		}
	}
	from.ref += dir
	to.ref += dir
	d.markChanged(x.to)
	d.stats.Steps++
}

func (d *DeltaContext) markChanged(v int32) {
	if !d.nodes[v].changed {
		d.nodes[v].changed = true
		d.changed = append(d.changed, v)
	}
}

func (d *DeltaContext) clearChanged() {
	for _, v := range d.changed {
		d.nodes[v].changed = false
	}
	d.changed = d.changed[:0]
}

// --- checking ---

// Check decides the current atom list. Results are memoized until the next
// edit. With a fixed point standing, the check is a delta solve: one engine
// solve of the affected region, seeded from the standing distances around
// it. Every check before the first sat one decides the sub-system induced on
// every referenced node. Either way verdicts and minimal cores are
// bit-for-bit those of a fresh solve. The result names nothing, as
// SolveDense's does: a sat one carries no model (Model reads it), an unsat
// one its core as CoreIdx alone, positions whose atoms At reads back.
func (d *DeltaContext) Check(ctx context.Context) (Result, error) {
	if d.resValid {
		d.stats.CacheHits++
		return d.res, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	d.stats.Checks++
	res, err := d.solve(ctx)
	if err != nil {
		return Result{}, err
	}
	res.Stats.Duration = time.Since(start)
	d.stats.LastDuration = res.Stats.Duration
	d.res, d.resValid = res, true
	return res, nil
}

// Model reads the satisfying assignment of the last Check off the standing
// fixed point, by id: model[v] is bit for bit what a fresh solve assigns
// variable v, at least 1, for every v some atom references, and 0 for every
// other index (the zero anchor, orphans, ids no atom ever named). It is nil
// unless that Check was sat and no edit came after it.
func (d *DeltaContext) Model() []int {
	if !d.built || !d.resValid || !d.res.Sat {
		return nil
	}
	// A fresh solve's zero node stands one below the lowest variable, over
	// that variable's positivity edge.
	d0 := 0
	for v := 1; v < len(d.nodes); v++ {
		if d.nodes[v].ref > 0 {
			d0 = min(d0, d.nodes[v].dist)
		}
	}
	d0--
	model := make([]int, len(d.nodes))
	for v := 1; v < len(d.nodes); v++ {
		if d.nodes[v].ref > 0 {
			model[v] = d.nodes[v].dist - d0
		}
	}
	return model
}

// solve decides the graph with one engine solve, of the sub-system induced
// on the node set d.region: the atoms whose edges leave a node of the set, in
// canonical order, over region-local ids (a node's index in d.region plus
// one, with the zero anchor at 0), on a pooled engine. With no fixed point
// standing the set is every referenced node; with one, it is the affected
// region, each node seeded from its in-edges that come from outside it. A sat
// verdict installs the set's distances as the fixed point; an unsat one maps
// its core back to canonical positions and moves nothing.
func (d *DeltaContext) solve(ctx context.Context) (res Result, err error) {
	ctx, sp := obs.StartSpan(ctx, "region")
	defer sp.End()
	nodes, slots, steps := d.nodes, d.slots, 0
	region, items := d.region[:0], d.items[:0]
	delta := d.built
	if delta {
		region = append(region, d.changed...)
		d.stats.DeltaSolves++
	} else {
		for v := int32(1); v < int32(len(nodes)); v++ {
			if nodes[v].ref > 0 {
				region = append(region, v)
			}
		}
		d.stats.FullSolves++
	}
	for i, v := range region {
		nodes[v].local = int32(i + 1)
	}
	// Walk the set's out-edges, keying its atoms for sorting and growing it to
	// its forward closure: from the changed nodes, the affected region, the
	// only nodes whose distance can move and the home of every negative
	// cycle. The set of every referenced node is closed already.
	for qi := 0; qi < len(region); qi++ {
		for ed := nodes[region[qi]].out; ed >= 0; ed = slots[ed].outNext {
			steps++
			items = append(items, uint64(d.position(ed))<<32|uint64(ed))
			if v := slots[ed].to; nodes[v].local == 0 {
				region = append(region, v)
				nodes[v].local = int32(len(region))
			}
		}
	}
	slices.Sort(items)
	d.region, d.items = region, items
	d.stats.LastAffected = 0
	if delta {
		d.stats.LastAffected = len(region)
	}
	e := newEngine()
	defer e.release()
	defer e.flushStats()
	e.edges = e.edges[:0]
	for i, it := range items {
		x := &slots[uint32(it)]
		e.edges = append(e.edges, dlEdge{from: nodes[x.from].local, to: nodes[x.to].local, assertIdx: int32(i), strict: true})
	}
	e.seal(len(region)+1, len(items))
	// Seed each node with the least standing distance, minus one, that an
	// in-edge from outside the set brings. Before a fixed point stands no
	// in-edge comes from outside and every distance is 0.
	if delta {
		for i, v := range region {
			for ed := nodes[v].in; ed >= 0; ed = slots[ed].inNext {
				steps++
				if u := slots[ed].from; nodes[u].local == 0 {
					e.dist[i+1] = min(e.dist[i+1], nodes[u].dist-1)
				}
			}
		}
	}
	for _, v := range region {
		nodes[v].local = 0
	}
	d.stats.Steps += steps + len(items)

	sat, core, err := e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, err
	}
	res.Sat = sat
	res.Stats.Assertions = d.n
	if delta { // the graph's size, with a whole solve's positivity edges
		res.Stats.Variables = len(nodes) - 1
		res.Stats.Edges = d.n + res.Stats.Variables
	}
	sp.AttrInt("nodes", int64(len(region)))
	sp.AttrInt("edges", int64(len(e.edges)))
	sp.AttrInt("probes", int64(res.Stats.Probes))
	if !sat {
		res.CoreIdx = make([]int, len(core))
		for k, i := range core {
			res.CoreIdx[k] = int(items[i] >> 32)
		}
		sp.AttrInt("core", int64(len(core)))
		return res, nil
	}
	// The set's distances are the fixed point from now on. Nothing moves a
	// distance while none stands, so an orphan is still at the virtual
	// source, where a node without in-edges belongs.
	for i, v := range region {
		if d.tx.open {
			d.tx.dist = append(d.tx.dist, distUndo{v, nodes[v].dist})
		}
		nodes[v].dist = e.dist[i+1]
	}
	d.built = true
	d.clearChanged()
	return res, nil
}
