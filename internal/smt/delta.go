// Delta solving: the verification-as-a-service extension of the engine. A
// Context interns variables and builds its constraint graph once per Check;
// a DeltaContext interns and links its graph once, at construction, and
// keeps it alive *across* checks, so a what-if that touches one session or
// ranking re-links the edges of the segments it replaces and re-probes only
// the region of the constraint graph reachable from them, instead of
// rebuilding and re-solving everything.
//
// A DeltaContext takes the one atom §IV-B emits for an SPP instance: a strict
// preference or strict monotonicity entry, A < B between two named variables
// (Less). That is the difference constraint A − B ≤ −1, one edge B → A of
// weight −1. Behind the string door every variable is also positive (x ≥ 1,
// an edge x → 0 of weight −1 into the zero node), but no atom here mentions a
// constant, so no edge ever leaves the zero node: it is a sink, it lies on no
// cycle, and its distance is one below the lowest variable's. So positivity
// can never take part in a contradiction (UsesPositivity is always false),
// and the resident graph leaves the zero node out: a probe never relaxes or
// marks it, and Model reads its distance off the variables'. Node 0 stays
// reserved all the same, so a fresh context numbers its graph as the string
// door does, and a solve hands the engine the zero anchor at local id 0.
//
// Storage is slot-stable. The assertion list is a sequence of segments (the
// unit callers edit by); an atom lives in a slot that never moves, the slot
// is its edge and sits on intrusive doubly-linked out- and in-lists per node,
// and its canonical position — needed only to order a region's atoms and to
// report CoreIdx — is a Fenwick prefix over segment lengths plus its index in
// its segment. Replacing a segment touches its own slots and their list
// neighbours; nothing is renumbered and no tail moves.
//
// The graph is linked from construction on, whatever the verdicts. Until a
// check is sat no fixed point stands, and a check decides the sub-system
// induced on every referenced node (orphans stay out) with the same function
// as a region core below. A sat verdict installs the standing state: the
// fixed point of the last *satisfiable* graph G0, plus the changed set — the
// heads of every edge deleted or added since G0, accumulated over however
// many edits and unsat verdicts came between. A node's fixed-point distance
// is the cheapest walk ending at it (from the virtual source that seeds every
// node at 0). Take the forward closure of the changed set over the out-edges
// of the current graph G — the affected region. A walk of G0 into a node v
// outside it either survives intact in G, or lost an edge whose head is
// changed and whose remaining suffix would put v inside the region; a walk of
// G into v cannot use an added edge for the same reason. So v keeps its
// distance, and SPFA re-seeded on the region alone (its in-lists relaxed once
// from the standing distances outside it) converges to the fixed point a full
// solve of G would reach. A negative cycle of G must contain an edge G0
// lacked — G0 was satisfiable — so it lies inside the region and trips SPFA's
// enqueue bound, the region's size.
//
// When it does, the distances the probe reset are put back, the changed set
// stays pending, and the exact verdict and deletion-minimal core come from
// the region too. The proof obligation: the region is forward-closed, so
// every negative cycle of every *subset* of the atoms lies inside it (the
// argument above never used that G was the whole list). The deletion loop
// walks the list from last to first and keeps an atom exactly when the
// remainder without it has no negative cycle: for an atom whose edge leaves
// the region that is the same question asked of the region's atoms alone,
// and every other atom is on no negative cycle and is dropped. So the
// sub-system induced on the region — its atoms in canonical order over dense
// region-local ids, decided by the engine's one solve on a pooled engine —
// has the whole list's core, position for position once mapped back: bit for
// bit a fresh Context.Check, the differential oracle the tests and the
// server's -check-oracle mode enforce. The standing fixed point is not
// involved, so the repair that follows an unsat verdict is a delta solve.
//
// Transactions make a what-if cost its edit. Between Begin and Rollback the
// context journals every segment operation, the distance of every node a
// successful re-probe reset or a whole solve installed, and — at Begin —
// whether a fixed point stood, the variable count, the pending changed set
// and the memoized result. A replaced segment's slots stay allocated,
// unlinked, until Commit frees them; Rollback replays the journal backwards
// — unlink and free what was added, re-link what was removed — restores the
// journalled distances (nodes outside every probed region never moved), drops
// the variables interned since Begin, and reinstates the rest of what Begin
// found.

package smt

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"fsr/internal/obs"
)

// Less is the atom A < B between two named variables, the one atom a
// DeltaContext takes. A and B may be the same variable: x < x is a one-atom
// negative cycle.
type Less struct{ A, B Var }

// assertion spells the atom for the string door.
func (l Less) assertion() Assertion {
	return Assertion{Rel: Lt, A: Term{Var: l.A}, B: Term{Var: l.B}}
}

// checkNames rejects an atom without two variable names: the delta door
// takes no constants.
func checkNames(atoms []Less) error {
	for _, a := range atoms {
		if a.A == "" || a.B == "" {
			return fmt.Errorf("smt: atom %q < %q: empty variable name", a.A, a.B)
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
	// DeltaSolves counts checks answered from the affected region: the
	// re-probe and, when it finds a negative cycle, the region's exact core.
	DeltaSolves int
	// FullSolves counts checks that solved the whole assertion list: every
	// check until the first sat verdict leaves a fixed point to re-probe from.
	FullSolves int
	// LastAffected is the size of the affected region of the last delta
	// solve (0 when the last solve was full).
	LastAffected int
	// LastDuration is the wall time of the last solving Check.
	LastDuration time.Duration
	// Steps counts the slots, edges, list links and Fenwick entries read or
	// written by edits and delta checks: what an edit cost, without a clock.
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
	varID   map[Var]int32
	names   []Var // by node; node 0 is the string door's zero node, never linked
	nodes   []deltaNode
	changed []int32

	// Scratch: the affected region (a node's index plus one is its
	// region-local id), the probe's ring queue, and the region's atoms keyed
	// for sorting.
	region []int32
	queue  []int32
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

// deltaNode is one variable of the graph. A variable whose atoms were all
// removed stays as an orphan, with no edge, until a Rollback drops it; ref
// masks orphans out of models and whole solves, which keeps both bit-for-bit
// equal to a fresh solve's.
type deltaNode struct {
	dist                   int
	out, in                int32 // list heads, −1 for none
	ref                    int32 // atom references
	cnt                    int32 // enqueue count during a probe, region-local id after one
	inQ, changed, inRegion bool
}

// deltaTx is the undo journal of one transaction: what Begin found, and
// what to replay backwards to get there again.
type deltaTx struct {
	open bool

	built        bool
	vars         int     // node count
	changed      []int32 // the pending changed set
	res          Result
	resValid     bool
	lastAffected int
	lastDuration time.Duration

	ops      []segUndo
	replaced int // SetSeg entries among ops
	// dist holds the distances successful re-probes and a first sat solve
	// replaced. Every probe stages its region's here, transaction or not, to
	// put them back if it finds a negative cycle.
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

// NewDeltaContext returns a delta context over the atoms, cut into
// consecutive segments of the given lengths; nil segLen makes them one
// segment. Every atom is interned and linked in canonical order. An atom
// with an empty variable name is an error.
func NewDeltaContext(atoms []Less, segLen []int) (*DeltaContext, error) {
	if err := checkNames(atoms); err != nil {
		return nil, err
	}
	if segLen == nil {
		segLen = []int{len(atoms)}
	}
	d := &DeltaContext{
		segs:  make([][]int32, len(segLen)),
		slots: make([]deltaSlot, len(atoms)),
		n:     len(atoms),
		varID: make(map[Var]int32, len(atoms)), // about one variable per atom
		names: append(make([]Var, 0, len(atoms)+1), ""),
		nodes: append(make([]deltaNode, 0, len(atoms)+1), deltaNode{out: -1, in: -1}),
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

// Assertions renders the current atom list in canonical order as the string
// door spells it.
func (d *DeltaContext) Assertions() []Assertion {
	out := make([]Assertion, 0, d.n)
	for _, seg := range d.segs {
		for _, s := range seg {
			out = append(out, d.atom(s).assertion())
		}
	}
	return out
}

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
	c.varID, c.names, c.nodes = maps.Clone(d.varID), slices.Clone(d.names), slices.Clone(d.nodes)
	c.changed = slices.Clone(d.changed)
	c.region, c.queue, c.items, c.tx = nil, nil, nil, deltaTx{}
	return &c
}

// --- canonical positions ---

// fenRebuild recomputes the Fenwick tree from the segment lengths, after the
// segment sequence itself changed.
func (d *DeltaContext) fenRebuild() {
	d.fen = growInt32(d.fen, len(d.segs)+1)
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
// fixed point, interned variables, pending changes, memoized result — as
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
	// Variables interned since Begin are referenced by nothing now.
	for v := len(d.nodes) - 1; v >= tx.vars; v-- {
		delete(d.varID, d.names[v])
	}
	clear(d.names[tx.vars:])
	d.names, d.nodes = d.names[:tx.vars], d.nodes[:tx.vars]
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
// edge or position is touched. New variables are interned and the heads of
// every touched edge recorded as changed, so the next Check can re-probe just
// the region they reach. An atom with an empty variable name is an error,
// and changes nothing.
func (d *DeltaContext) SetSeg(id int, add []Less) (changed bool, err error) {
	if err := d.checkSeg(id, len(d.segs)); err != nil {
		return false, err
	}
	if err := checkNames(add); err != nil {
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
// interning A before B as the string door does.
func (d *DeltaContext) slot(a Less, seg, idx int) deltaSlot {
	to := d.intern(a.A)
	return deltaSlot{from: d.intern(a.B), to: to, seg: int32(seg), idx: int32(idx)}
}

// atom reads slot s back as the atom it holds.
func (d *DeltaContext) atom(s int32) Less {
	return Less{A: d.names[d.slots[s].to], B: d.names[d.slots[s].from]}
}

// link puts the slots' edges on their endpoints' lists (dir +1) or takes
// them off (dir −1); the slots stay allocated either way.
func (d *DeltaContext) link(slots []int32, dir int32) {
	for _, s := range slots {
		d.relink(s, dir)
	}
	d.stats.Steps += len(slots)
}

// intern returns the node of a variable, minting one for a first
// occurrence. A fresh node starts at the virtual-source distance like every
// node of a fresh solve.
func (d *DeltaContext) intern(v Var) int32 {
	id, ok := d.varID[v]
	if !ok {
		id = int32(len(d.nodes))
		d.varID[v] = id
		d.names = append(d.names, v)
		d.nodes = append(d.nodes, deltaNode{out: -1, in: -1})
	}
	return id
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
// edit. With a fixed point standing, the check is a delta solve: forward
// closure of the changed nodes, boundary relaxation, seeded SPFA, and — when
// that finds a negative cycle — the exact core of the region's sub-system.
// Every check before the first sat one decides the sub-system induced on
// every referenced node. Either way verdicts and minimal cores are
// bit-for-bit those of a fresh solve, and UsesPositivity is always false (see
// the file header). A sat result carries no model: Model renders it.
func (d *DeltaContext) Check(ctx context.Context) (Result, error) {
	if d.resValid {
		d.stats.CacheHits++
		obsCacheHits.Inc()
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

// Model renders the satisfying assignment of the last Check off the
// standing fixed point — bit for bit a fresh solve's model, orphaned
// variables masked out. It is nil unless that Check was sat and no edit
// came after it.
func (d *DeltaContext) Model() map[Var]int {
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
	model := make(map[Var]int, len(d.names)-1)
	for v := 1; v < len(d.nodes); v++ {
		if d.nodes[v].ref > 0 {
			model[d.names[v]] = d.nodes[v].dist - d0
		}
	}
	return model
}

// solve decides the graph. With no fixed point standing it decides the
// sub-system induced on every referenced node. With one, it re-probes the
// affected region and, if that finds a negative cycle, decides the
// sub-system induced on the region.
func (d *DeltaContext) solve(ctx context.Context) (res Result, err error) {
	if !d.built {
		d.stats.FullSolves++
		obsFullSolves.Inc()
		d.stats.LastAffected = 0
		d.region = d.region[:0]
		for v := int32(1); v < int32(len(d.nodes)); v++ {
			if d.nodes[v].ref > 0 {
				d.region = append(d.region, v)
			}
		}
		err = d.solveInduced(ctx, &res)
		return res, err
	}
	if res.Sat = d.probe(&res.Stats); !res.Sat {
		if err := d.solveInduced(ctx, &res); err != nil {
			return Result{}, err
		}
	}
	res.Stats.Assertions, res.Stats.Variables = d.n, len(d.nodes)-1
	res.Stats.Edges = d.n + res.Stats.Variables // with the string door's positivity edges
	d.stats.DeltaSolves++
	obsDeltaSolves.Inc()
	return res, nil
}

// probe re-solves the region of the graph the changed set reaches, leaving
// it in d.region, and reports whether it converged. If SPFA tripped the
// negative-cycle bound, the region's distances are back where they stood and
// the changed set is still pending. Inside a transaction the distances a
// successful probe replaced are journalled for Rollback.
func (d *DeltaContext) probe(st *Stats) (sat bool) {
	d.region = d.region[:0]
	d.stats.LastAffected = 0
	if len(d.changed) == 0 {
		// Nothing touched the graph since the fixed point (e.g. an edit that
		// put back what the last one removed): the standing distances are
		// the answer.
		return true
	}

	// Affected region: forward closure of the changed nodes over out-edges.
	// Only nodes in this set can see their fixed-point distance move, and
	// any negative cycle lies entirely inside it.
	nodes, slots, steps := d.nodes, d.slots, 0
	region := d.region
	for _, v := range d.changed {
		if !nodes[v].inRegion {
			nodes[v].inRegion = true
			region = append(region, v)
		}
	}
	for qi := 0; qi < len(region); qi++ {
		for ed := nodes[region[qi]].out; ed >= 0; ed = slots[ed].outNext {
			steps++
			if v := slots[ed].to; !nodes[v].inRegion {
				nodes[v].inRegion = true
				region = append(region, v)
			}
		}
	}
	d.region = region
	n := int32(len(region))
	d.stats.LastAffected = len(region)

	// Reset the region to virtual-source distances, remembering what stood
	// there, and seed the queue with it; boundary edges (unaffected tail →
	// affected head, found on the region's in-lists) are relaxed once from
	// the standing distances, which never move during the re-probe.
	tx := &d.tx
	mark := len(tx.dist)
	d.queue = growInt32(d.queue, len(region))
	for i, v := range region {
		tx.dist = append(tx.dist, distUndo{v, nodes[v].dist})
		nodes[v].dist, nodes[v].cnt, nodes[v].inQ = 0, 1, true
		d.queue[i] = v
	}
	for _, v := range region {
		for ed := nodes[v].in; ed >= 0; ed = slots[ed].inNext {
			steps++
			if u := slots[ed].from; !nodes[u].inRegion {
				nodes[v].dist = min(nodes[v].dist, nodes[u].dist-1)
			}
		}
	}

	// SPFA over the region's ring queue. A node enqueued more often than the
	// region has nodes lies on (or hangs off) a negative cycle.
	relax, head, size := 0, int32(0), n
	sat = true
	for size > 0 && sat {
		u := d.queue[head]
		head = (head + 1) % n
		size--
		nodes[u].inQ = false
		du := nodes[u].dist - 1 // every edge weighs −1
		for ed := nodes[u].out; ed >= 0; ed = slots[ed].outNext {
			steps++
			v := slots[ed].to
			nv := &nodes[v]
			if du >= nv.dist {
				continue
			}
			relax++
			nv.dist = du
			if nv.inQ {
				continue
			}
			if nv.cnt++; nv.cnt > n {
				sat = false
				break
			}
			d.queue[(head+size)%n] = v
			size++
			nv.inQ = true
		}
	}
	st.Probes, st.Relaxations = 1, relax
	obsProbes.Inc()
	obsRelaxations.Add(int64(relax))
	d.stats.Steps += steps + 2*len(region)

	if !sat {
		// Only nodes of the region were relaxed or queued; solveInduced clears
		// their region marks.
		for _, u := range tx.dist[mark:] {
			nodes[u.node].dist, nodes[u.node].inQ = u.dist, false
		}
		tx.dist = tx.dist[:mark]
		return false
	}
	for _, v := range region {
		nodes[v].inRegion = false
	}
	if !tx.open {
		tx.dist = tx.dist[:mark] // nobody to roll back for
	}
	d.clearChanged()
	return true
}

// solveInduced decides the sub-system induced on the node set d.region: the
// atoms whose edges leave a node of the set, in canonical order, over local
// ids (a node's index in d.region plus one, with the zero anchor at 0), by
// the engine's one solve on a pooled engine, with a core mapped back to
// canonical positions. With no fixed point standing the set is every
// referenced node, the sub-system is the whole list, and a sat verdict
// installs the fixed point. Otherwise the set is the affected region of a
// probe that found a negative cycle, and by the argument in the file header
// its sub-system has the whole list's answer.
func (d *DeltaContext) solveInduced(ctx context.Context, res *Result) error {
	name := "region-core"
	if !d.built {
		name = "solve"
	}
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	items, steps := d.items[:0], 0
	for i, u := range d.region {
		d.nodes[u].cnt, d.nodes[u].inRegion = int32(i+1), false // a probe is done with both
		for ed := d.nodes[u].out; ed >= 0; ed = d.slots[ed].outNext {
			steps++
			items = append(items, uint64(d.position(ed))<<32|uint64(ed))
		}
	}
	slices.Sort(items)
	d.items = items
	d.stats.Steps += steps + len(items)

	e := enginePool.Get().(*dlEngine)
	defer e.release()
	defer e.flushStats()
	e.edges = e.edges[:0]
	for i, it := range items {
		x := &d.slots[uint32(it)]
		e.edges = append(e.edges, dlEdge{from: d.nodes[x.from].cnt, to: d.nodes[x.to].cnt, w: -1, assertIdx: int32(i)})
	}
	e.idVar = growVars(e.idVar, len(d.region)+1) // the set's dense universe, nothing interned
	e.seal(len(items))
	var st Stats
	sat, core, usesPositivity, err := e.solve(ctx, &st)
	if err != nil {
		return err
	}
	st.Assertions = d.n
	st.Probes, st.Relaxations = st.Probes+res.Stats.Probes, st.Relaxations+res.Stats.Relaxations
	res.Sat, res.Stats, res.UsesPositivity = sat, st, usesPositivity
	sp.AttrInt("nodes", int64(len(d.region)))
	sp.AttrInt("edges", int64(len(e.edges)))
	sp.AttrInt("probes", int64(st.Probes))
	if sat {
		if d.built {
			// SPFA's enqueue bound trips only on a negative cycle.
			return errors.New("smt: delta probe found a negative cycle the region's solve does not")
		}
		// The fixed point stands from now on. Nothing moves a distance while
		// none stands, so an orphan is still at the virtual source, where a
		// node without in-edges belongs.
		for i, v := range d.region {
			if d.tx.open {
				d.tx.dist = append(d.tx.dist, distUndo{v, d.nodes[v].dist})
			}
			d.nodes[v].dist = e.dist[i+1]
		}
		d.built = true
		d.clearChanged()
		return nil
	}
	res.Core, res.CoreIdx = make([]Assertion, len(core)), make([]int, len(core))
	for k, i := range core {
		res.CoreIdx[k] = int(items[i] >> 32)
		res.Core[k] = d.atom(int32(uint32(items[i]))).assertion()
	}
	sp.AttrInt("core", int64(len(core)))
	return nil
}
