// Delta solving: the verification-as-a-service extension of the pooled
// incremental engine. A Context interns variables and builds its constraint
// graph once per Check; a DeltaContext keeps that graph alive *across*
// checks, so a what-if request that touches one session or ranking patches
// the edge list in place and re-probes only the region of the constraint
// graph reachable from the touched assertions, instead of rebuilding and
// re-solving everything.
//
// The standing state is the fixed point of the last *satisfiable* graph G0
// plus the changed set: the heads of every edge deleted or added since G0
// (and the zero node when fresh variables brought new positivity edges),
// accumulated over however many splices and unsat verdicts came between.
// The invariant that makes re-probing from it sound: a node's fixed-point
// distance is the cheapest walk ending at it (from the virtual source that
// seeds every node at 0). Take the forward closure of the changed set over
// the out-edges of the current graph G — the affected region. A walk of G0
// into a node v outside it either survives intact in G, or lost an edge
// whose head is changed and whose remaining suffix would put v inside the
// region; a walk of G into v cannot use an added edge for the same reason.
// So the walks into v are the same in G0 and G, v keeps its distance, and
// SPFA re-seeded on the region alone (boundary edges relaxed once from the
// standing distances outside it) converges to the fixed point a full solve
// of G would reach. A negative cycle of G must contain an edge G0 lacked —
// G0 was satisfiable — so it lies inside the region and trips SPFA's
// enqueue-count bound.
//
// When it does, the distances the probe reset are put back, the changed set
// stays pending, and the exact verdict and deletion-minimal core come from
// the string door's one solve on a pooled engine over the current assertion
// list — bit for bit a fresh Context.Check, the differential oracle the
// tests and the server's -check-oracle mode enforce. The private engine
// never minimizes, so an unsat verdict costs the standing fixed point
// nothing and the repair that follows is a delta solve.
//
// Transactions make a what-if cost its edit. Between Begin and Rollback the
// context journals the inverse of every splice, the distance of every node
// a successful re-probe reset, and — at Begin — the intern table's
// high-water mark, the pending changed set and the memoized result.
// Rollback replays the journal backwards: the inverse splices restore the
// assertion and edge lists (edge order is a function of assertion order and
// variable ids, so they come back element for element), the journalled
// distances restore the fixed point (nodes outside every probed region
// never moved), variables interned since Begin are dropped with their
// positivity edges, and the changed set and memoized result are those of
// Begin. Predecessor edges are not journalled: they index an edge list
// every splice renumbers, and nothing on the delta path reads them.

package smt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// DeltaStats counts solver activity on a DeltaContext, for observability:
// the server exports these as Prometheus counters.
type DeltaStats struct {
	// Checks counts Check calls that actually solved (cache misses).
	Checks int
	// CacheHits counts Check calls answered from the memoized result
	// (no splice since the last solve).
	CacheHits int
	// DeltaSolves counts checks answered by the incremental re-probe.
	DeltaSolves int
	// FullSolves counts checks that solved the whole assertion list (until
	// the first sat verdict leaves a fixed point to re-probe from, and for
	// the exact core whenever a delta probe finds a negative cycle).
	FullSolves int
	// LastAffected is the size of the affected region of the last delta
	// solve (0 when the last solve was full).
	LastAffected int
	// LastDuration is the wall time of the last solving Check.
	LastDuration time.Duration
}

// DeltaContext is a mutable logical context with incremental solving:
// Splice edits the assertion list in place and Check re-decides it, reusing
// the converged state of the last sat solve when there is one. It is the
// solver-level "delta verification" entry point of the fsr serve daemon.
//
// A DeltaContext is not safe for concurrent use. Unlike Context, it owns a
// private engine (never pooled), because its value is exactly the state
// carried between checks.
type DeltaContext struct {
	asserts  []Assertion
	numQuant int

	e *dlEngine

	// built: e holds the graph of asserts, every ground assertion active,
	// and e.dist the fixed point of that graph as of the last sat solve;
	// changed lists what moved since. False until a first solve is sat.
	built    bool
	csrDirty bool

	// edgeOff[i] is the offset of assertion i's edges in e.edges;
	// edgeOff[len(asserts)] is the total assertion-edge count (positivity
	// edges follow). Quantified assertions own zero edges.
	edgeOff []int32
	// varRef counts ground-assertion references per variable id. Interning
	// outlives the assertions that caused it (except across a Rollback), so
	// a variable whose assertions were all removed stays in the graph as an
	// orphan (positivity edge only, no in-edges); varRef masks orphans out
	// of models, which keeps them bit-for-bit equal to a fresh solve's.
	varRef []int32

	// changed marks nodes whose in-edge set was touched by splices since
	// the standing fixed point.
	changed   []int32
	changedIn []bool

	// Scratch: the affected region, and the edges, offsets and mask of a
	// splice's additions.
	affected  []int32
	inAff     []bool
	addEdges  []dlEdge
	addOff    []int32
	addActive []bool

	// memoized result of the last Check, valid until the next Splice.
	res      Result
	resValid bool

	tx    deltaTx
	stats DeltaStats
}

// deltaTx is the undo journal of one transaction: what Begin found, and
// what to replay backwards to get there again.
type deltaTx struct {
	open bool

	built        bool
	vars         int     // intern-table high-water mark
	changed      []int32 // the pending changed set
	res          Result
	resValid     bool
	lastAffected int
	lastDuration time.Duration

	splices []spliceUndo
	removed []Assertion // arena of the assertions the splices deleted
	// dist holds the distances successful re-probes replaced. Every probe
	// stages its region's here, transaction or not, to put them back if it
	// finds a negative cycle.
	dist []distUndo
}

// spliceUndo inverts Splice(at, del, add): delete the added assertions at
// at and put removed[lo:hi] back.
type spliceUndo struct{ at, added, lo, hi int }

// distUndo is one node's distance before a re-probe reset it.
type distUndo struct {
	node int32
	dist int
}

// NewDeltaContext returns a delta context over a copy of the assertions
// (normalized like Context.Assert).
func NewDeltaContext(asserts []Assertion) *DeltaContext {
	d := &DeltaContext{
		asserts: make([]Assertion, len(asserts)),
		e:       &dlEngine{varID: make(map[Var]int32, 64)},
	}
	for i, a := range asserts {
		d.asserts[i] = a.normalized()
		if d.asserts[i].QuantVar != "" {
			d.numQuant++
		}
	}
	return d
}

// Len returns the number of asserted atoms.
func (d *DeltaContext) Len() int { return len(d.asserts) }

// Assertions returns a copy of the current assertion list.
func (d *DeltaContext) Assertions() []Assertion {
	out := make([]Assertion, len(d.asserts))
	copy(out, d.asserts)
	return out
}

// Stats returns the accumulated solver statistics.
func (d *DeltaContext) Stats() DeltaStats { return d.stats }

// Clone returns an independent copy, including the warm engine state, taken
// outside any transaction. Nothing in production clones since what-ifs roll
// back; the benchmark's frozen replay still does.
func (d *DeltaContext) Clone() *DeltaContext {
	c := &DeltaContext{
		asserts:  append([]Assertion(nil), d.asserts...),
		numQuant: d.numQuant,
		e:        d.e.clone(),
		built:    d.built,
		csrDirty: d.csrDirty,
		edgeOff:  append([]int32(nil), d.edgeOff...),
		varRef:   append([]int32(nil), d.varRef...),
		changed:  append([]int32(nil), d.changed...),
		res:      d.res,
		resValid: d.resValid,
		stats:    d.stats,
	}
	if d.changedIn != nil {
		c.changedIn = append([]bool(nil), d.changedIn...)
	}
	return c
}

// clone deep-copies the engine's persistent state (the probe buffers are
// copied too: dist is live state for a built delta context; the
// condensation plan is rebuilt by every solve and is not).
func (e *dlEngine) clone() *dlEngine {
	c := &dlEngine{varID: make(map[Var]int32, len(e.varID))}
	for k, v := range e.varID {
		c.varID[k] = v
	}
	c.idVar = append([]Var(nil), e.idVar...)
	c.edges = append([]dlEdge(nil), e.edges...)
	c.adjStart = append([]int32(nil), e.adjStart...)
	c.adjList = append([]int32(nil), e.adjList...)
	c.active = append([]bool(nil), e.active...)
	c.posActive = e.posActive
	c.dist = append([]int(nil), e.dist...)
	c.pred = append([]int32(nil), e.pred...)
	c.cnt = append([]int32(nil), e.cnt...)
	c.inQ = append([]bool(nil), e.inQ...)
	c.queue = append([]int32(nil), e.queue...)
	c.inWitness = append([]bool(nil), e.inWitness...)
	c.witness = append([]int32(nil), e.witness...)
	return c
}

// Begin opens a transaction: every Splice and Check until Commit or
// Rollback is journalled, and Rollback leaves the context — assertions,
// standing fixed point, interned variables, pending changes, memoized
// result — as Begin found it, so the next Check answers what, and how
// (cached, delta), it would have answered had the transaction never run.
// Only the monotone counters of Stats keep counting. Transactions do not
// nest.
func (d *DeltaContext) Begin() {
	if d.tx.open {
		panic("smt: DeltaContext.Begin inside a transaction")
	}
	tx := &d.tx
	tx.open = true
	tx.built, tx.vars = d.built, len(d.e.idVar)
	tx.changed = append(tx.changed[:0], d.changed...)
	tx.res, tx.resValid = d.res, d.resValid
	tx.lastAffected, tx.lastDuration = d.stats.LastAffected, d.stats.LastDuration
}

// Journal reports the open transaction's size: splices recorded, and undo
// entries in all (splice inverses plus journalled distances).
func (d *DeltaContext) Journal() (splices, entries int) {
	return len(d.tx.splices), len(d.tx.splices) + len(d.tx.dist)
}

// Commit closes the transaction, keeping its edits.
func (d *DeltaContext) Commit() {
	if !d.tx.open {
		panic("smt: DeltaContext.Commit outside a transaction")
	}
	d.tx.close()
}

// Rollback closes the transaction and undoes it; see Begin.
func (d *DeltaContext) Rollback() {
	tx := &d.tx
	if !tx.open {
		panic("smt: DeltaContext.Rollback outside a transaction")
	}
	tx.open = false // the inverse splices are not themselves journalled
	if !tx.built {
		// A first sat solve inside the transaction built a fixed point for
		// assertions that are about to go; there was none before.
		d.built = false
	}
	for i := len(tx.splices) - 1; i >= 0; i-- {
		u := tx.splices[i]
		d.splice(u.at, u.added, tx.removed[u.lo:u.hi])
	}
	if tx.built {
		for i := len(tx.dist) - 1; i >= 0; i-- {
			d.e.dist[tx.dist[i].node] = tx.dist[i].dist
		}
		d.clearChanged()
		d.unintern(tx.vars)
		for _, v := range tx.changed {
			d.markChanged(v)
		}
	}
	d.res, d.resValid = tx.res, tx.resValid
	d.stats.LastAffected, d.stats.LastDuration = tx.lastAffected, tx.lastDuration
	tx.close()
}

func (tx *deltaTx) close() {
	tx.open = false
	tx.res = Result{}
	tx.splices = tx.splices[:0]
	clear(tx.removed) // drop the origin strings
	tx.removed = tx.removed[:0]
	tx.dist = tx.dist[:0]
}

// unintern forgets the variables interned at or after id mark, which no
// assertion references any more: their names, their slots in every
// node-indexed buffer, and their positivity edges (the tail of the edge
// list, in id order).
func (d *DeltaContext) unintern(mark int) {
	e := d.e
	fresh := len(e.idVar) - mark
	if fresh == 0 {
		return
	}
	for _, name := range e.idVar[mark:] {
		delete(e.varID, name)
	}
	clear(e.idVar[mark:])
	e.idVar = e.idVar[:mark]
	e.edges = e.edges[:len(e.edges)-fresh]
	d.varRef = d.varRef[:mark]
	d.changedIn = d.changedIn[:mark]
	e.dist, e.pred, e.cnt = e.dist[:mark], e.pred[:mark], e.cnt[:mark]
	e.inQ, e.queue = e.inQ[:mark], e.queue[:mark]
	d.csrDirty = true
}

// Splice replaces asserts[at : at+del] with add (normalized), in place: a
// splice that keeps the list's length touches only its own entries, any
// other moves the tail once. When a fixed point stands, the constraint
// graph is patched the same way — the removed assertions' edges cut out,
// the added ones' spliced in, new variables interned — and the heads of
// every touched edge recorded as changed so the next Check can re-probe
// just the region they reach.
func (d *DeltaContext) Splice(at, del int, add []Assertion) error {
	if at < 0 || del < 0 || at+del > len(d.asserts) {
		return fmt.Errorf("smt: splice [%d:%d+%d] out of range 0..%d", at, at, del, len(d.asserts))
	}
	obsDeltaSplices.Inc()
	if tx := &d.tx; tx.open {
		lo := len(tx.removed)
		tx.removed = append(tx.removed, d.asserts[at:at+del]...)
		tx.splices = append(tx.splices, spliceUndo{at: at, added: len(add), lo: lo, hi: len(tx.removed)})
	}
	d.splice(at, del, add)
	return nil
}

// replace is slices.Replace(s, at, at+del, v...), except that a window that
// keeps its length is overwritten without copying the tail onto itself.
func replace[E any](s []E, at, del int, v []E) []E {
	if len(v) == del {
		copy(s[at:], v)
		return s
	}
	return slices.Replace(s, at, at+del, v...)
}

func (d *DeltaContext) splice(at, del int, add []Assertion) {
	d.resValid = false
	e := d.e
	for i := at; i < at+del; i++ {
		if d.asserts[i].QuantVar != "" {
			d.numQuant--
		}
	}
	var aEnd, dEnd int32
	if d.built {
		// The removed assertions drop their variable references, and the
		// heads of their edges lose an in-edge.
		aEnd, dEnd = d.edgeOff[at], d.edgeOff[at+del]
		for i := at; i < at+del; i++ {
			d.ref(&d.asserts[i], -1)
		}
		for _, ed := range e.edges[aEnd:dEnd] {
			d.markChanged(ed.to)
		}
	}
	d.asserts = replace(d.asserts, at, del, add)
	fresh := d.asserts[at : at+len(add)]
	for j := range fresh {
		fresh[j] = fresh[j].normalized()
		if fresh[j].QuantVar != "" {
			d.numQuant++
		}
	}
	if !d.built {
		return // no graph to patch: the next Check builds one
	}

	// The added assertions intern their variables, contribute their edges
	// and add references. A fresh node grows the node-indexed buffers and
	// starts at the virtual-source distance like every node of a fresh
	// solve.
	oldV := len(e.idVar)
	d.addEdges, d.addOff, d.addActive = d.addEdges[:0], d.addOff[:0], d.addActive[:0]
	for j := range fresh {
		d.addOff = append(d.addOff, aEnd+int32(len(d.addEdges)))
		d.addActive = append(d.addActive, fresh[j].QuantVar == "")
		d.addEdges = e.appendEdges(d.addEdges, &fresh[j], int32(at+j))
	}
	for v := oldV; v < len(e.idVar); v++ {
		d.varRef = append(d.varRef, 0)
		e.dist = append(e.dist, 0)
		e.pred = append(e.pred, -1)
		e.cnt = append(e.cnt, 1)
		e.inQ = append(e.inQ, false)
		e.queue = append(e.queue, 0)
		d.changedIn = append(d.changedIn, false)
	}
	for j := range fresh {
		d.ref(&fresh[j], 1)
	}
	for _, ed := range d.addEdges {
		d.markChanged(ed.to)
	}

	// Edge-list surgery. Layout: [0:aEnd) untouched, [aEnd:dEnd) replaced,
	// the other assertions' edges, then one positivity edge per variable.
	e.edges = replace(e.edges, int(aEnd), int(dEnd-aEnd), d.addEdges)
	d.edgeOff = replace(d.edgeOff, at, del, d.addOff)
	e.active = replace(e.active, at, del, d.addActive)
	if grow := int32(len(d.addEdges)) - (dEnd - aEnd); grow != 0 {
		for i := at + len(add); i < len(d.edgeOff); i++ {
			d.edgeOff[i] += grow
		}
	}
	if shift := int32(len(add) - del); shift != 0 {
		for i := d.edgeOff[at+len(add)]; i < d.edgeOff[len(d.asserts)]; i++ {
			e.edges[i].assertIdx += shift
		}
	}
	if len(e.idVar) > oldV {
		for v := oldV; v < len(e.idVar); v++ {
			e.edges = append(e.edges, dlEdge{from: int32(v), to: zeroNode, w: -1, assertIdx: -1})
		}
		d.markChanged(zeroNode) // fresh positivity edges point at the zero node
	}
	d.csrDirty = true
}

// rebuildOffsets recomputes edgeOff from the assertion list alone (the edge
// layout is a pure function of the relations).
func (d *DeltaContext) rebuildOffsets() {
	n := len(d.asserts)
	d.edgeOff = growInt32(d.edgeOff, n+1)
	off := int32(0)
	for i := range d.asserts {
		d.edgeOff[i] = off
		a := &d.asserts[i]
		if a.QuantVar != "" {
			continue
		}
		if a.Rel == Eq {
			off += 2
		} else {
			off++
		}
	}
	d.edgeOff[n] = off
}

// ref adds delta to the reference counts of a ground assertion's variables.
func (d *DeltaContext) ref(a *Assertion, delta int32) {
	if a.QuantVar != "" {
		return
	}
	if a.A.Var != "" {
		d.varRef[d.e.varID[a.A.Var]] += delta
	}
	if a.B.Var != "" {
		d.varRef[d.e.varID[a.B.Var]] += delta
	}
}

func (d *DeltaContext) markChanged(v int32) {
	if !d.changedIn[v] {
		d.changedIn[v] = true
		d.changed = append(d.changed, v)
	}
}

func (d *DeltaContext) clearChanged() {
	for _, v := range d.changed {
		d.changedIn[v] = false
	}
	d.changed = d.changed[:0]
}

// Check decides the current assertion list. Results are memoized until the
// next Splice. With a fixed point standing, the check is a delta solve:
// forward closure of the changed nodes, boundary relaxation, seeded SPFA. A
// probe that hits a negative cycle, and every check before the first sat
// one, gets the whole-list solve of Context.CheckContext, so verdicts and
// minimal cores are always bit-for-bit those of a fresh solve. A sat result
// carries no model: Model renders it.
func (d *DeltaContext) Check(ctx context.Context) (Result, error) {
	if d.resValid {
		d.stats.CacheHits++
		obsCacheHits.Inc()
		return d.res, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	defer d.e.flushStats()
	start := time.Now()
	d.stats.Checks++

	if d.numQuant > 0 {
		res, decided, err := decideQuantified(d.asserts, start)
		if err != nil {
			return Result{}, err
		}
		if decided {
			return d.memo(res), nil
		}
	}
	if !d.built {
		return d.firstSolve(ctx, start)
	}
	if affected, sat := d.deltaSolve(); sat {
		return d.deltaSat(start, affected), nil
	}
	return d.exactUnsat(ctx, start)
}

// Model renders the satisfying assignment of the last Check off the
// standing fixed point — bit for bit a fresh solve's model, orphaned
// variables masked out. It is nil unless that Check was sat and no Splice
// came after it.
func (d *DeltaContext) Model() map[Var]int {
	if !d.built || !d.resValid || !d.res.Sat {
		return nil
	}
	return d.e.model(d.varRef)
}

// memo keeps a solving Check's result until the next Splice.
func (d *DeltaContext) memo(res Result) Result {
	d.stats.LastDuration = res.Stats.Duration
	d.res, d.resValid = res, true
	return res
}

// firstSolve builds the private engine for the current assertions and runs
// the engine's one solve, exactly as the string door does on a pooled
// engine. A sat verdict leaves the fixed point every later check re-probes
// from; an unsat one leaves the engine mid-minimization and unbuilt.
func (d *DeltaContext) firstSolve(ctx context.Context, start time.Time) (Result, error) {
	e := d.e
	e.build(d.asserts)
	d.csrDirty = false
	d.rebuildOffsets()
	d.varRef = growInt32(d.varRef, len(e.idVar))
	clear(d.varRef)
	for i := range d.asserts {
		d.ref(&d.asserts[i], 1)
	}
	d.changedIn = growBool(d.changedIn, len(e.idVar))
	clear(d.changedIn)
	d.changed = d.changed[:0]
	d.countFull()

	var (
		res Result
		err error
	)
	res.Sat, res.CoreIdx, res.UsesPositivity, err = e.solve(ctx, 1, false, &res.Stats)
	if err != nil {
		return Result{}, err
	}
	if d.built = res.Sat; !res.Sat {
		res.Core = coreOf(d.asserts, res.CoreIdx)
	}
	res.Stats.Duration = time.Since(start)
	return d.memo(res), nil
}

func (d *DeltaContext) countFull() {
	d.stats.FullSolves++
	obsFullSolves.Inc()
	d.stats.LastAffected = 0
}

// exactUnsat answers a check whose delta probe found a negative cycle: the
// verdict and deletion-minimal core of the string door's solve over the
// current assertions, on a pooled engine. The private engine is not
// involved — its distances are back at the standing fixed point and the
// changed set stays pending for the next check.
func (d *DeltaContext) exactUnsat(ctx context.Context, start time.Time) (Result, error) {
	res, err := solveAsserts(ctx, d.asserts, false)
	if err != nil {
		return Result{}, err
	}
	if res.Sat {
		// SPFA's enqueue bound trips only on a negative cycle.
		return Result{}, errors.New("smt: delta probe found a negative cycle the full solve does not")
	}
	d.countFull()
	res.Stats.Probes += d.e.statProbes
	res.Stats.Relaxations += d.e.statRelax
	res.Stats.Duration = time.Since(start)
	return d.memo(res), nil
}

// deltaSolve re-probes the region of the graph the changed set reaches and
// reports its size. sat=false means SPFA tripped the negative-cycle bound;
// the region's distances are then back where they stood and the changed
// set is still pending. Inside a transaction the distances a successful
// probe replaced are journalled for Rollback.
func (d *DeltaContext) deltaSolve() (affected int, sat bool) {
	e := d.e
	if d.csrDirty {
		e.buildCSR()
		d.csrDirty = false
	}
	if len(d.changed) == 0 {
		// Nothing touched the graph since the fixed point (e.g. a splice
		// that put back what the last one removed): the standing distances
		// are the answer.
		return 0, true
	}

	// Affected region: forward closure of the changed nodes over active
	// out-edges. Only nodes in this set can see their fixed-point distance
	// move, and any new negative cycle lies entirely inside it.
	d.inAff = growBool(d.inAff, len(e.idVar))
	d.affected = d.affected[:0]
	for _, v := range d.changed {
		d.inAff[v] = true
		d.affected = append(d.affected, v)
	}
	for qi := 0; qi < len(d.affected); qi++ {
		u := d.affected[qi]
		for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
			ed := &e.edges[e.adjList[k]]
			if !e.edgeActive(ed) {
				continue
			}
			if v := ed.to; !d.inAff[v] {
				d.inAff[v] = true
				d.affected = append(d.affected, v)
			}
		}
	}

	// Reset the region to virtual-source distances, remembering what stood
	// there, and seed the queue with it; boundary edges (unaffected tail →
	// affected head) are relaxed once from the standing distances, which
	// never move during the re-probe.
	tx := &d.tx
	mark := len(tx.dist)
	for i, v := range d.affected {
		tx.dist = append(tx.dist, distUndo{v, e.dist[v]})
		e.dist[v] = 0
		e.pred[v] = -1
		e.cnt[v] = 1
		e.inQ[v] = true
		e.queue[i] = v
	}
	for i := range e.edges {
		ed := &e.edges[i]
		if !d.inAff[ed.to] || d.inAff[ed.from] || !e.edgeActive(ed) {
			continue
		}
		if nd := e.dist[ed.from] + ed.w; nd < e.dist[ed.to] {
			e.dist[ed.to] = nd
			e.pred[ed.to] = int32(i)
		}
	}
	e.statProbes++
	trigger := e.spfaLoop(0, int32(len(d.affected)))

	affected = len(d.affected)
	for _, v := range d.affected {
		d.inAff[v] = false
	}
	d.affected = d.affected[:0]

	if trigger >= 0 {
		// Only nodes of the region were relaxed or queued.
		for _, u := range tx.dist[mark:] {
			e.dist[u.node] = u.dist
			e.inQ[u.node] = false
		}
		tx.dist = tx.dist[:mark]
		return affected, false
	}
	if !tx.open {
		tx.dist = tx.dist[:mark] // nobody to roll back for
	}
	d.clearChanged()
	return affected, true
}

// deltaSat reports the standing fixed point as a delta solve's sat result.
func (d *DeltaContext) deltaSat(start time.Time, affected int) Result {
	e := d.e
	res := Result{Sat: true,
		Stats: Stats{Assertions: len(d.asserts), Variables: len(e.idVar) - 1, Edges: len(e.edges)}}
	e.snapshotStats(&res.Stats)
	res.Stats.Duration = time.Since(start)
	d.stats.DeltaSolves++
	obsDeltaSolves.Inc()
	d.stats.LastAffected = affected
	return d.memo(res)
}
