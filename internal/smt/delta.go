// Delta solving: the verification-as-a-service extension of the engine. A
// whole solve builds its constraint graph once per call; a DeltaContext
// decides a graph its caller keeps resident *across* checks, so a what-if
// that touches one session or ranking reports the edges it adds or removes
// and re-decides only the region of the constraint graph reachable from
// them, instead of rebuilding and re-solving everything.
//
// The graph is the caller's, read through a narrow walk (Graph): variables
// the caller has numbered from 1 to Vars(), each with its out-edges and the
// tails of its in-edges. An out-edge v → w is the one atom §IV-B emits for
// an SPP instance, as SolveDense takes it: the strict preference or strict
// monotonicity entry w < v between two variables, the difference constraint
// w − v ≤ −1, an edge of weight −1. Its key orders it among the atoms as the
// canonical emission order does. The context holds no names: variable v is
// node v, a model is reported by id and a core by its atoms' keys and
// heads. In a whole solve every variable is also positive (x ≥ 1, an edge
// x → 0 of weight −1 into the zero node), but no atom mentions a constant,
// so no edge ever leaves the zero node: it is a sink, it lies on no cycle,
// and its distance is one below the lowest variable's. So positivity can
// never take part in a contradiction, and the resident graph leaves the zero
// node out: no check takes it into a node set, and Model reads its distance
// off the variables'. Id 0 stays reserved all the same, as the dense door's
// zero anchor, and a check hands the engine that anchor at local id 0.
//
// The context stores no edge. Per variable it keeps the standing distance,
// a set-local id while a check runs, and whether the variable is changed;
// besides those, the changed set, the memoized result and the journal of
// installed distances. An edit reaches it only as Changed(head), once per
// edge added or removed, and a check reads the edges it needs off the
// caller's graph as it walks.
//
// Every check is one engine solve of the sub-system induced on a node set:
// the atoms whose edges leave a node of the set, in key order, over dense
// set-local ids. Until a check is sat no fixed point stands, and the set is
// every referenced node (an edge's tail or head; orphans stay out), whose
// sub-system is the whole graph. A sat verdict installs the standing state:
// the fixed point of the last *satisfiable* graph G0, plus the changed set —
// the heads of every edge deleted or added since G0, accumulated over
// however many edits and unsat verdicts came between. A node's fixed-point
// distance is the cheapest walk ending at it (from the virtual source that
// seeds every node at 0). From then on the set is the affected region: the
// forward closure of the changed set over the out-edges of the current
// graph G.
//
// Why the region's solve is G's. A walk of G0 into a node v outside the
// region either survives intact in G, or lost an edge whose head is changed
// and whose remaining suffix would put v inside the region; a walk of G into
// v cannot use an added edge for the same reason. So v keeps its distance.
// The region is forward-closed, so a walk of G that enters it never leaves:
// it starts inside, or arrives over an in-edge u → w from outside with u's
// standing distance. So each region node is seeded, from its in-edges, with
// the least dist(u) − 1 those from outside bring (0 with none), the engine's
// component pass runs from those seeds, and the fixpoint it reaches on the
// region is the one a whole solve of G reaches there. A negative cycle of G
// must contain an edge G0 lacked — G0 was satisfiable — so it lies inside
// the region, and the region's solve is unsat exactly when G is.
//
// And its core. The argument never used that G was the whole graph, so
// every negative cycle of every *subset* of the atoms lies inside the region
// too. The deletion loop walks the atoms from last to first and keeps one
// exactly when the remainder without it has no negative cycle: for an atom
// whose edge leaves the region that is the same question asked of the
// region's atoms alone, and every other atom is on no negative cycle and is
// dropped. Seeds take no part in a cycle. So the region's sub-system, its
// atoms in key order, has the whole graph's core, key for key: bit for bit a
// fresh solve of the atoms in canonical order, the differential oracle the
// tests and the server's -check-oracle mode enforce. An unsat verdict
// installs nothing: the standing fixed point and the changed set stay, so
// the repair that follows is a delta solve.
//
// Transactions make a what-if cost its edit. The caller journals its own
// graph; the context journals only its own state. Between
// Begin and Rollback the context journals the distance of every node a sat
// check installed, and — at Begin — whether a fixed point stood, the node
// table's size, the pending changed set and the memoized result. Rollback,
// once the caller's graph is back, restores the journalled distances (nodes
// outside every checked region never moved), shrinks the node table back to
// the ids Begin found (no edge reaches the nodes grown since), and
// reinstates the rest of what Begin found.

package smt

import (
	"cmp"
	"context"
	"slices"
	"time"

	"fsr/internal/obs"
)

// Graph is the constraint graph a DeltaContext decides, as its caller holds
// it, over variables 1..Vars(). Out appends an Edge per atom w < v, In the
// tail u of each atom v < u. Distinct atoms have distinct keys.
type Graph interface {
	Vars() int
	Out(dst []Edge, v int32) []Edge
	In(dst []int32, v int32) []int32
}

// Edge is an out-edge of a variable v: the atom To < v, under its key.
// From is v on a core's edges; Out leaves it 0, its v being implied.
type Edge struct {
	To, From int32
	Key      uint64
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
	// FullSolves counts checks that solved the whole graph: every check
	// until the first sat verdict leaves a fixed point to start from.
	FullSolves int
	// LastAffected is the size of the affected region of the last delta
	// solve (0 when the last solve was full).
	LastAffected int
	// Steps counts the edges checks walked (out-edges closing the node set,
	// in-edges seeding it) plus the atoms they loaded into the engine: what
	// an edit cost, without a clock.
	Steps int
}

// DeltaContext is a logical context with incremental solving over a
// caller's resident Graph: Changed records an edit, and Check re-decides the
// graph, reusing the converged state of the last sat solve when there is
// one. It is the solver-level "delta verification" entry point of the fsr
// serve daemon. A DeltaContext is not safe for concurrent use.
type DeltaContext struct {
	g Graph

	// built: the nodes' distances are the fixed point as of the last sat
	// solve, and changed lists the nodes whose in-edges moved since. False
	// until a check is sat.
	built   bool
	nodes   []deltaNode // by variable id; node 0 is the zero anchor, never in a set
	changed []int32

	// Scratch: the node set a check decides (a node's index plus one is its
	// set-local id), its atoms keyed for sorting, and one walk's edges.
	region []int32
	items  []deltaItem
	out    []Edge
	in     []int32

	// memoized result of the last Check and its core, valid until the next
	// edit.
	res      Result
	core     []Edge
	resValid bool

	tx    deltaTx
	stats DeltaStats
}

// deltaNode is one variable's standing state. Its edges are the caller's;
// a variable no edge touches — one whose atoms were all removed, or an id
// the caller never used — is an orphan, kept out of models and whole solves,
// which keeps both bit-for-bit equal to a fresh solve's.
type deltaNode struct {
	dist    int
	local   int32 // set-local id during a check, 0 outside the set
	changed bool
}

// deltaItem is one atom of a check: the edge from → to, under its key.
type deltaItem struct {
	key      uint64
	from, to int32
}

// deltaTx is the undo journal of one transaction: what Begin found, and
// the distances sat checks replaced since, to restore backwards.
type deltaTx struct {
	open bool

	built        bool
	vars         int     // node table size
	changed      []int32 // the pending changed set
	res          Result
	core         []Edge
	resValid     bool
	lastAffected int
	dist         []distUndo
}

// distUndo is one node's distance before a check moved it.
type distUndo struct {
	node int32
	dist int
}

// NewDeltaContext returns a delta context over the caller's graph; its first
// check decides the whole graph.
func NewDeltaContext(g Graph) *DeltaContext {
	return &DeltaContext{g: g, nodes: make([]deltaNode, 1, g.Vars()+1)}
}

// Stats returns the accumulated solver statistics.
func (d *DeltaContext) Stats() DeltaStats { return d.stats }

// Clone returns an independent copy over g, a copy of the graph, including
// the standing fixed point, taken outside any transaction. Nothing in
// production clones since what-ifs roll back; the benchmark's frozen replay
// still does.
func (d *DeltaContext) Clone(g Graph) *DeltaContext {
	c := *d
	c.g = g
	c.nodes, c.changed, c.core = slices.Clone(d.nodes), slices.Clone(d.changed), slices.Clone(d.core)
	c.region, c.items, c.out, c.in, c.tx = nil, nil, nil, nil, deltaTx{}
	return &c
}

// grow extends the node table to the graph's variables. A fresh node starts
// at the virtual-source distance like every node of a fresh solve.
func (d *DeltaContext) grow() {
	for n := d.g.Vars(); len(d.nodes) <= n; {
		d.nodes = append(d.nodes, deltaNode{})
	}
}

// Changed records that an edge into head was added or removed, so that the
// next Check can re-decide just the region the changed heads reach. A
// caller reports every edge it adds or removes, each once; an id the node
// table has not reached grows it.
func (d *DeltaContext) Changed(head int32) {
	d.resValid = false
	d.grow()
	if !d.nodes[head].changed {
		d.nodes[head].changed = true
		d.changed = append(d.changed, head)
	}
}

func (d *DeltaContext) clearChanged() {
	for _, v := range d.changed {
		d.nodes[v].changed = false
	}
	d.changed = d.changed[:0]
}

// --- transactions ---

// Begin opens a transaction: every Check until Commit or Rollback is
// journalled, and Rollback, once the caller has restored its graph, leaves
// the context — standing fixed point, pending changes, memoized result — as
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
	tx.res, tx.core, tx.resValid = d.res, d.core, d.resValid
	tx.lastAffected = d.stats.LastAffected
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
	for i := len(tx.dist) - 1; i >= 0; i-- {
		d.nodes[tx.dist[i].node].dist = tx.dist[i].dist
	}
	d.clearChanged()
	d.nodes = d.nodes[:tx.vars] // the graph has no node grown since Begin
	for _, v := range tx.changed {
		d.Changed(v)
	}
	d.built = tx.built
	d.res, d.core, d.resValid = tx.res, tx.core, tx.resValid
	d.stats.LastAffected = tx.lastAffected
	tx.close()
}

func (tx *deltaTx) close() {
	tx.open = false
	tx.res, tx.core = Result{}, nil
	tx.dist = tx.dist[:0]
}

// --- checking ---

// Check decides the current graph. Results are memoized until the next
// edit. With a fixed point standing, the check is a delta solve: one engine
// solve of the affected region, seeded from the standing distances around
// it. Every check before the first sat one decides the sub-system induced on
// every referenced node. Either way verdicts and minimal cores are
// bit-for-bit those of a fresh solve. The result names nothing, as
// SolveDense's does: a sat one carries no model (Model reads it), an unsat
// one comes with its core, each atom as the edge from its tail into its
// head, ascending by key. Its Stats are those of the solve on the node
// set, but Variables counts the graph's.
func (d *DeltaContext) Check(ctx context.Context) (Result, []Edge, error) {
	if d.resValid {
		d.stats.CacheHits++
		return d.res, d.core, nil
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	start := time.Now()
	d.stats.Checks++
	res, core, err := d.solve(ctx)
	if err != nil {
		return Result{}, nil, err
	}
	res.Stats.Duration = time.Since(start)
	d.res, d.core, d.resValid = res, core, true
	return res, core, nil
}

// Install answers the first Check, outside a transaction, with the caller's
// SolveDense of the graph's atoms in key order: a full solve of steps atoms.
// A model, dist − dist[0] with 0 the highest dist, becomes the fixed point.
func (d *DeltaContext) Install(res Result, model []int, core []Edge, steps int) {
	d.grow()
	d.stats.Checks, d.stats.FullSolves, d.stats.Steps = d.stats.Checks+1, d.stats.FullSolves+1, d.stats.Steps+steps
	d.res, d.core, d.resValid, d.built = res, core, true, res.Sat
	if res.Sat {
		top := slices.Max(model)
		for v := 1; v < len(model); v++ {
			d.nodes[v].dist = model[v] - top
		}
	}
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
	// Mark the referenced variables (an edge's tail or head) with 1, then
	// put a fresh solve's zero node one below the lowest of them, over that
	// variable's positivity edge.
	model := make([]int, len(d.nodes))
	for v := int32(1); v < int32(len(d.nodes)); v++ {
		d.out = d.g.Out(d.out[:0], v)
		for _, ed := range d.out {
			model[v], model[ed.To] = 1, 1
		}
	}
	d0 := 0
	for v, ref := range model {
		if ref != 0 {
			d0 = min(d0, d.nodes[v].dist)
		}
	}
	d0--
	for v, ref := range model {
		if ref != 0 {
			model[v] = d.nodes[v].dist - d0
		}
	}
	return model
}

// solve decides the graph with one engine solve, of the sub-system induced
// on the node set d.region: the atoms whose edges leave a node of the set, in
// key order, over set-local ids (a node's index in d.region plus one, with
// the zero anchor at 0), on a pooled engine. With no fixed point standing
// the set is every referenced node; with one, it is the affected region,
// each node seeded from its in-edges that come from outside it. A sat
// verdict installs the set's distances as the fixed point; an unsat one maps
// its core back to edges and moves nothing.
func (d *DeltaContext) solve(ctx context.Context) (res Result, core []Edge, err error) {
	ctx, sp := obs.StartSpan(ctx, "region")
	defer sp.End()
	d.grow()
	nodes, steps := d.nodes, 0
	region, items := d.region[:0], d.items[:0]
	delta := d.built
	if delta {
		// The changed nodes, grown below to their forward closure.
		region = append(region, d.changed...)
		for i, v := range region {
			nodes[v].local = int32(i + 1)
		}
		d.stats.DeltaSolves++
	} else {
		// Every atom's tail and head, in id order: a closed set.
		for v := int32(1); v < int32(len(nodes)); v++ {
			d.out = d.g.Out(d.out[:0], v)
			for _, ed := range d.out {
				nodes[v].local, nodes[ed.To].local = -1, -1
			}
		}
		for v := int32(1); v < int32(len(nodes)); v++ {
			if nodes[v].local != 0 {
				region = append(region, v)
				nodes[v].local = int32(len(region))
			}
		}
		d.stats.FullSolves++
	}
	// Walk the set's out-edges, keying its atoms for sorting and growing it to
	// its forward closure: from the changed nodes, the affected region, the
	// only nodes whose distance can move and the home of every negative
	// cycle. The set of every referenced node is closed already.
	for qi := 0; qi < len(region); qi++ {
		u := region[qi]
		d.out = d.g.Out(d.out[:0], u)
		steps += len(d.out)
		for _, ed := range d.out {
			items = append(items, deltaItem{ed.Key, u, ed.To})
			if w := ed.To; nodes[w].local == 0 {
				region = append(region, w)
				nodes[w].local = int32(len(region))
			}
		}
	}
	slices.SortFunc(items, func(a, b deltaItem) int { return cmp.Compare(a.key, b.key) })
	d.region, d.items = region, items
	e := newEngine()
	defer e.release()
	defer e.flushStats()
	e.edges = e.edges[:0]
	for i, it := range items {
		e.edges = append(e.edges, dlEdge{from: nodes[it.from].local, to: nodes[it.to].local, assertIdx: int32(i), strict: true})
	}
	e.seal(len(region)+1, len(items))
	// Seed each node with the least standing distance, minus one, that an
	// in-edge from outside the set brings. Before a fixed point stands no
	// in-edge comes from outside and every distance is 0.
	d.stats.LastAffected = 0
	if delta {
		d.stats.LastAffected = len(region)
		for i, v := range region {
			d.in = d.g.In(d.in[:0], v)
			steps += len(d.in)
			for _, u := range d.in {
				if nodes[u].local == 0 {
					e.dist[i+1] = min(e.dist[i+1], nodes[u].dist-1)
				}
			}
		}
	}
	for _, v := range region {
		nodes[v].local = 0
	}
	d.stats.Steps += steps + len(items)

	sat, idx, err := e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, nil, err
	}
	res.Sat = sat
	if delta {
		res.Stats.Variables = len(nodes) - 1
	}
	sp.AttrInt("nodes", int64(len(region)))
	sp.AttrInt("edges", int64(len(e.edges)))
	sp.AttrInt("probes", int64(res.Stats.Probes))
	if !sat {
		core = make([]Edge, len(idx))
		for k, i := range idx {
			core[k] = Edge{To: items[i].to, From: items[i].from, Key: items[i].key}
		}
		sp.AttrInt("core", int64(len(core)))
		return res, core, nil
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
	return res, nil, nil
}
