// The decision engine behind every solver door.
//
// Every atom the engine takes relates two variables: x ≤ y, x = y or x < y
// (DenseConstraint). As a difference constraint each is an edge of weight 0
// or −1, so the engine keeps no weights: an edge is strict or it is not. A
// system is unsatisfiable exactly when some cycle holds a strict edge, i.e.
// when some strongly connected component of the constraint graph holds a
// strict internal edge, and its canonical model is the all-zero-seeded
// shortest-path fixpoint, which one topological sweep of the condensation
// computes (scc.go).
//
// A solve sees dense node ids and an edge list, from one of two loaders:
// load, for SolveDense and the Native adapter, and a DeltaContext, walking
// its caller's graph for the sub-system induced on a node set (every
// referenced node, or the region an edit disturbed) and, for the region,
// seeding each node with what its in-edges from outside bring. Both hand
// the engine the same zero anchor and positivity edges (x ≥ 1, an edge
// x → 0), so every door reports the same Stats. No atom mentions a
// constant, so no edge leaves the zero node and positivity lies on no
// cycle. seal builds the CSR adjacency once per solve, and every
// satisfiability probe runs over an `active []bool` mask on preallocated
// buffers. Engines are pooled and reused across solves, so the steady-state
// sat path allocates only the result model.
//
// solve is the one whole-system decision: condense the constraint graph,
// walk its components once, and — when some component holds a strict
// internal edge — find the witness cycle and minimize the core. A cycle of
// any subset of the system lies inside one strongly connected component of
// the whole, so every later probe (decide) searches only the components the
// plan found bad, never the whole graph: a Tarjan over the component's
// active internal edges, then a breadth-first search for the shortest cycle
// through one strict edge of a sub-component that holds one.
//
// Core minimization keeps the exact semantics of the reference deletion
// loop (walk candidates from last to first, drop every assertion whose
// removal keeps the remainder unsatisfiable) but prunes probes with a
// witness cycle: an assertion outside the currently known cycle can be
// dropped without solving, because the witness is still a contradiction
// without it. Only assertions on the witness trigger a re-probe, which
// either proves them necessary or yields the next, smaller witness. The
// drop/keep decisions are semantic, so the result is bit-for-bit the minimal
// core of the naive loop whichever witness a probe happens to find.

package smt

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"fsr/internal/obs"
)

// dlEdge is one atom's edge from → to in the constraint graph: the
// difference constraint to − from ≤ 0, or ≤ −1 when strict. assertIdx < 0
// marks the implicit positivity edges (x ≥ 1, from the paper's Sig
// subtype).
type dlEdge struct {
	from, to  int32
	assertIdx int32
	strict    bool
}

// dlEngine is the reusable solver state. All slices are grown once to the
// instance size and reused across probes (and, via enginePool, across
// solves), keeping the hot paths allocation-free.
type dlEngine struct {
	nodes int // node count: the zero anchor and the variables

	edges    []dlEdge
	adjStart []int32 // CSR: adjList[adjStart[v]:adjStart[v+1]] are v's out-edges
	adjList  []int32

	active []bool // per-assertion mask
	dist   []int  // the component pass's fixpoint

	// Tarjan and cycle-search scratch, per node: discovery time, low-link,
	// on-stack flag, decide's sub-component label, the breadth-first
	// search's parent edge, and a stack or queue of node ids.
	disc, low []int32
	onStk     []bool
	sub       []int32
	pred      []int32
	queue     []int32

	// cycle extraction scratch.
	cycleIdx  []int32 // assertion indices on the last extracted cycle
	inWitness []bool  // per-assertion membership in the current witness
	witness   []int32 // current witness assertion indices (for clearing)

	// The last solve's condensation and the components its component pass
	// found unsatisfiable (ascending): the only places a later probe has to
	// look.
	plan sccPlan
	bad  []int32

	// Loop-effort counts, drained into the obs registry by flushStats
	// (obs.go) once per solve so the inner loops stay atomic-free.
	statProbes  int
	statRelax   int
	statMinIter int
}

// enginePool holds released engines for later solves. It is one free list
// for every P, not a sync.Pool: a sync.Pool keeps what a goroutine put back
// in the private slot of the P it ran on, out of reach of a solve on
// another P, so a caller that moves between Ps grows an engine per P and
// grows one again after each collection drops it. Over 60 analyses at
// internet:50000 that read as a peak heap anywhere from 143 to 185 MB; one
// list reads 139–147 MB. Like a sync.Pool it is emptied by the collector:
// what was free at one collection and is not taken before the next is
// dropped.
var enginePool struct {
	sync.Mutex
	free, aged []*dlEngine
}

// newEngine takes the most recently released engine, or makes one.
func newEngine() *dlEngine {
	enginePool.Lock()
	defer enginePool.Unlock()
	l := &enginePool.free
	if len(*l) == 0 {
		l = &enginePool.aged
	}
	n := len(*l)
	if n == 0 {
		return new(dlEngine)
	}
	e := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return e
}

// release returns the engine to the pool for reuse by a later solve.
func (e *dlEngine) release() {
	enginePool.Lock()
	enginePool.free = append(enginePool.free, e)
	enginePool.Unlock()
}

func init() { ageEngines() }

// ageEngines arranges for the next collection to age the pool — the free
// list becomes the aged one, whose engines are dropped — and re-arms itself
// then. The trigger is a cleanup on an object nothing references.
func ageEngines() {
	runtime.AddCleanup(new([2]*int), func(struct{}) {
		enginePool.Lock()
		clear(enginePool.aged)
		enginePool.aged, enginePool.free = enginePool.free, enginePool.aged[:0]
		enginePool.Unlock()
		ageEngines()
	}, struct{}{})
}

// grow resizes s to n elements, reallocating only when its capacity falls
// short; the contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load is the engine's one loader: atom i of cons over variables
// 1..numVars becomes the edge B → A, strict for Lt, and Eq adds the reverse
// edge A → B under the same position.
func (e *dlEngine) load(numVars int, cons []DenseConstraint) {
	e.edges = e.edges[:0]
	for i, c := range cons {
		e.edges = append(e.edges, dlEdge{from: c.B, to: c.A, assertIdx: int32(i), strict: c.Rel == Lt})
		if c.Rel == Eq {
			e.edges = append(e.edges, dlEdge{from: c.A, to: c.B, assertIdx: int32(i)})
		}
	}
	e.seal(numVars+1, len(cons))
}

// seal finishes a fresh graph of the given node count whose n assertions'
// edges are in e.edges: positivity edges, the CSR adjacency, and the probe
// buffers — every assertion active, no witness, every node seeded at 0.
func (e *dlEngine) seal(nodes, n int) {
	e.nodes = nodes
	for v := int32(1); v < int32(nodes); v++ {
		e.edges = append(e.edges, dlEdge{from: v, to: zeroNode, assertIdx: -1, strict: true})
	}
	e.buildCSR()
	e.dist = grow(e.dist, nodes)
	clear(e.dist)
	e.disc = grow(e.disc, nodes)
	e.low = grow(e.low, nodes)
	e.onStk = grow(e.onStk, nodes)
	e.sub = grow(e.sub, nodes)
	e.pred = grow(e.pred, nodes)
	e.queue = grow(e.queue, nodes)
	e.active = grow(e.active, n)
	e.inWitness = grow(e.inWitness, n)
	for i := range e.active {
		e.active[i] = true
		e.inWitness[i] = false
	}
	e.witness = e.witness[:0]
}

// buildCSR (re)indexes e.edges into the CSR adjacency by counting sort on
// the source node. e.cycleIdx is borrowed as the fill cursor and left empty.
func (e *dlEngine) buildCSR() {
	V := e.nodes
	e.adjStart = grow(e.adjStart, V+1)
	clear(e.adjStart)
	for i := range e.edges {
		e.adjStart[e.edges[i].from+1]++
	}
	for v := 1; v <= V; v++ {
		e.adjStart[v] += e.adjStart[v-1]
	}
	e.adjList = grow(e.adjList, len(e.edges))
	fill := grow(e.cycleIdx, V)
	copy(fill, e.adjStart[:V])
	for i := range e.edges {
		f := e.edges[i].from
		e.adjList[fill[f]] = int32(i)
		fill[f]++
	}
	e.cycleIdx = fill[:0]
}

// inside reports whether edge ei is an active internal edge of the plan's
// component c: the edges a probe of c searches.
func (e *dlEngine) inside(ei, c int32) bool {
	ed := &e.edges[ei]
	return e.plan.comp[ed.to] == c && (ed.assertIdx < 0 || e.active[ed.assertIdx])
}

// decide reports whether the active constraint subset is unsatisfiable,
// leaving a witness cycle's assertion indices in e.cycleIdx when it is. Only
// the components the component pass found bad are searched: a cycle of a
// subset of the system is a cycle of the whole, so it lies inside one of
// them.
func (e *dlEngine) decide() (unsat bool) {
	e.statProbes++
	for _, c := range e.bad {
		if e.cycleIn(c) {
			return true
		}
	}
	return false
}

// cycleIn searches component c's active internal edges for a cycle through
// a strict edge. Tarjan splits the component into its active
// sub-components; the first strict edge whose ends share one closes a
// cycle, and a breadth-first search from its head back to its tail over
// that sub-component's active edges makes it a shortest one. The edges the
// two searches follow are the probe's relaxation count.
func (e *dlEngine) cycleIn(c int32) bool {
	nodes := e.plan.nodes(c)
	for _, u := range nodes {
		e.disc[u] = 0
	}
	_, examined := e.tarjan(nodes, c, e.sub)
	e.statRelax += examined
	strict := int32(-1)
search:
	for _, u := range nodes {
		for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
			ei := e.adjList[k]
			if ed := &e.edges[ei]; ed.strict && e.inside(ei, c) && e.sub[ed.to] == e.sub[u] {
				strict = ei
				break search
			}
		}
	}
	if strict < 0 {
		return false
	}
	from, to := e.edges[strict].from, e.edges[strict].to
	e.cycleIdx = append(e.cycleIdx[:0], e.edges[strict].assertIdx)
	if to == from {
		return true
	}
	// Breadth-first from the strict edge's head to its tail; the tail is
	// reachable because both ends share a strongly connected sub-component.
	for _, u := range nodes {
		e.pred[u] = -1
	}
	label := e.sub[to]
	q := append(e.queue[:0], to)
	e.pred[to] = strict
	for qi := 0; e.pred[from] < 0; qi++ {
		u := q[qi]
		for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
			ei := e.adjList[k]
			e.statRelax++
			if w := e.edges[ei].to; e.pred[w] < 0 && e.sub[w] == label && e.inside(ei, c) {
				e.pred[w] = ei
				q = append(q, w)
			}
		}
	}
	for v := from; v != to; v = e.edges[e.pred[v]].from {
		e.cycleIdx = append(e.cycleIdx, e.edges[e.pred[v]].assertIdx)
	}
	return true
}

// setWitness replaces the current witness with the last extracted cycle.
func (e *dlEngine) setWitness() {
	for _, i := range e.witness {
		e.inWitness[i] = false
	}
	e.witness = append(e.witness[:0], e.cycleIdx...)
	for _, i := range e.witness {
		e.inWitness[i] = true
	}
}

// minimize runs the deletion-minimization loop over the assertions, in the
// exact order and with the exact drop/keep decisions of the reference
// implementation, but skipping the re-solve whenever the probed assertion
// is not on the current witness cycle. On entry every assertion must be
// active, as seal leaves them, and e.cycleIdx must hold a cycle of that full
// set. It returns the minimal core as ascending assertion positions. The
// engine's own mask is all it reads, so every door shares this one loop.
func (e *dlEngine) minimize(ctx context.Context) (core []int, err error) {
	e.setWitness()
	for i := len(e.active) - 1; i >= 0; i-- {
		e.statMinIter++
		if !e.inWitness[i] {
			// The witness is a contradiction not involving i: removing i
			// keeps the set unsatisfiable, exactly as the reference loop
			// would conclude after a full re-solve.
			e.active[i] = false
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.active[i] = false
		if e.decide() {
			e.setWitness() // still unsat: i stays dropped, smaller witness
		} else {
			e.active[i] = true // needed for unsatisfiability
		}
	}
	core = make([]int, 0, len(e.witness))
	for i, on := range e.active {
		if on {
			core = append(core, i)
		}
	}
	return core, nil
}

// solve is the engine's one whole-system decision, on the graph seal left:
// condense, run the component pass — which leaves in e.dist the fixpoint
// from its seeds (all zero, the canonical model, unless a delta check
// lowered some) when the system is satisfiable — and otherwise find the
// witness cycle and report the deletion-minimal core (under a "minimize"
// span). st receives the graph's size, the plan's shape and the loop
// effort.
func (e *dlEngine) solve(ctx context.Context, st *Stats) (sat bool, core []int, err error) {
	st.Assertions, st.Variables, st.Edges = len(e.active), e.nodes-1, len(e.edges)
	s := newSCCPlan(e)
	s.recordPlan(st)
	defer e.snapshotStats(st)
	if err := s.run(ctx, e); err != nil {
		return false, nil, err
	}
	if len(e.bad) == 0 {
		return true, nil, nil
	}
	if !e.decide() {
		return false, nil, errors.New("smt: a component with a strict internal edge holds no cycle through it")
	}
	_, sp := obs.StartSpan(ctx, "minimize")
	defer sp.End()
	core, err = e.minimize(ctx)
	sp.AttrInt("probes", int64(e.statProbes))
	sp.AttrInt("core", int64(len(core)))
	return false, core, err
}
