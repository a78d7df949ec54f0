// The difference-logic engine behind every solver door.
//
// A solve sees dense node IDs and an edge list, from one of three doors:
// build interns an assertion list of the whole fragment (appendDiffEdges),
// while SolveDense, over ids already interned, and a DeltaContext, copying a
// sub-system out of its own linked graph, take only the atom §IV-B emits for
// an SPP instance — x < y between two variables, one edge of weight −1 — and
// hand the engine the same zero anchor and positivity edges the string door
// builds, so every door reports the same Stats. seal builds the CSR adjacency
// once per solve, and every satisfiability probe runs over an `active
// []bool` mask on preallocated dist/pred/queue buffers. Engines are pooled
// and reused across solves, so the steady-state sat path allocates only the
// result model.
//
// solve is the one whole-system decision: condense the constraint graph
// (scc.go), walk its components once, and — when some component hides a
// negative cycle — find the witness and minimize the core. A negative cycle
// of any subset of the system lies inside one strongly connected component
// of the whole, so every later probe (decide) re-runs only the components
// the plan found unsatisfiable, never the whole graph.
//
// Core minimization keeps the exact semantics of the reference deletion
// loop (walk candidates from last to first, drop every assertion whose
// removal keeps the remainder unsatisfiable) but prunes probes with a
// witness cycle: an assertion outside the currently known negative cycle
// can be dropped without solving, because the witness is still a
// contradiction without it. Only assertions on the witness trigger a
// re-probe, which either proves them necessary or yields the next, smaller
// witness. The drop/keep decisions are semantic, so the result is bit-for-bit
// the minimal core of the naive loop whichever witness a probe happens to
// find.

package smt

import (
	"context"
	"sync"

	"fsr/internal/obs"
)

// dlEdge is one difference constraint to − from ≤ w, i.e. an edge
// from → to of weight w in the constraint graph; assertIdx < 0 marks the
// implicit positivity constraints (x ≥ 1, from the paper's Sig subtype).
type dlEdge struct {
	from, to  int32
	w         int
	assertIdx int32
}

// dlEngine is the reusable solver state. All slices are grown once to the
// instance size and reused across probes (and, via enginePool, across
// solves), keeping the hot paths allocation-free.
type dlEngine struct {
	varID map[Var]int32
	idVar []Var

	edges    []dlEdge
	adjStart []int32 // CSR: adjList[adjStart[v]:adjStart[v+1]] are v's out-edges
	adjList  []int32

	active    []bool // per-assertion mask; quantified entries stay false
	posActive bool   // whether the implicit positivity edges participate

	dist  []int
	pred  []int32 // predecessor edge per node, -1 for none
	cnt   []int32 // SPFA enqueue counts (negative-cycle trigger)
	inQ   []bool
	queue []int32 // ring buffer of node IDs, capacity = node count

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
	// (obs.go) once per Check so the inner loops stay atomic-free.
	statProbes  int
	statRelax   int
	statMinIter int
}

var enginePool = sync.Pool{New: func() any {
	return &dlEngine{varID: make(map[Var]int32, 64)}
}}

// release returns the engine to the pool for reuse by a later solve.
func (e *dlEngine) release() { enginePool.Put(e) }

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// growVars resizes the node-name table without preserving contents: the
// dense door only needs its length.
func growVars(s []Var, n int) []Var {
	if cap(s) < n {
		return make([]Var, n)
	}
	return s[:n]
}

// intern returns the dense id of a variable, minting the next one for a
// first occurrence; the empty name is the constant 0.
func (e *dlEngine) intern(v Var) int32 {
	if v == "" {
		return zeroNode
	}
	if n, ok := e.varID[v]; ok {
		return n
	}
	n := int32(len(e.idVar))
	e.varID[v] = n
	e.idVar = append(e.idVar, v)
	return n
}

// appendDiffEdges appends to dst the difference edges of ground assertion a,
// at position idx of its list, whose sides are the nodes va and vb. A ≤ B is
// val(va)+ka ≤ val(vb)+kb, i.e. va − vb ≤ kb − ka: an edge vb → va, one
// tighter for A < B; an equality adds the reverse edge.
func appendDiffEdges(dst []dlEdge, a *Assertion, va, vb, idx int32) []dlEdge {
	w := a.B.K - a.A.K
	if a.Rel == Lt {
		w--
	}
	dst = append(dst, dlEdge{from: vb, to: va, w: w, assertIdx: idx})
	if a.Rel == Eq {
		dst = append(dst, dlEdge{from: va, to: vb, w: -w, assertIdx: idx})
	}
	return dst
}

// build interns the variables of the ground assertions into dense IDs
// (node 0 is the constant 0) and translates each assertion into its
// difference edges exactly once — two map probes per assertion, the dominant
// cost. Edge capacity is retained across pooled reuses, so the appends are
// allocation-free in steady state.
func (e *dlEngine) build(asserts []Assertion) {
	clear(e.varID)
	e.idVar = append(e.idVar[:0], "") // node 0 = the constant 0
	e.edges = e.edges[:0]
	for i := range asserts {
		if a := &asserts[i]; a.QuantVar == "" {
			e.edges = appendDiffEdges(e.edges, a, e.intern(a.A.Var), e.intern(a.B.Var), int32(i))
		}
	}
	e.seal(len(asserts))
	for i := range asserts {
		if asserts[i].QuantVar != "" {
			e.active[i] = false
		}
	}
}

// appendPositivity appends the implicit typing of every variable:
// x ≥ 1  ⇔  0 − x ≤ −1  ⇒  edge x → zero of weight −1.
func (e *dlEngine) appendPositivity() {
	for v := int32(1); v < int32(len(e.idVar)); v++ {
		e.edges = append(e.edges, dlEdge{from: v, to: zeroNode, w: -1, assertIdx: -1})
	}
}

// seal finishes a fresh graph whose n assertions' edges are in e.edges and
// whose nodes are e.idVar: positivity edges, the CSR adjacency, and the
// probe buffers — every assertion active, no witness. build masks the
// quantified entries out afterwards; the dense door has none.
func (e *dlEngine) seal(n int) {
	e.appendPositivity()
	e.posActive = true
	e.buildCSR()
	V := len(e.idVar)
	e.dist = growInt(e.dist, V)
	e.pred = growInt32(e.pred, V)
	e.cnt = growInt32(e.cnt, V)
	e.inQ = growBool(e.inQ, V)
	e.queue = growInt32(e.queue, V)
	e.cycleIdx = e.cycleIdx[:0]
	e.active = growBool(e.active, n)
	e.inWitness = growBool(e.inWitness, n)
	for i := range e.active {
		e.active[i] = true
		e.inWitness[i] = false
	}
	e.witness = e.witness[:0]
}

// buildCSR (re)indexes e.edges into the CSR adjacency by counting sort on
// the source node. e.cycleIdx is borrowed as the fill cursor and left empty.
func (e *dlEngine) buildCSR() {
	V := len(e.idVar)
	e.adjStart = growInt32(e.adjStart, V+1)
	for i := range e.adjStart {
		e.adjStart[i] = 0
	}
	for i := range e.edges {
		e.adjStart[e.edges[i].from+1]++
	}
	for v := 1; v <= V; v++ {
		e.adjStart[v] += e.adjStart[v-1]
	}
	e.adjList = growInt32(e.adjList, len(e.edges))
	e.cycleIdx = growInt32(e.cycleIdx, V) // reuse the cycle scratch as the fill cursor
	fill := e.cycleIdx
	copy(fill, e.adjStart[:V])
	for i := range e.edges {
		f := e.edges[i].from
		e.adjList[fill[f]] = int32(i)
		fill[f]++
	}
	e.cycleIdx = e.cycleIdx[:0]
}

// edgeActive reports whether the edge participates under the current mask.
func (e *dlEngine) edgeActive(ed *dlEdge) bool {
	if ed.assertIdx < 0 {
		return e.posActive
	}
	return e.active[ed.assertIdx]
}

// passBF is the classic pass-based Bellman–Ford on the same buffers: exact,
// allocation-free, and guaranteed to leave a predecessor structure whose
// backward walk from the returned node closes a negative cycle. It is the
// fallback when SPFA's trigger cannot be confirmed (never in practice).
func (e *dlEngine) passBF() int32 {
	V := len(e.idVar)
	for i := 0; i < V; i++ {
		e.dist[i] = 0
		e.pred[i] = -1
	}
	relaxed := int32(-1)
	relax := 0
	for pass := 0; pass < V; pass++ {
		relaxed = -1
		for i := range e.edges {
			ed := &e.edges[i]
			if !e.edgeActive(ed) {
				continue
			}
			if d := e.dist[ed.from] + ed.w; d < e.dist[ed.to] {
				relax++
				e.dist[ed.to] = d
				e.pred[ed.to] = int32(i)
				if relaxed < 0 {
					relaxed = ed.to
				}
			}
		}
		if relaxed < 0 {
			break
		}
	}
	e.statRelax += relax
	return relaxed
}

// extractCycle walks the predecessor edges backward from the trigger node,
// collects the assertion indices on the first cycle it closes into
// e.cycleIdx (positivity edges carry none), and verifies the cycle weight
// is negative. It reports whether a verified
// negative cycle was found. V bounds the walk: the node count of the
// subgraph the predecessor edges were set in.
func (e *dlEngine) extractCycle(from int32, V int) bool {
	// Step inside the cycle: V predecessor hops from the trigger node must
	// land on a node of the cycle if the predecessor walk closes one.
	node := from
	for i := 0; i < V; i++ {
		p := e.pred[node]
		if p < 0 {
			return false
		}
		node = e.edges[p].from
	}
	start := node
	e.cycleIdx = e.cycleIdx[:0]
	weight := 0
	for steps := 0; ; steps++ {
		if steps > V {
			return false
		}
		p := e.pred[node]
		if p < 0 {
			return false
		}
		ed := &e.edges[p]
		weight += ed.w
		if ed.assertIdx >= 0 {
			e.cycleIdx = append(e.cycleIdx, ed.assertIdx)
		}
		node = ed.from
		if node == start {
			break
		}
	}
	return weight < 0
}

// decide reports whether the active constraint subset is unsatisfiable,
// leaving a verified negative cycle in e.cycleIdx when it is. Only the
// components the component pass found unsatisfiable are probed, each from
// the virtual-source seed: a negative cycle of a subset of the system is a
// negative cycle of the whole, so it lies inside one of them. SPFA decides
// almost every probe; an unconfirmable trigger falls back to exact
// pass-based Bellman–Ford over the whole graph.
func (e *dlEngine) decide() (unsat bool) {
	e.statProbes++
	v := int32(-1)
	for _, c := range e.bad {
		nodes := e.plan.nodes(c)
		for _, u := range nodes {
			e.dist[u] = 0
			e.pred[u] = -1
		}
		var relax int
		v, relax = e.plan.compSPFA(e, c)
		e.statRelax += relax
		if v < 0 {
			continue
		}
		if e.extractCycle(v, len(nodes)) {
			return true
		}
		break
	}
	if v < 0 {
		return false
	}
	// Trigger could not be confirmed on SPFA's predecessor structure; redo
	// with the exact pass-based algorithm, whose pass-V relaxation
	// guarantees the predecessor walk closes a cycle.
	if v = e.passBF(); v < 0 {
		return false
	}
	if e.extractCycle(v, len(e.idVar)) {
		return true
	}
	// Defensively unreachable: report unsat with an over-approximate
	// "cycle" of every active assertion, which is a valid (if large)
	// witness for minimization.
	e.cycleIdx = e.cycleIdx[:0]
	for i, on := range e.active {
		if on {
			e.cycleIdx = append(e.cycleIdx, int32(i))
		}
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

// minimize runs the deletion-minimization loop over the ground assertions,
// in the exact order and with the exact drop/keep decisions of the
// reference implementation, but skipping the re-solve whenever the probed
// assertion is not on the current witness cycle. On entry e.active must be
// the ground mask — every ground assertion active, quantified entries not,
// as build and seal leave it — and e.cycleIdx must hold a verified
// cycle of that full set. It returns the minimal core as ascending
// assertion positions plus the positivity involvement flag. The engine's
// own mask is all it reads, so every door shares this one loop.
func (e *dlEngine) minimize(ctx context.Context) (core []int, usesPositivity bool, err error) {
	e.setWitness()
	for i := len(e.active) - 1; i >= 0; i-- {
		if !e.active[i] {
			continue // quantified: position i is untouched until iteration i
		}
		e.statMinIter++
		if !e.inWitness[i] {
			// The witness is a contradiction not involving i: removing i
			// keeps the set unsatisfiable, exactly as the reference loop
			// would conclude after a full re-solve.
			e.active[i] = false
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
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
	// The core involves positivity iff it becomes satisfiable over all of ℤ
	// once the implicit n > 0 typing is dropped.
	e.posActive = false
	usesPositivity = !e.decide()
	e.posActive = true
	return core, usesPositivity, nil
}

// solve is the engine's one whole-system decision, on the graph seal left:
// condense, run the component pass — which leaves the canonical
// all-zero-seeded fixpoint in e.dist when the system is satisfiable — and
// otherwise find the witness cycle and report the deletion-minimal core
// (under a "minimize" span). st receives the graph's size, the plan's shape
// and the loop effort.
func (e *dlEngine) solve(ctx context.Context, st *Stats) (sat bool, core []int, usesPositivity bool, err error) {
	st.Assertions, st.Variables, st.Edges = len(e.active), len(e.idVar)-1, len(e.edges)
	s := newSCCPlan(e)
	s.recordPlan(st)
	defer e.snapshotStats(st)
	if err := s.run(ctx, e); err != nil {
		return false, nil, false, err
	}
	if len(e.bad) == 0 {
		return true, nil, false, nil
	}
	if !e.decide() {
		// Defensively unreachable — the enqueue bound only trips on a
		// negative cycle: report the exact whole-graph fixpoint.
		e.passBF()
		return true, nil, false, nil
	}
	_, sp := obs.StartSpan(ctx, "minimize")
	defer sp.End()
	core, usesPositivity, err = e.minimize(ctx)
	sp.AttrInt("probes", int64(e.statProbes))
	sp.AttrInt("core", int64(len(core)))
	return false, core, usesPositivity, err
}
