// SCC-decomposed difference-logic solving.
//
// The constraint graph of a safe (sat) instance is almost a DAG: dispute
// cycles are exactly the nontrivial strongly connected components, and a
// negative-weight cycle lies entirely inside one SCC. That makes the
// condensation a solve plan: number the components in topological order
// (iterative Tarjan yields reverse-topological completion order for free),
// seed every node with the virtual-source distance 0, then process the
// condensation level by level — run SPFA restricted to each component's
// internal edges, in parallel across the components of a level (their node
// sets are disjoint, so they share the dist/pred arrays without conflict),
// and relax the components' outgoing cross edges sequentially at the level
// barrier. Trivially-safe singleton components — the vast majority of a
// power-law instance — never touch a queue: their entire contribution is
// the cross-edge relaxation.
//
// Because the all-zero-seeded Bellman–Ford fixpoint is unique, the
// resulting distance vector — and therefore the extracted model — is
// bit-for-bit the one the undecomposed engine computes. When a component is
// unsatisfiable the same engine, on the edge list the condensation was built
// from, runs the sequential decide and the deletion-minimization loop of
// engine.go, so cores are bit-identical too; no second engine is built and
// nothing is re-interned. SolveDense is the same solve for callers that
// already hold dense variable ids: the whole decision — model or minimal
// core — without a variable name or an assertion list.

package smt

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/obs"
)

// Decomposed is the SCC-decomposed native backend ("native-scc"): the same
// difference-logic engine as Native, but solving the condensation of the
// constraint graph component by component, in parallel within a
// topological level. Results are bit-identical to Native.
type Decomposed struct {
	// Workers caps the per-level component parallelism (default
	// GOMAXPROCS).
	Workers int
	// NoMinimize disables deletion-based core minimization on unsat
	// systems, exactly as on Context.
	NoMinimize bool
}

// Name returns "native-scc".
func (Decomposed) Name() string { return "native-scc" }

// Solve decides the assertions with the SCC-decomposed engine.
func (d Decomposed) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Context.Assert normalizes Gt/Ge at insertion; mirror that here so the
	// phases below see the same assertion list (no copy in the common
	// all-Lt/Le case).
	asserts := assertions
	for i := range assertions {
		if r := assertions[i].Rel; r == Gt || r == Ge {
			norm := make([]Assertion, len(assertions))
			for j := range assertions {
				norm[j] = assertions[j].normalized()
			}
			asserts = norm
			break
		}
	}

	// Quantified assertions, as in CheckContext phase 1.
	for i := range asserts {
		a := &asserts[i]
		if a.QuantVar == "" {
			continue
		}
		ok, err := quantifiedValid(*a)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			return Result{
				Core:    []Assertion{*a},
				CoreIdx: []int{i},
				Stats:   Stats{Assertions: len(asserts), Duration: time.Since(start)},
			}, nil
		}
	}

	e := grabEngine(asserts)
	defer e.release()
	defer e.flushStats()
	res := Result{Stats: Stats{Assertions: len(asserts), Variables: len(e.idVar) - 1, Edges: len(e.edges)}}

	s := newSCCPlan(e, int32(len(e.idVar)))
	s.recordPlan(&res.Stats)
	sat, err := s.run(ctx, e, d.Workers)
	if err != nil {
		return Result{}, err
	}
	if !sat {
		// A component is unsatisfiable: the sequential decide on this same
		// engine finds the witness cycle whose minimization order defines
		// the canonical core, exactly as Context.CheckContext would on a
		// fresh one. (Should decide ever contradict the condensation, it
		// leaves the canonical fixpoint in e.dist and that is reported.)
		sctx, sp := obs.StartSpan(ctx, "solve")
		sp.AttrInt("assertions", int64(len(asserts)))
		if sat = !e.decide(); !sat {
			res.CoreIdx, res.UsesPositivity, err = e.unsatCore(sctx, d.NoMinimize)
		}
		sp.End()
		if err != nil {
			return Result{}, err
		}
	}
	if sat {
		model := make(map[Var]int, len(e.idVar)-1)
		d0 := e.dist[zeroNode]
		for i, v := range e.idVar {
			if i == zeroNode {
				continue
			}
			model[v] = e.dist[i] - d0
		}
		res.Sat = true
		res.Model = model
	} else {
		res.Core = coreOf(asserts, res.CoreIdx)
	}
	e.snapshotStats(&res.Stats)
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// sccPlan is the condensation of a constraint graph: the Tarjan component
// of every node, the nodes grouped by component, each component's
// topological level, and the components grouped by level.
type sccPlan struct {
	comp      []int32 // node → component; cross edge u→w implies comp[w] < comp[u]
	order     []int32 // nodes grouped by component
	compStart []int32 // order[compStart[c]:compStart[c+1]] are component c's nodes
	internal  []bool  // component has at least one internal edge (needs SPFA)
	levels    []int32 // components grouped by ascending level
	lvlStart  []int32
	ncomp     int
	trivial   int   // singleton components with no internal edge
	maxComp   int   // largest component size (SPFA scratch bound)
	relax     int64 // relaxation tally, accumulated atomically by workers

	nLevels  int           // topological levels in the plan
	maxWidth int           // widest level's component count (parallel occupancy bound)
	tarjan   time.Duration // condensation (plan-build) time
}

// newSCCPlan runs iterative Tarjan over the engine's edges (all ground and
// positivity edges are active at Solve entry) and derives the level plan.
func newSCCPlan(e *dlEngine, V int32) *sccPlan {
	buildStart := time.Now()
	s := &sccPlan{
		comp: make([]int32, V),
	}
	low := make([]int32, V)
	disc := make([]int32, V)
	onStk := make([]bool, V)
	stk := make([]int32, 0, V)
	type frame struct{ v, ei int32 }
	frames := make([]frame, 0, 256)
	timer := int32(0)
	for root := int32(0); root < V; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		stk = append(stk, root)
		onStk[root] = true
		frames = append(frames[:0], frame{root, e.adjStart[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < e.adjStart[f.v+1] {
				w := e.edges[e.adjList[f.ei]].to
				f.ei++
				if disc[w] == 0 {
					timer++
					disc[w], low[w] = timer, timer
					stk = append(stk, w)
					onStk[w] = true
					frames = append(frames, frame{w, e.adjStart[w]})
				} else if onStk[w] && disc[w] < low[f.v] {
					low[f.v] = disc[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == disc[v] {
				for {
					w := stk[len(stk)-1]
					stk = stk[:len(stk)-1]
					onStk[w] = false
					s.comp[w] = int32(s.ncomp)
					if w == v {
						break
					}
				}
				s.ncomp++
			}
		}
	}

	// Group nodes by component (counting sort).
	s.compStart = make([]int32, s.ncomp+1)
	for _, c := range s.comp {
		s.compStart[c+1]++
	}
	for c := 1; c <= s.ncomp; c++ {
		s.compStart[c] += s.compStart[c-1]
	}
	s.order = make([]int32, V)
	fill := make([]int32, s.ncomp)
	copy(fill, s.compStart[:s.ncomp])
	for v := int32(0); v < V; v++ {
		c := s.comp[v]
		s.order[fill[c]] = v
		fill[c]++
	}

	// Mark components with internal edges and compute levels in one pass.
	// Tarjan completion order is reverse-topological, so descending
	// component id is topological order and each component's level is
	// final before its successors are visited.
	s.internal = make([]bool, s.ncomp)
	level := fill[:s.ncomp] // reuse as the level array
	for i := range level {
		level[i] = 0
	}
	maxLevel := int32(0)
	for c := int32(s.ncomp) - 1; c >= 0; c-- {
		lc := level[c]
		for _, u := range s.order[s.compStart[c]:s.compStart[c+1]] {
			for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
				cw := s.comp[e.edges[e.adjList[k]].to]
				if cw == c {
					s.internal[c] = true
					continue
				}
				if lc+1 > level[cw] {
					level[cw] = lc + 1
					if lc+1 > maxLevel {
						maxLevel = lc + 1
					}
				}
			}
		}
	}
	for c := 0; c < s.ncomp; c++ {
		size := s.compStart[c+1] - s.compStart[c]
		if int(size) > s.maxComp {
			s.maxComp = int(size)
		}
		if size == 1 && !s.internal[c] {
			s.trivial++
		}
	}

	// Group components by level (counting sort).
	s.lvlStart = make([]int32, maxLevel+2)
	for c := 0; c < s.ncomp; c++ {
		s.lvlStart[level[c]+1]++
	}
	for l := int32(1); l <= maxLevel+1; l++ {
		s.lvlStart[l] += s.lvlStart[l-1]
	}
	s.levels = make([]int32, s.ncomp)
	lfill := make([]int32, maxLevel+1)
	copy(lfill, s.lvlStart[:maxLevel+1])
	for c := 0; c < s.ncomp; c++ {
		l := level[c]
		s.levels[lfill[l]] = int32(c)
		lfill[l]++
	}
	s.nLevels = int(maxLevel) + 1
	for l := 0; l < s.nLevels; l++ {
		if w := int(s.lvlStart[l+1] - s.lvlStart[l]); w > s.maxWidth {
			s.maxWidth = w
		}
	}
	s.tarjan = time.Since(buildStart)
	return s
}

// run processes the condensation level by level, leaving the engine's dist
// array at the canonical all-zero-seeded Bellman–Ford fixpoint when the
// system is satisfiable. It reports sat=false as soon as any component
// contains a negative cycle.
func (s *sccPlan) run(ctx context.Context, e *dlEngine, workers int) (sat bool, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.statProbes++
	V := int32(len(s.comp))
	for i := int32(0); i < V; i++ {
		e.dist[i] = 0
		e.pred[i] = -1
	}
	var work []int32
	var scratch [][]int32 // lazily allocated per-worker SPFA queues
	serialQ := make([]int32, s.maxComp)
	nLevels := len(s.lvlStart) - 1
	for l := 0; l < nLevels; l++ {
		comps := s.levels[s.lvlStart[l]:s.lvlStart[l+1]]
		work = work[:0]
		for _, c := range comps {
			if s.internal[c] {
				work = append(work, c)
			}
		}
		switch {
		case len(work) == 0:
		case len(work) == 1 || workers == 1:
			if err := ctx.Err(); err != nil {
				return false, err
			}
			for _, c := range work {
				if !s.compSPFA(e, c, serialQ) {
					e.statRelax += int(s.relax)
					return false, nil
				}
			}
		default:
			if err := ctx.Err(); err != nil {
				return false, err
			}
			n := workers
			if n > len(work) {
				n = len(work)
			}
			for len(scratch) < n {
				scratch = append(scratch, make([]int32, s.maxComp))
			}
			var next atomic.Int32
			var bad atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(q []int32) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(work) || bad.Load() {
							return
						}
						if !s.compSPFA(e, work[i], q) {
							bad.Store(true)
							return
						}
					}
				}(scratch[w])
			}
			wg.Wait()
			if bad.Load() {
				e.statRelax += int(s.relax)
				return false, nil
			}
		}
		// Level barrier: the level's distances are final; push them across
		// the outgoing cross edges sequentially (two components of this
		// level may share a cross-edge target, so workers cannot do this).
		for _, c := range comps {
			for _, u := range s.order[s.compStart[c]:s.compStart[c+1]] {
				du := e.dist[u]
				for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
					ei := e.adjList[k]
					ed := &e.edges[ei]
					if s.comp[ed.to] == c {
						continue
					}
					if d := du + ed.w; d < e.dist[ed.to] {
						e.dist[ed.to] = d
						e.pred[ed.to] = ei
					}
				}
			}
		}
	}
	e.statRelax += int(s.relax)
	return true, nil
}

// compSPFA runs SPFA restricted to one component's internal edges,
// starting from the nodes' cross-seeded distances. The component's nodes
// are disjoint from every concurrently solved component's, so dist, pred,
// cnt and inQ are shared without synchronization; q is the caller's
// private ring buffer (capacity ≥ component size). Returns false when the
// component contains a negative cycle.
func (s *sccPlan) compSPFA(e *dlEngine, c int32, q []int32) bool {
	nodes := s.order[s.compStart[c]:s.compStart[c+1]]
	n := int32(len(nodes))
	for i, v := range nodes {
		e.cnt[v] = 1
		e.inQ[v] = true
		q[i] = v
	}
	head, size := int32(0), n
	relax := 0
	for size > 0 {
		u := q[head]
		head++
		if head == n {
			head = 0
		}
		size--
		e.inQ[u] = false
		du := e.dist[u]
		for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
			ei := e.adjList[k]
			ed := &e.edges[ei]
			if s.comp[ed.to] != c {
				continue
			}
			if d := du + ed.w; d < e.dist[ed.to] {
				relax++
				v := ed.to
				e.dist[v] = d
				e.pred[v] = ei
				if !e.inQ[v] {
					e.cnt[v]++
					if e.cnt[v] > n {
						atomic.AddInt64(&s.relax, int64(relax))
						return false
					}
					tail := head + size
					if tail >= n {
						tail -= n
					}
					q[tail] = v
					size++
					e.inQ[v] = true
				}
			}
		}
	}
	atomic.AddInt64(&s.relax, int64(relax))
	return true
}

// DenseConstraint is one ground difference atom A ≤ B + K (A < B + K when
// Strict) over pre-interned variable ids. Ids 1..NumVars name variables;
// id 0 is the reserved zero anchor (the constant 0).
type DenseConstraint struct {
	A, B   int32
	K      int
	Strict bool
}

// SolveDense decides a pre-interned ground system with the SCC-decomposed
// engine: the whole decision on dense ids — no variable interning, no
// Origin strings, no assertion list. The Result names nothing: Model and
// Core stay nil, the caller owns the names. When sat, model holds
// dist[v]−dist[0] for v in 1..numVars (index 0 unused), bit-for-bit the
// values Context.CheckContext would assign the same variables. When unsat,
// the engine's decide + minimize loop runs on the edge list the
// condensation was built from, and CoreIdx (positions in cons) and
// UsesPositivity are the deletion-minimal core Context.CheckContext reports
// for the same constraints in the same order — the loop's drop/keep
// decisions are semantic, so they do not depend on how variables are
// numbered. The implicit positivity typing (x ≥ 1) participates exactly as
// in the undecomposed engine. Stats counts the dense universe (every id a
// variable) and all probes: the condensation pass, the confirming decide,
// and the minimization's.
func SolveDense(ctx context.Context, numVars int, cons []DenseConstraint, workers int) (res Result, model []int, err error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	e := enginePool.Get().(*dlEngine)
	defer e.release()
	defer e.flushStats()
	e.edges = e.edges[:0]
	for i := range cons {
		c := &cons[i]
		w := c.K
		if c.Strict {
			w--
		}
		e.edges = append(e.edges, dlEdge{from: c.B, to: c.A, w: w, assertIdx: int32(i)})
	}
	for v := int32(1); v <= int32(numVars); v++ {
		e.edges = append(e.edges, dlEdge{from: v, to: zeroNode, w: -1, assertIdx: -1})
	}
	e.posActive = true
	V := numVars + 1
	// buildCSR sizes the adjacency from len(idVar); give it the dense
	// universe without interning anything.
	e.idVar = growVars(e.idVar, V)
	e.buildCSR()
	e.sizeScratch(V, len(cons))

	res.Stats = Stats{Assertions: len(cons), Variables: numVars, Edges: len(e.edges)}
	s := newSCCPlan(e, int32(V))
	s.recordPlan(&res.Stats)
	sat, err := s.run(ctx, e, workers)
	if err != nil {
		return Result{}, nil, err
	}
	if !sat {
		// As in Decomposed.Solve: the confirming decide, then the one
		// minimization loop, on the engine the condensation ran on.
		mctx, sp := obs.StartSpan(ctx, "minimize-dense")
		if sat = !e.decide(); !sat {
			res.CoreIdx, res.UsesPositivity, err = e.minimize(mctx)
		}
		sp.AttrInt("probes", int64(e.statProbes))
		sp.AttrInt("core", int64(len(res.CoreIdx)))
		sp.End()
		if err != nil {
			return Result{}, nil, err
		}
	}
	if sat {
		res.Sat = true
		model = make([]int, V)
		d0 := e.dist[zeroNode]
		for v := 1; v < V; v++ {
			model[v] = e.dist[v] - d0
		}
	}
	e.snapshotStats(&res.Stats)
	res.Stats.Duration = time.Since(start)
	return res, model, nil
}

// growVars resizes the idVar scratch to n entries without preserving
// contents (SolveDense only needs its length for CSR sizing; build()
// re-derives it from scratch on the next pooled use).
func growVars(s []Var, n int) []Var {
	if cap(s) < n {
		return make([]Var, n)
	}
	return s[:n]
}
