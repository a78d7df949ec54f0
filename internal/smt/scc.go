// SCC condensation: the plan behind every solve.
//
// The constraint graph of a safe (sat) instance is almost a DAG: dispute
// cycles are exactly the nontrivial strongly connected components, and a
// negative-weight cycle lies entirely inside one SCC. That makes the
// condensation a solve plan: number the components in topological order
// (iterative Tarjan yields reverse-topological completion order for free),
// seed every node with the virtual-source distance 0, then walk the
// components once in topological order — run SPFA restricted to a
// component's internal edges, then relax its outgoing cross edges, so every
// component is entered with its predecessors' distances final.
// Trivially-safe singleton components — the vast majority of a power-law
// instance, and every node of an all-strict ranking chain — never touch a
// queue: their entire contribution is the cross-edge relaxation, so a
// satisfiable all-strict system costs one linear pass whatever order its
// variables and assertions arrive in.
//
// The all-zero-seeded Bellman–Ford fixpoint is unique, so the distance
// vector — and the extracted model — does not depend on the plan. The run
// records every component whose SPFA hits the enqueue bound; the engine's
// decide (engine.go) then probes only those, for the witness and for every
// minimization step. SolveDense is the same solve for callers that already
// hold dense variable ids: the whole decision — model or minimal core —
// without a variable name or an assertion list.

package smt

import (
	"context"
	"slices"
	"time"
)

// sccPlan is the condensation of a constraint graph: the Tarjan component
// of every node, the nodes grouped by component, and each component's
// topological level. It lives on the engine, so its buffers are reused
// across pooled solves.
type sccPlan struct {
	comp      []int32    // node → component; cross edge u→w implies comp[w] < comp[u]
	order     []int32    // nodes grouped by component
	compStart []int32    // order[compStart[c]:compStart[c+1]] are component c's nodes
	internal  []bool     // component has at least one internal edge (needs SPFA)
	level     []int32    // component → topological level
	frames    []sccFrame // Tarjan's explicit DFS stack
	ncomp     int
	trivial   int // singleton components with no internal edge

	nLevels  int           // the condensation's depth: topological levels
	maxWidth int           // the widest level's component count
	tarjan   time.Duration // condensation (plan-build) time
}

type sccFrame struct{ v, ei int32 }

// nodes returns component c's nodes.
func (s *sccPlan) nodes(c int32) []int32 { return s.order[s.compStart[c]:s.compStart[c+1]] }

// groupBy is a counting sort of items 0..len(key)-1 by key < nkeys: it
// returns the items grouped by ascending key in out and the group
// boundaries in start (out[start[k]:start[k+1]] holds key k's items).
func groupBy(key []int32, nkeys int, out, start []int32) (_, _ []int32) {
	out, start = growInt32(out, len(key)), growInt32(start, nkeys+2)
	clear(start)
	for _, k := range key {
		start[k+2]++
	}
	for k := 2; k < len(start); k++ {
		start[k] += start[k-1]
	}
	for i, k := range key { // start[k+1] is key k's fill cursor, and its end once filled
		out[start[k+1]] = int32(i)
		start[k+1]++
	}
	return out, start[:nkeys+1]
}

// newSCCPlan runs iterative Tarjan over the engine's edges (all ground and
// positivity edges are active at solve entry) and derives the plan into
// e.plan. Tarjan's per-node state borrows the probe buffers, which the
// component pass re-initializes: pred is the discovery time, cnt the
// low-link and then the per-level component count, inQ the on-stack flag
// and queue the stack.
func newSCCPlan(e *dlEngine) *sccPlan {
	buildStart := time.Now()
	s := &e.plan
	V := int32(len(e.idVar))
	s.comp = growInt32(s.comp, int(V))
	s.ncomp = 0
	disc, low, onStk, stk := e.pred, e.cnt, e.inQ, e.queue[:0]
	clear(disc)
	clear(onStk)
	frames := s.frames
	timer := int32(0)
	for root := int32(0); root < V; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		stk = append(stk, root)
		onStk[root] = true
		frames = append(frames[:0], sccFrame{root, e.adjStart[root]})
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
					frames = append(frames, sccFrame{w, e.adjStart[w]})
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
	s.frames = frames
	s.order, s.compStart = groupBy(s.comp, s.ncomp, s.order, s.compStart)

	// Mark components with internal edges and compute levels in one pass.
	// Tarjan completion order is reverse-topological, so descending
	// component id is topological order and each component's level is
	// final before its successors are visited.
	s.internal = growBool(s.internal, s.ncomp)
	clear(s.internal)
	s.level = growInt32(s.level, s.ncomp)
	clear(s.level)
	s.trivial, s.nLevels, s.maxWidth = 0, 1, 0
	for c := int32(s.ncomp) - 1; c >= 0; c-- {
		lc := s.level[c]
		nodes := s.nodes(c)
		for _, u := range nodes {
			for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
				cw := s.comp[e.edges[e.adjList[k]].to]
				if cw == c {
					s.internal[c] = true
				} else if lc+1 > s.level[cw] {
					s.level[cw] = lc + 1
					s.nLevels = max(s.nLevels, int(lc)+2)
				}
			}
		}
		if len(nodes) == 1 && !s.internal[c] {
			s.trivial++
		}
	}
	width := e.cnt[:s.nLevels] // nLevels ≤ ncomp ≤ node count
	clear(width)
	for _, l := range s.level {
		width[l]++
		s.maxWidth = max(s.maxWidth, int(width[l]))
	}
	s.tarjan = time.Since(buildStart)
	return s
}

// run walks the condensation once in topological order (descending
// component id): SPFA inside each component with internal edges, then its
// outgoing cross edges relaxed, so a component's predecessors are final
// before it is entered. It leaves the engine's dist array at the canonical
// all-zero-seeded Bellman–Ford fixpoint when the system is satisfiable, and
// in e.bad — ascending — every component that contains a negative cycle. (A
// component downstream of a bad one is seeded with unconverged distances;
// SPFA inside it still converges or trips the bound on its own edges alone.)
func (s *sccPlan) run(ctx context.Context, e *dlEngine) error {
	e.statProbes++
	e.bad = e.bad[:0]
	for i := range s.comp {
		e.dist[i] = 0
		e.pred[i] = -1
	}
	for c := int32(s.ncomp) - 1; c >= 0; c-- {
		if s.internal[c] {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, relax := s.compSPFA(e, c)
			e.statRelax += relax
			if v >= 0 {
				e.bad = append(e.bad, c)
			}
		}
		for _, u := range s.nodes(c) {
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
	slices.Reverse(e.bad)
	return nil
}

// compSPFA runs SPFA restricted to one component's internal edges that are
// active under the engine's mask, starting from the nodes' current
// distances (cross-seeded by the component pass, reset by decide), with
// the engine's queue as its ring buffer. It returns the node whose enqueue
// count proves a negative cycle, or −1 when the component converged, and
// the relaxations it made.
func (s *sccPlan) compSPFA(e *dlEngine, c int32) (trigger int32, relax int) {
	nodes := s.nodes(c)
	n := int32(len(nodes))
	q := e.queue
	for i, v := range nodes {
		e.cnt[v] = 1
		e.inQ[v] = true
		q[i] = v
	}
	head, size := int32(0), n
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
			if s.comp[ed.to] != c || !e.edgeActive(ed) {
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
						return v, relax
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
	return -1, relax
}

// DenseConstraint is the strict atom A < B over pre-interned variable ids:
// the difference constraint A − B ≤ −1. Ids 1..numVars name variables; id 0
// is the solver's reserved zero anchor and names none.
type DenseConstraint struct{ A, B int32 }

// SolveDense decides a pre-interned system of strict atoms: the whole
// decision on dense ids — no variable interning, no Origin strings, no
// assertion list. The Result names nothing: Model and Core stay nil, the
// caller owns the names. When sat, model holds dist[v]−dist[0] for v in
// 1..numVars (index 0 unused), bit-for-bit the values Context.CheckContext
// would assign the same variables. When unsat, CoreIdx (positions in cons)
// is the deletion-minimal core Context.CheckContext reports for the same
// atoms in the same order — the loop's drop/keep decisions are semantic, so
// they do not depend on how variables are numbered. The zero anchor and the
// implicit positivity typing (x ≥ 1) are in the graph as behind the string
// door, but no cycle of strict atoms between variables passes the zero node,
// so UsesPositivity is always false. Stats counts the dense universe (every
// id a variable) and all probes: the component pass, the witness, and the
// minimization's.
func SolveDense(ctx context.Context, numVars int, cons []DenseConstraint) (res Result, model []int, err error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	e := enginePool.Get().(*dlEngine)
	defer e.release()
	defer e.flushStats()
	e.edges = e.edges[:0]
	for i, c := range cons {
		e.edges = append(e.edges, dlEdge{from: c.B, to: c.A, w: -1, assertIdx: int32(i)})
	}
	e.idVar = growVars(e.idVar, numVars+1) // the dense universe, nothing interned
	e.seal(len(cons))

	res.Sat, res.CoreIdx, res.UsesPositivity, err = e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, nil, err
	}
	if res.Sat {
		model = make([]int, numVars+1)
		d0 := e.dist[zeroNode]
		for v := 1; v <= numVars; v++ {
			model[v] = e.dist[v] - d0
		}
	}
	res.Stats.Duration = time.Since(start)
	return res, model, nil
}
