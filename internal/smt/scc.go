// SCC condensation: the plan behind every solve.
//
// The constraint graph of a safe (sat) instance is almost a DAG: dispute
// cycles are exactly the nontrivial strongly connected components, and a
// cycle lies entirely inside one SCC. That makes the condensation a solve
// plan: number the components in topological order (iterative Tarjan yields
// reverse-topological completion order for free), then walk them once in
// topological order. Every edge weighs 0 or −1 (engine.go), so a component
// is bad — holds a cycle through a strict edge — exactly when it holds a
// strict internal edge, which the plan marks while it derives the levels.
// Every other component's internal edges weigh 0, so its nodes share one
// fixpoint value: the least its incoming cross edges bring, or the virtual
// source's 0. The walk gives every node of the component that value and
// relaxes the component's outgoing cross edges, so every component is
// entered with its predecessors final, and no node of a sat system is ever
// visited twice.
//
// The all-zero-seeded shortest-path fixpoint is unique, so the distance
// vector — and the extracted model — does not depend on the plan. The
// engine's decide (engine.go) then searches only the bad components, for
// the witness and for every minimization step. SolveDense is the same solve
// for callers that already hold dense variable ids: the whole decision —
// model or minimal core — without a variable name or an assertion list.

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
	internal  []bool     // component has at least one internal edge
	strict    []bool     // component has a strict internal edge: it is bad
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
	out, start = grow(out, len(key)), grow(start, nkeys+2)
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

// tarjan runs iterative Tarjan from each root in turn (every node, in id
// order, when roots is nil), skipping roots already discovered, and labels
// every node it reaches with its strongly connected component in comp,
// numbered from 0 in completion order, which is reverse topological. With
// c < 0 it follows every edge; otherwise only component c's active internal
// edges, and the caller clears disc for c's nodes first. It returns the
// component count and the edges a restricted search examined.
func (e *dlEngine) tarjan(roots []int32, c int32, comp []int32) (ncomp, examined int) {
	disc, low, onStk, stk := e.disc, e.low, e.onStk, e.queue[:0]
	frames := e.plan.frames
	timer := int32(0)
	n := len(roots)
	if roots == nil {
		n = e.nodes
	}
	for i := 0; i < n; i++ {
		root := int32(i)
		if roots != nil {
			root = roots[i]
		}
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
				ei := e.adjList[f.ei]
				f.ei++
				if c >= 0 {
					examined++
					if !e.inside(ei, c) {
						continue
					}
				}
				w := e.edges[ei].to
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
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	e.plan.frames = frames
	return ncomp, examined
}

// newSCCPlan condenses the engine's whole graph (every edge is active at
// solve entry) into e.plan: Tarjan's components, the nodes grouped by
// component, each component's internal and strict-internal marks, and its
// topological level.
func newSCCPlan(e *dlEngine) *sccPlan {
	buildStart := time.Now()
	s := &e.plan
	s.comp = grow(s.comp, e.nodes)
	clear(e.disc[:e.nodes])
	s.ncomp, _ = e.tarjan(nil, -1, s.comp)
	s.order, s.compStart = groupBy(s.comp, s.ncomp, s.order, s.compStart)

	// Mark components with internal and strict internal edges and compute
	// levels in one pass. Tarjan completion order is reverse-topological, so
	// descending component id is topological order and each component's
	// level is final before its successors are visited.
	s.internal = grow(s.internal, s.ncomp)
	clear(s.internal)
	s.strict = grow(s.strict, s.ncomp)
	clear(s.strict)
	s.level = grow(s.level, s.ncomp)
	clear(s.level)
	s.trivial, s.nLevels, s.maxWidth = 0, 1, 0
	for c := int32(s.ncomp) - 1; c >= 0; c-- {
		lc := s.level[c]
		nodes := s.nodes(c)
		for _, u := range nodes {
			for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
				ed := &e.edges[e.adjList[k]]
				cw := s.comp[ed.to]
				if cw == c {
					s.internal[c] = true
					s.strict[c] = s.strict[c] || ed.strict
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
	width := e.low[:s.nLevels] // nLevels ≤ ncomp ≤ node count
	clear(width)
	for _, l := range s.level {
		width[l]++
		s.maxWidth = max(s.maxWidth, int(width[l]))
	}
	s.tarjan = time.Since(buildStart)
	return s
}

// run walks the condensation once in topological order (descending
// component id): a component with a strict internal edge goes to e.bad
// (ascending once the walk is done); any other component's nodes all take
// the least value its incoming cross edges left on them; then its outgoing
// cross edges are relaxed, so a component's predecessors are final before
// it is entered. It starts from the seeds in e.dist (seal zeroes them; a
// delta check may lower some first) and, when no component is bad, leaves
// there the shortest-path fixpoint from those seeds.
func (s *sccPlan) run(ctx context.Context, e *dlEngine) error {
	e.statProbes++
	e.bad = e.bad[:0]
	for c := int32(s.ncomp) - 1; c >= 0; c-- {
		nodes := s.nodes(c)
		if s.strict[c] {
			e.bad = append(e.bad, c)
		} else if len(nodes) > 1 {
			if err := ctx.Err(); err != nil {
				return err
			}
			m := 0
			for _, u := range nodes {
				m = min(m, e.dist[u])
			}
			for _, u := range nodes {
				e.dist[u] = m
			}
		}
		for _, u := range nodes {
			du := e.dist[u]
			for k := e.adjStart[u]; k < e.adjStart[u+1]; k++ {
				ed := &e.edges[e.adjList[k]]
				if s.comp[ed.to] == c {
					continue
				}
				d := du
				if ed.strict {
					d--
				}
				if d < e.dist[ed.to] {
					e.dist[ed.to] = d
				}
			}
		}
	}
	slices.Reverse(e.bad)
	return nil
}

// DenseConstraint is the atom A Rel B over pre-interned variable ids, for
// Rel one of Lt, Le and Eq. The zero Rel is Lt, so {A, B} is the strict atom
// A < B. Ids 1..numVars name variables; id 0 is the solver's reserved zero
// anchor and names none.
type DenseConstraint struct {
	A, B int32
	Rel  Rel
}

// SolveDense decides a pre-interned system: the whole decision on dense ids
// — no variable interning, no Origin strings, no assertion list. The Result
// names nothing: Model and Core stay nil, the caller owns the names. When
// sat, model holds dist[v]−dist[0] for v in 1..numVars (index 0 unused), the
// canonical model every door assigns. When unsat, CoreIdx (positions in
// cons) is the deletion-minimal core the reference loop reports for the
// same atoms in the same order — the loop's drop/keep decisions are
// semantic, so they do not depend on how variables are numbered. Stats
// counts the dense universe (every id a variable) with the zero anchor's
// positivity edges, and all probes: the component pass, the witness, and the
// minimization's.
func SolveDense(ctx context.Context, numVars int, cons []DenseConstraint) (res Result, model []int, err error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, nil, err
	}
	e := newEngine()
	defer e.release()
	defer e.flushStats()
	e.load(numVars, cons)
	res.Sat, res.CoreIdx, err = e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, nil, err
	}
	if res.Sat {
		model = make([]int, numVars+1)
		for v := 1; v <= numVars; v++ {
			model[v] = e.value(int32(v))
		}
	}
	res.Stats.Duration = time.Since(start)
	return res, model, nil
}

// value reads variable v's model value off a sat solve's fixpoint: the
// positivity edges put the zero anchor one below the least variable, so
// every value is at least 1.
func (e *dlEngine) value(v int32) int { return e.dist[v] - e.dist[zeroNode] }
