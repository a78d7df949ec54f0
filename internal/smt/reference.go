// The retained reference decision procedure: the original, obviously-correct
// implementation that rebuilds the constraint graph (fresh map[Var]int,
// fresh edge slice) and re-runs full-pass Bellman–Ford for every
// satisfiability probe. It is deliberately unoptimized — O(n²·E) core
// minimization with heavy allocation — and exists so differential tests can
// hold the incremental engine (engine.go) to identical verdicts, models,
// and minimal cores on every input. It is a test oracle, never a production
// solver.

package smt

import (
	"context"
	"time"
)

// Reference decides assertions with the retained original implementation.
// It satisfies Solver so tests can swap it in anywhere a backend goes.
type Reference struct{}

// Name implements Solver.
func (Reference) Name() string { return "reference" }

// Solve implements Solver.
func (Reference) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
	c := NewContext()
	c.AssertAll(assertions)
	return referenceCheck(ctx, c.asserts)
}

// refEdge is one difference constraint to(x) − from(y) ≤ w, i.e. an edge
// from → to of weight w in the constraint graph; assertIdx < 0 marks the
// implicit positivity constraints.
type refEdge struct {
	from, to  int
	w         int
	assertIdx int
}

// refGraph is the difference-constraint graph of a set of ground assertions.
type refGraph struct {
	edges []refEdge
	varID map[Var]int
	idVar []Var
}

// buildRefGraph translates ground assertions (identified by their indices
// into all) into a difference graph; active filters which assertions
// participate (nil means all).
func buildRefGraph(all []Assertion, idxs []int, active []bool) refGraph {
	return buildRefGraphOpt(all, idxs, active, true)
}

func buildRefGraphOpt(all []Assertion, idxs []int, active []bool, positivity bool) refGraph {
	g := refGraph{varID: map[Var]int{}, idVar: []Var{""}} // node 0 = the constant 0
	id := func(v Var) int {
		if v == "" {
			return zeroNode
		}
		if n, ok := g.varID[v]; ok {
			return n
		}
		n := len(g.idVar)
		g.varID[v] = n
		g.idVar = append(g.idVar, v)
		return n
	}
	for _, ai := range idxs {
		if active != nil && !active[ai] {
			continue
		}
		a := all[ai]
		va, vb := id(a.A.Var), id(a.B.Var)
		// A ≤ B:  val(va)+ka ≤ val(vb)+kb  ⇒  va − vb ≤ kb − ka.
		w := a.B.K - a.A.K
		switch a.Rel {
		case Le:
			g.edges = append(g.edges, refEdge{from: vb, to: va, w: w, assertIdx: ai})
		case Lt:
			g.edges = append(g.edges, refEdge{from: vb, to: va, w: w - 1, assertIdx: ai})
		case Eq:
			g.edges = append(g.edges, refEdge{from: vb, to: va, w: w, assertIdx: ai})
			g.edges = append(g.edges, refEdge{from: va, to: vb, w: -w, assertIdx: ai})
		}
	}
	// Positivity: x ≥ 1  ⇔  0 − x ≤ −1  ⇒  edge x → zero of weight −1.
	if positivity {
		for _, v := range g.idVar[1:] {
			g.edges = append(g.edges, refEdge{from: g.varID[v], to: zeroNode, w: -1, assertIdx: -1})
		}
	}
	return g
}

// bellmanFord relaxes the graph with an implicit virtual source (dist ≡ 0).
// It returns the final distances and a node relaxed in the n-th pass (−1
// when the graph converged, i.e. is satisfiable).
func (g refGraph) bellmanFord() (dist []int, relaxedNode int) {
	n := len(g.idVar)
	dist = make([]int, n)
	relaxedNode = -1
	for pass := 0; pass < n; pass++ {
		relaxedNode = -1
		for _, e := range g.edges {
			if d := dist[e.from] + e.w; d < dist[e.to] {
				dist[e.to] = d
				if relaxedNode < 0 {
					relaxedNode = e.to
				}
			}
		}
		if relaxedNode < 0 {
			return dist, -1
		}
	}
	return dist, relaxedNode
}

// refGroundSat reports whether the subset of ground assertions selected by
// active is satisfiable.
func refGroundSat(all []Assertion, idxs []int, active []bool) bool {
	_, relaxed := buildRefGraph(all, idxs, active).bellmanFord()
	return relaxed < 0
}

// referenceCheck is the original CheckContext, verbatim: per-probe graph
// rebuilds and full-pass Bellman–Ford throughout.
func referenceCheck(ctx context.Context, asserts []Assertion) (Result, error) {
	start := time.Now()
	res := Result{}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	// Phase 1: decide quantified assertions analytically.
	groundIdx := []int{}
	for i, a := range asserts {
		if a.QuantVar == "" {
			groundIdx = append(groundIdx, i)
			continue
		}
		ok, err := quantifiedValid(a)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			// A single invalid universal is itself a minimal core.
			res.Sat = false
			res.Core = []Assertion{a}
			res.CoreIdx = []int{i}
			res.Stats = Stats{Assertions: len(asserts), Duration: time.Since(start)}
			return res, nil
		}
	}

	// Phase 2+3: difference graph and Bellman–Ford.
	g := buildRefGraph(asserts, groundIdx, nil)
	n := len(g.idVar)
	res.Stats = Stats{Assertions: len(asserts), Variables: n - 1, Edges: len(g.edges)}
	dist, relaxedNode := g.bellmanFord()

	if relaxedNode >= 0 {
		coreIdx, err := refMinimizeCore(ctx, asserts, groundIdx)
		if err != nil {
			return Result{}, err
		}
		core := make([]Assertion, len(coreIdx))
		for i, ai := range coreIdx {
			core[i] = asserts[ai]
		}
		res.Sat = false
		res.Core = core
		res.CoreIdx = coreIdx
		res.Stats.Duration = time.Since(start)
		return res, nil
	}

	// Phase 4: extract a model. val(x) = dist(x) − dist(zero) satisfies
	// every difference constraint (distances do) and positivity (the
	// positivity edges are part of the graph).
	model := make(map[Var]int, n-1)
	for v, i := range g.varID {
		model[v] = dist[i] - dist[zeroNode]
	}
	res.Sat = true
	res.Model = model
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// refMinimizeCore performs deletion-based minimization over the ground
// assertions: walking candidates from last to first, each assertion whose
// removal keeps the remainder unsatisfiable is dropped. The result is a
// minimal unsatisfiable subset (every proper subset is satisfiable) biased
// toward the earliest-asserted constraints, matching the way the paper's
// narratives name the first violation (c ⊕ C = C for Gao-Rexford). This is
// the semantic contract the incremental engine's witness-pruned loop must
// reproduce decision for decision.
func refMinimizeCore(ctx context.Context, asserts []Assertion, groundIdx []int) (core []int, err error) {
	active := make([]bool, len(asserts))
	for _, i := range groundIdx {
		active[i] = true
	}
	for k := len(groundIdx) - 1; k >= 0; k-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := groundIdx[k]
		active[i] = false
		if refGroundSat(asserts, groundIdx, active) {
			active[i] = true // needed for unsatisfiability
		}
	}
	for _, i := range groundIdx {
		if active[i] {
			core = append(core, i)
		}
	}
	return core, nil
}
