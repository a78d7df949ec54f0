package smt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fsr/internal/obs"
)

// Solver decides a conjunction of assertions and reports the model or the
// minimal unsat core. Native, the in-process engine that stands in for the
// paper's Yices (§IV-C), is the only implementation production uses; the
// interface is the seam through which tests substitute the Reference
// oracle. Yices text is output only (Emit, Parse). Implementations are
// stateless and safe for concurrent use, and fill CoreIdx on every unsat
// result.
type Solver interface {
	// Name identifies the implementation ("native", "reference").
	Name() string
	// Solve decides the conjunction of the assertions. Cancellation of ctx
	// aborts the solve with ctx.Err().
	Solve(ctx context.Context, assertions []Assertion) (Result, error)
}

// Native decides assertions with the built-in engine: SCC condensation,
// then a cycle search inside the components that hold a strict edge.
type Native struct{}

// Decomposed is Native: every solve is condensed. The name survives only
// for the frozen bench/replay.go and goes with it (ROADMAP item 1).
type Decomposed = Native

// Name implements Solver.
func (Native) Name() string { return "native" }

// namer is the adapter's pooled scratch: the name → id table, the names by
// id, and the dense atoms with their positions in the assertion list.
type namer struct {
	ids   map[Var]int32
	names []Var
	cons  []DenseConstraint
	pos   []int
}

var namerPool = sync.Pool{New: func() any { return &namer{ids: make(map[Var]int32, 64)} }}

// id returns the dense id of a variable, minting the next one for a first
// occurrence.
func (n *namer) id(v Var) int32 {
	if id, ok := n.ids[v]; ok {
		return id
	}
	n.names = append(n.names, v)
	id := int32(len(n.names))
	n.ids[v] = id
	return id
}

// Solve implements Solver: it is the one adapter from an assertion list to
// the engine. It normalizes Gt/Ge (no copy in the common all-Lt/Le/Eq case),
// decides the quantified atoms in closed form, reports an error for a term
// with a constant or an offset, numbers the variables from 1 in
// first-appearance order (A before B), solves the dense system, and names
// the model and the core back.
func (Native) Solve(ctx context.Context, assertions []Assertion) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ctx, sp := obs.StartSpan(ctx, "solve")
	sp.AttrInt("assertions", int64(len(assertions)))
	defer sp.End()
	asserts := normalizeAll(assertions)
	if res, decided, err := decideQuantified(asserts, start); decided || err != nil {
		return res, err
	}

	n := namerPool.Get().(*namer)
	defer namerPool.Put(n)
	clear(n.ids)
	n.names, n.cons, n.pos = n.names[:0], n.cons[:0], n.pos[:0]
	for i := range asserts {
		a := &asserts[i]
		if a.QuantVar != "" {
			continue
		}
		if a.A.Var == "" || a.B.Var == "" || a.A.K != 0 || a.B.K != 0 {
			return Result{}, fmt.Errorf("smt: %s: only atoms between two variables are decided, with no constant or offset", a)
		}
		n.cons = append(n.cons, DenseConstraint{A: n.id(a.A.Var), B: n.id(a.B.Var), Rel: a.Rel})
		n.pos = append(n.pos, i)
	}

	e := newEngine()
	defer e.release()
	defer e.flushStats() // LIFO: drain the loop counts before pooling
	e.load(len(n.names), n.cons)
	var (
		res  Result
		core []int
		err  error
	)
	res.Sat, core, err = e.solve(ctx, &res.Stats)
	if err != nil {
		return Result{}, err
	}
	res.Stats.Assertions = len(asserts)
	if res.Sat {
		res.Model = make(map[Var]int, len(n.names))
		for i, v := range n.names {
			res.Model[v] = e.value(int32(i + 1))
		}
	} else {
		for k, i := range core {
			core[k] = n.pos[i]
		}
		res.CoreIdx, res.Core = core, coreOf(asserts, core)
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// normalizeAll returns the assertions with Gt/Ge rewritten as Context.Assert
// would, copying only when one needs it.
func normalizeAll(assertions []Assertion) []Assertion {
	for i := range assertions {
		if r := assertions[i].Rel; r == Gt || r == Ge {
			norm := make([]Assertion, len(assertions))
			for j := range assertions {
				norm[j] = assertions[j].normalized()
			}
			return norm
		}
	}
	return assertions
}
