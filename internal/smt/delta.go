// Delta solving: the verification-as-a-service extension of the pooled
// incremental engine. A Context interns variables and builds its constraint
// graph once per Check; a DeltaContext keeps that graph alive *across*
// checks, so a what-if request that touches one session or ranking patches
// the edge list in place and re-probes only the region of the constraint
// graph reachable from the touched assertions, instead of rebuilding and
// re-solving everything.
//
// The invariant that makes this sound: after a sat solve, dist holds a
// fixed point of the active constraint graph. A splice changes the in-edge
// sets of a known set of "changed" nodes (the heads of deleted and added
// edges, plus the zero node when fresh variables bring new positivity
// edges). Any node whose fixed-point distance can move is reachable from a
// changed node along out-edges, so the affected region is the forward
// closure of the changed set; everything outside it keeps both its in-edge
// set and the distances of those in-edges' tails, hence its distance.
// SPFA re-seeded on the affected region (boundary edges relaxed from the
// standing distances) converges to the same fixed point a full solve would
// reach. A negative cycle introduced by the splice must contain a spliced
// edge — the surviving edges are a subset of a previously satisfiable set —
// so it lies inside the affected region and still triggers SPFA's
// enqueue-count bound, at which point the check falls back to a full
// rebuild and the engine's one solve (condensation, level run, minimization
// inside the unsatisfiable components), guaranteeing unsat verdicts, models,
// and minimal cores are bit-for-bit those of a fresh Context.Check (the
// differential oracle the tests and the server's -check-oracle mode
// enforce).

package smt

import (
	"context"
	"fmt"
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
	// FullSolves counts checks that rebuilt the graph (first solve, any
	// solve after an unsat verdict, or a delta probe that found a negative
	// cycle and fell back for exact core minimization).
	FullSolves int
	// LastAffected is the size of the affected region of the last delta
	// solve (0 when the last solve was full).
	LastAffected int
	// LastDuration is the wall time of the last solving Check.
	LastDuration time.Duration
}

// DeltaContext is a mutable logical context with incremental solving:
// Splice edits the assertion list in place and Check re-decides it, reusing
// the converged state of the previous solve when possible. It is the
// solver-level "delta verification" entry point of the fsr serve daemon.
//
// A DeltaContext is not safe for concurrent use. Unlike Context, it owns a
// private engine (never pooled), because its value is exactly the state
// carried between checks.
type DeltaContext struct {
	asserts  []Assertion
	numQuant int

	e *dlEngine

	// built: e reflects asserts. clean: e.dist is a converged fixed point
	// of the full active graph (last solve was sat) and the active mask is
	// all-ground-assertions (minimize was not run since).
	built, clean bool
	csrDirty     bool

	// edgeOff[i] is the offset of assertion i's edges in e.edges;
	// edgeOff[len(asserts)] is the total assertion-edge count (positivity
	// edges follow). Quantified assertions own zero edges.
	edgeOff []int32
	// varRef counts ground-assertion references per variable id. Interning
	// is persistent across splices, so a variable whose assertions were all
	// removed stays in the graph as an orphan (positivity edge only, no
	// in-edges); varRef masks orphans out of models, which keeps them
	// bit-for-bit equal to a fresh solve's.
	varRef []int32

	// changed marks nodes whose in-edge set was touched by splices since
	// the last solve.
	changed   []int32
	changedIn []bool

	// affected-region scratch.
	affected []int32
	inAff    []bool

	// memoized result of the last Check, valid until the next Splice.
	res      Result
	resValid bool

	stats DeltaStats
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

// Clone returns an independent copy, including the warm engine state, so a
// what-if can be applied to the clone and discarded without disturbing (or
// cooling) the original.
func (d *DeltaContext) Clone() *DeltaContext {
	c := &DeltaContext{
		asserts:  append([]Assertion(nil), d.asserts...),
		numQuant: d.numQuant,
		e:        d.e.clone(),
		built:    d.built,
		clean:    d.clean,
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
// copied too: dist/pred are live state for a clean delta context; the
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

// Splice replaces asserts[at : at+del] with add (normalized), patching the
// live constraint graph in place when one exists: the removed assertions'
// edges are cut out of the edge list, the added assertions' edges spliced
// in, new variables interned persistently, and the heads of every touched
// edge recorded as changed so the next Check can re-probe just the region
// they reach.
func (d *DeltaContext) Splice(at, del int, add []Assertion) error {
	if at < 0 || del < 0 || at+del > len(d.asserts) {
		return fmt.Errorf("smt: splice [%d:%d+%d] out of range 0..%d", at, at, del, len(d.asserts))
	}
	obsDeltaSplices.Inc()
	d.resValid = false
	// Normalize the additions once, up front.
	norm := make([]Assertion, len(add))
	for i, a := range add {
		norm[i] = a.normalized()
	}
	for _, a := range d.asserts[at : at+del] {
		if a.QuantVar != "" {
			d.numQuant--
		}
	}
	for _, a := range norm {
		if a.QuantVar != "" {
			d.numQuant++
		}
	}

	if !d.built || !d.clean {
		// No live converged graph to patch: splice the assert list only;
		// the next Check rebuilds from scratch anyway.
		d.asserts = spliceAsserts(d.asserts, at, del, norm)
		return nil
	}

	e := d.e
	// Deleted assertions drop their variable references; added ones intern
	// (persistently), contribute their edges and add references. A fresh
	// node grows the node-indexed buffers and starts at the virtual-source
	// distance like every node of a fresh solve.
	for i := at; i < at+del; i++ {
		d.ref(&d.asserts[i], -1)
	}
	oldV := len(e.idVar)
	var addEdges []dlEdge
	for j := range norm {
		addEdges = e.appendEdges(addEdges, &norm[j], int32(at+j))
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
	for j := range norm {
		d.ref(&norm[j], 1)
	}

	// Edge-list surgery. Layout: [0:aEnd) untouched prefix, [aEnd:dEnd)
	// deleted, [dEnd:tEnd) shifted tail, then positivity (regenerated).
	aEnd := int(d.edgeOff[at])
	dEnd := int(d.edgeOff[at+del])
	tEnd := int(d.edgeOff[len(d.asserts)])
	for i := aEnd; i < dEnd; i++ {
		d.markChanged(e.edges[i].to)
	}
	for i := range addEdges {
		d.markChanged(addEdges[i].to)
	}
	if len(e.idVar) > oldV {
		// Fresh positivity edges point at the zero node.
		d.markChanged(zeroNode)
	}
	shift := int32(len(norm) - del)
	tailLen := tEnd - dEnd
	newAssertEdges := aEnd + len(addEdges) + tailLen
	nVars := len(e.idVar) - 1
	need := newAssertEdges + nVars
	if cap(e.edges) < need {
		grown := make([]dlEdge, newAssertEdges, need)
		copy(grown, e.edges[:aEnd])
		copy(grown[aEnd:], addEdges)
		copy(grown[aEnd+len(addEdges):], e.edges[dEnd:tEnd])
		e.edges = grown
	} else {
		e.edges = e.edges[:newAssertEdges]
		copy(e.edges[aEnd+len(addEdges):newAssertEdges], e.edges[dEnd:tEnd]) // overlap-safe
		copy(e.edges[aEnd:], addEdges)
	}
	if shift != 0 {
		for i := aEnd + len(addEdges); i < newAssertEdges; i++ {
			e.edges[i].assertIdx += shift
		}
	}
	e.appendPositivity()
	d.csrDirty = true

	// Splice the assertion list and rebuild the per-assertion tables (O(n)
	// integer work, no interning).
	d.asserts = spliceAsserts(d.asserts, at, del, norm)
	d.rebuildOffsets()
	n := len(d.asserts)
	e.active = growBool(e.active, n)
	e.inWitness = growBool(e.inWitness, n)
	for i := range d.asserts {
		e.active[i] = d.asserts[i].QuantVar == ""
		e.inWitness[i] = false
	}
	e.witness = e.witness[:0]
	return nil
}

func spliceAsserts(asserts []Assertion, at, del int, add []Assertion) []Assertion {
	out := make([]Assertion, 0, len(asserts)-del+len(add))
	out = append(out, asserts[:at]...)
	out = append(out, add...)
	out = append(out, asserts[at+del:]...)
	return out
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
// next Splice. A clean (previously sat) context is re-decided by the delta
// path: forward-closure of the changed nodes, boundary relaxation, seeded
// SPFA. Anything else — first check, any check after unsat, or a delta
// probe that hits a negative cycle — runs the exact full path of
// Context.CheckContext on the same engine, so verdicts, models, and
// minimal cores are always bit-for-bit those of a fresh solve.
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

	if d.built && d.clean {
		res, solved, err := d.deltaSolve(ctx, start)
		if err != nil {
			return Result{}, err
		}
		if solved {
			return res, nil
		}
		// Negative-cycle trigger: fall through to the exact full path.
	}
	return d.fullSolve(ctx, start)
}

// memo keeps a solving Check's result until the next Splice.
func (d *DeltaContext) memo(res Result) Result {
	d.stats.LastDuration = res.Stats.Duration
	d.res, d.resValid = res, true
	return res
}

// fullSolve rebuilds the engine for the current assertions and runs the
// engine's one solve, exactly as the string door does on a pooled engine.
func (d *DeltaContext) fullSolve(ctx context.Context, start time.Time) (Result, error) {
	e := d.e
	e.build(d.asserts)
	d.built, d.csrDirty = true, false
	d.rebuildOffsets()
	// Recompute reference counts against the rebuilt (orphan-free) intern
	// table.
	d.varRef = growInt32(d.varRef, len(e.idVar))
	clear(d.varRef)
	for i := range d.asserts {
		d.ref(&d.asserts[i], 1)
	}
	d.changedIn = growBool(d.changedIn, len(e.idVar))
	clear(d.changedIn)
	d.changed = d.changed[:0]
	d.stats.FullSolves++
	obsFullSolves.Inc()
	d.stats.LastAffected = 0

	var (
		res Result
		err error
	)
	res.Sat, res.CoreIdx, res.UsesPositivity, err = e.solve(ctx, 1, false, &res.Stats)
	if err != nil {
		// The active mask may be mid-minimization: force a rebuild next time.
		d.built, d.clean = false, false
		return Result{}, err
	}
	// An unsat solve's minimization disturbed the active mask and distances.
	if d.clean = res.Sat; res.Sat {
		res.Model = e.model(d.varRef)
	} else {
		res.Core = coreOf(d.asserts, res.CoreIdx)
	}
	res.Stats.Duration = time.Since(start)
	return d.memo(res), nil
}

// deltaSolve re-probes the affected region of a clean graph. It reports
// solved=false when SPFA triggers the negative-cycle bound, in which case
// the caller runs the full path (state is untouched in a way that matters:
// fullSolve rebuilds everything).
func (d *DeltaContext) deltaSolve(ctx context.Context, start time.Time) (Result, bool, error) {
	e := d.e
	if d.csrDirty {
		e.buildCSR()
		d.csrDirty = false
	}
	if len(d.changed) == 0 {
		// Nothing touched the graph since the last fixed point (e.g. a
		// splice of identical assertions): the standing distances are the
		// answer.
		return d.deltaSat(start, 0), true, nil
	}

	// Affected region: forward closure of the changed nodes over active
	// out-edges. Only nodes in this set can see their fixed-point distance
	// move, and any new negative cycle lies entirely inside it.
	d.inAff = growBool(d.inAff, len(e.idVar))
	d.affected = d.affected[:0]
	for _, v := range d.changed {
		if !d.inAff[v] {
			d.inAff[v] = true
			d.affected = append(d.affected, v)
		}
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

	// Reset the region to virtual-source distances and seed the queue with
	// it; boundary edges (unaffected tail → affected head) are relaxed once
	// from the standing distances, which never move during the re-probe.
	for i, v := range d.affected {
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

	nAff := len(d.affected)
	for _, v := range d.affected {
		d.inAff[v] = false
	}
	d.affected = d.affected[:0]

	if trigger >= 0 {
		// A negative cycle (or an unconfirmable trigger): hand over to the
		// full path for the exact verdict and minimal core.
		d.clean = false
		return Result{}, false, nil
	}
	d.clearChanged()
	return d.deltaSat(start, nAff), true, nil
}

// deltaSat reports the standing fixed point as a delta solve's sat result,
// masking orphaned variables (interned once, no longer referenced) out of
// the model so it matches a fresh solve's exactly.
func (d *DeltaContext) deltaSat(start time.Time, affected int) Result {
	e := d.e
	res := Result{Sat: true, Model: e.model(d.varRef),
		Stats: Stats{Assertions: len(d.asserts), Variables: len(e.idVar) - 1, Edges: len(e.edges)}}
	e.snapshotStats(&res.Stats)
	res.Stats.Duration = time.Since(start)
	d.stats.DeltaSolves++
	obsDeltaSolves.Inc()
	d.stats.LastAffected = affected
	return d.memo(res)
}
