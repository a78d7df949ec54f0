// Sharded constraint generation and the internet-scale analysis fast path.
//
// ToAlgebra + analysis.Constraints is the fidelity path: it materializes
// the full §III-B algebra (signature and label maps, the preference
// closure, the ⊕ tables) and derives the §IV-B constraint system from it —
// linear in the instance, but several times the work the constraints
// themselves need (chain:400 analyses in 3.3 ms that way against 0.45 ms
// through AnalyzeScale).
// The non-φ entries of the ⊕ table are exactly the permitted extensions the
// instance already states: for each directed link u→v, the permitted paths
// q of v whose extension u·q is permitted at u, in rank order. The
// DeltaVerifier's segment layout exploits this per-link view for
// incremental re-verification; this file exploits it for scale — the
// per-node preference segments (Nodes order) followed by the per-link
// monotonicity segments (Links order) are emitted in parallel into one
// preallocated array-of-struct buffer, element-for-element identical to
// what the full pipeline generates, in O(paths + links·K²) without
// building the algebra.
//
// On top of the sharded generator sits AnalyzeScale, the fast path
// Session.AnalyzeSPP takes for large instances: permitted paths become
// dense int32 ids (global rank order), the difference constraints go
// straight to smt.SolveDense — no Origin strings, no interning, no
// per-constraint provenance, not even the signature renderings (only the
// sanitized solver variables, each fused into a single allocation) — and
// the SCC-decomposed engine returns the canonical model, from which the
// analysis.Result is materialized with exactly the variables, values, and
// counts the classic path produces. Unsatisfiable instances re-solve
// through the provenance path (sharded AoS constraints +
// analysis.CheckPrepared), so minimized cores and §VI-B suspect sets stay
// bit-identical too. Instances the compact naming scheme cannot represent
// faithfully (duplicate solver-variable names, degenerate shapes) report
// ok=false and the caller stays on the classic path, mirroring the
// DeltaVerifier's degraded mode.

package spp

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/smt"
)

// linkMatch records one permitted extension: Permitted[Links[li].To][tq]
// extended over link li equals Permitted[Links[li].From][fq]. Matches are
// collected in link order, so the j-th match is monotonicity constraint
// totalPref+j of the canonical emission order.
type linkMatch struct {
	li, tq, fq int32
}

// shardPrep is the interned, densely indexed view of an instance the
// sharded generator and the scale path share. Per-path state lives in flat
// arrays indexed by global path id ((node, rank) order) rather than
// per-node slices — at 10⁵ nodes the slice headers alone would dominate
// allocation — and signature renderings are not materialized at all until
// a provenance buffer asks for them.
type shardPrep struct {
	in       *Instance
	perms    [][]Path // per node index: its permitted paths (shared, not copied)
	linkEnds []int32  // per link: from-index, to-index (2 entries each; −1 undeclared)
	pathOff  []int32  // global path-id base per node; id = pathOff[ni]+rank
	nPaths   int
	vars     []smt.Var // per path id: the sanitized solver variable
	prefOff  []int32   // per node: first preference-constraint index
	matches  []linkMatch
	// varOwner maps each solver variable name to its owning node index —
	// the §VI-B suspect lookup, built lazily (only the unsat path reads
	// it; the duplicate gate runs on sorted hashes instead).
	varOwner map[string]int32
	ok       bool
}

// ownerMap lazily builds the variable-name → owning-node index.
func (p *shardPrep) ownerMap() map[string]int32 {
	if p.varOwner == nil {
		p.varOwner = make(map[string]int32, p.nPaths)
		for ni := 0; ni < len(p.perms); ni++ {
			for _, v := range p.vars[p.pathOff[ni]:p.pathOff[ni+1]] {
				p.varOwner[string(v)] = int32(ni)
			}
		}
	}
	return p.varOwner
}

func (p *shardPrep) totalPref() int32 { return p.prefOff[len(p.prefOff)-1] }
func (p *shardPrep) total() int32     { return p.totalPref() + int32(len(p.matches)) }

// parShards splits [0,n) into at most `workers` contiguous chunks and runs
// fn on each concurrently. fn receives (shard, lo, hi); shard indexes are
// dense so callers can collect per-shard results deterministically.
func parShards(n, workers int, fn func(shard, lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fn(shard, lo, hi)
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
}

// shardCount returns the number of chunks parShards(n, workers, ·) will
// run — for sizing per-shard result buffers.
func shardCount(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return 0
	}
	if workers <= 1 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// cleanByte maps each ASCII byte to itself when it is in
// analysis.sanitize's identifier-safe set and to '_' otherwise.
var cleanByte = func() (t [128]byte) {
	for i := range t {
		c := byte(i)
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			t[i] = c
		} else {
			t[i] = '_'
		}
	}
	return
}()

// appendClean appends s with every rune outside analysis.sanitize's
// identifier-safe set replaced by '_'. ASCII bytes go through the lookup
// table; a multi-byte (or invalid) rune collapses to a single '_',
// matching sanitize's per-rune substitution.
func appendClean(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			b = append(b, cleanByte[c])
			i++
			continue
		}
		_, size := utf8.DecodeRuneInString(s[i:])
		b = append(b, '_')
		i += size
	}
	return b
}

// renderVar computes analysis.VarName(sigName(q)) — the sanitized solver
// variable — in a single allocation, fusing sigName's rendering (the bare
// origin token for two-element paths, otherwise "r_" + the dot- or
// butt-joined elements of Path.String) with sanitize's per-rune '_'
// substitution. buf is a scratch buffer returned for reuse.
func renderVar(buf []byte, q Path) (smt.Var, []byte) {
	buf = buf[:0]
	if len(q) == 2 {
		buf = appendClean(buf, string(q[1]))
		if len(buf) == 0 {
			return "sig", buf // sanitize("") == "sig"
		}
		return smt.Var(buf), buf
	}
	single := true
	for _, n := range q {
		if len(n) > 1 && !isOrigin(n) {
			single = false
			break
		}
	}
	buf = append(buf, 'r', '_')
	for i, n := range q {
		if i > 0 && !single {
			buf = append(buf, '_') // the '.' join, post-sanitize
		}
		buf = appendClean(buf, string(n))
	}
	return smt.Var(buf), buf
}

// buildShardPrep validates the instance, interns every permitted path's
// solver variable into the flat array, and collects the permitted-extension
// matches in link order. Validation rides on the match list (extension
// propagation, below) instead of calling Instance.Validate: that is linear
// too, but its per-hop set lookups take 0.16 s on internet:50000, more than
// all of AnalyzeScale there (0.14 s; a `go run ./bench -workload
// scale-session` operation, one safe and one unsafe analysis, reads
// op_p50_ms ≈ 357 ms). A non-nil error is a structural validation failure
// with Validate's message shapes; ok=false flags instances the compact
// naming scheme cannot represent.
func buildShardPrep(in *Instance, workers int) (*shardPrep, error) {
	nn := len(in.Nodes)
	nl := len(in.Links)
	p := &shardPrep{
		in:       in,
		perms:    make([][]Path, nn),
		linkEnds: make([]int32, 2*nl),
		pathOff:  make([]int32, nn+1),
		prefOff:  make([]int32, nn+1),
	}
	// The link set is only filled if some path escapes extension
	// propagation and needs the per-path validator.
	ix := topoIndex{nodes: make(map[Node]int32, nn), origins: make(map[Node]bool, len(in.Origins))}
	for i, n := range in.Nodes {
		ix.nodes[n] = int32(i)
	}
	for _, o := range in.Origins {
		ix.origins[o] = true
	}
	for ni, n := range in.Nodes {
		paths := in.Permitted[n]
		p.perms[ni] = paths
		p.pathOff[ni+1] = p.pathOff[ni] + int32(len(paths))
		c := int32(0)
		if len(paths) > 1 {
			c = int32(len(paths) - 1)
		}
		p.prefOff[ni+1] = p.prefOff[ni] + c
	}
	p.nPaths = int(p.pathOff[nn])

	// One string-resolution pass over the links: index pairs for the match
	// and fill loops. Links with undeclared endpoints can't be resolved and
	// never produce matches; paths crossing them fall to the string-keyed
	// validator below, where the "crosses undeclared node" error stays
	// reachable exactly where Validate reports it.
	// Sessions append both directions back to back, so the previous link's
	// endpoints predict this one's — string equality on the shared backing
	// array short-circuits before hashing.
	var cacheA, cacheB Node
	var cacheAi, cacheBi int32
	var haveA, haveB bool
	resolve := func(n Node) int32 {
		if haveA && n == cacheA {
			return cacheAi
		}
		if haveB && n == cacheB {
			return cacheBi
		}
		id, ok := ix.nodes[n]
		if !ok {
			id = -1
		}
		cacheA, cacheAi, haveA = cacheB, cacheBi, haveB
		cacheB, cacheBi, haveB = n, id, true
		return id
	}
	for li, l := range in.Links {
		p.linkEnds[2*li], p.linkEnds[2*li+1] = resolve(l.From), resolve(l.To)
	}

	// Permitted-extension matches: one parallel pass, per-shard buffers
	// concatenated in shard order. Shards are contiguous link ranges, so
	// concatenation preserves the canonical link-order emission.
	bufs := make([][]linkMatch, shardCount(nl, workers))
	parShards(nl, workers, func(shard, lo, hi int) {
		var buf []linkMatch
		for li := lo; li < hi; li++ {
			fi, ti := p.linkEnds[2*li], p.linkEnds[2*li+1]
			if fi < 0 || ti < 0 {
				continue
			}
			from, permF := in.Links[li].From, p.perms[fi]
			for tq, q := range p.perms[ti] {
				if fq := extensionRank(permF, from, q); fq >= 0 {
					buf = append(buf, linkMatch{int32(li), int32(tq), fq})
				}
			}
		}
		bufs[shard] = buf
	})
	if len(bufs) == 1 {
		p.matches = bufs[0]
	} else {
		total := 0
		for _, b := range bufs {
			total += len(b)
		}
		p.matches = make([]linkMatch, 0, total)
		for _, b := range bufs {
			p.matches = append(p.matches, b...)
		}
	}

	// Validation by extension propagation. A two-element path is valid iff
	// it is [owner, origin]. A matched extension [From]+q over link li is
	// valid whenever q is: its first hop IS link li (both endpoints
	// declared), its owner is From by extensionRank's prefix check, and its
	// remaining hops and origin token are q's. Propagating validity through
	// the match list therefore proves every extension-structured path
	// without touching a map — and instances built by rank-and-extend (all
	// generators, and anything GenerateInternet produces) have no other
	// paths. Whatever is left unproven gets the string-keyed validator with
	// Validate's exact per-path error messages.
	valid := make([]bool, p.nPaths)
	parShards(nn, workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			n := in.Nodes[ni]
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				if len(q) == 2 && q[0] == n && ix.origins[q[1]] {
					valid[base+int32(r)] = true
				}
			}
		}
	})
	for changed := true; changed; {
		changed = false
		for _, m := range p.matches {
			a := p.pathOff[p.linkEnds[2*m.li+1]] + m.tq
			b := p.pathOff[p.linkEnds[2*m.li]] + m.fq
			if valid[a] && !valid[b] {
				valid[b] = true
				changed = true
			}
		}
	}
	for ni := 0; ni < nn; ni++ {
		base := p.pathOff[ni]
		for r, q := range p.perms[ni] {
			if valid[base+int32(r)] {
				continue
			}
			if ix.links == nil {
				ix.links = make(map[Link]bool, nl)
				for _, l := range in.Links {
					ix.links[l] = true
				}
			}
			if err := ix.validatePath(in.Name, in.Nodes[ni], q, false); err != nil {
				return nil, err
			}
		}
	}
	if err := ix.undeclaredRanking(in); err != nil {
		return nil, err
	}

	// Solver-variable interning, sharded by node into the flat array. The
	// duplicate-screen hash rides along while the bytes are hot.
	p.vars = make([]smt.Var, p.nPaths)
	keys := make([]uint64, p.nPaths)
	parShards(nn, workers, func(_, lo, hi int) {
		var buf []byte
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				id := base + int32(r)
				p.vars[id], buf = renderVar(buf, q)
				keys[id] = fnv64(p.vars[id])
			}
		}
	})

	// Collision gate: a duplicated variable name — whether from equal
	// renderings (the classic path errors on those) or a sanitization
	// collision (the classic path suffixes them) — makes the compact
	// naming ambiguous, and the classic path must decide the instance.
	// Sorted 64-bit hashes screen for duplicates without a string map;
	// only a hash collision pays for the exact check.
	p.ok = nl > 0 && p.nPaths > 0
	if p.ok {
		slices.Sort(keys)
		for i := 1; i < p.nPaths; i++ {
			if keys[i] == keys[i-1] {
				seen := make(map[string]struct{}, p.nPaths)
				for _, v := range p.vars {
					if _, dup := seen[string(v)]; dup {
						p.ok = false
						obsShardCollisions.Inc()
						break
					}
					seen[string(v)] = struct{}{}
				}
				break
			}
		}
	}
	return p, nil
}

// fnv64 is FNV-1a over the variable name — the duplicate screen's hash.
func fnv64(v smt.Var) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	return h
}

// extensionRank returns the rank of the extension [from]+q in perm, or −1
// when the extension is not permitted. Allocation-free (the element-wise
// compare never materializes the extended path).
func extensionRank(perm []Path, from Node, q Path) int32 {
	for r, pp := range perm {
		if len(pp) != len(q)+1 || pp[0] != from {
			continue
		}
		match := true
		for i := range q {
			if pp[i+1] != q[i] {
				match = false
				break
			}
		}
		if match {
			return int32(r)
		}
	}
	return -1
}

// renderSyms materializes every path's signature rendering (sigName) into
// a flat array. Renderings exist purely for provenance — origin strings,
// PrefPair/ConcatEntry symbols — so only the AoS buffer pays for them; the
// dense sat path never calls this.
func (p *shardPrep) renderSyms(workers int) []string {
	defer timeEmit(obsEmitSyms, time.Now())
	syms := make([]string, p.nPaths)
	parShards(len(p.in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				syms[base+int32(r)] = sigName(q)
			}
		}
	})
	return syms
}

// shardedConstraints fills the preallocated constraint buffer in parallel,
// mirroring the DeltaVerifier's prefSeg/monoSeg emission — which is also
// exactly the emission order of algebra.Preferences followed by
// algebra.ConcatTable on the converted instance — element for element.
func (p *shardPrep) shardedConstraints(workers int) []analysis.Constraint {
	in := p.in
	syms := p.renderSyms(workers)
	totalPref := p.totalPref()
	cons := make([]analysis.Constraint, p.total())
	prefStart := time.Now()
	parShards(len(in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			out := cons[p.prefOff[ni]:p.prefOff[ni+1]]
			for i := range out {
				a, b := base+int32(i), base+int32(i)+1
				pair := algebra.PrefPair{
					A:      algebra.Symbol(syms[a]),
					B:      algebra.Symbol(syms[b]),
					Strict: true,
				}
				out[i] = analysis.Constraint{
					Assertion: smt.Assertion{
						Rel:    smt.Lt,
						A:      smt.Term{Var: p.vars[a]},
						B:      smt.Term{Var: p.vars[b]},
						Origin: "pref: " + pair.String(),
					},
					Kind: analysis.KindPreference,
					Pref: pair,
				}
			}
		}
	})
	timeEmit(obsEmitPref, prefStart)
	monoStart := time.Now()
	parShards(len(p.matches), workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			m := p.matches[j]
			l := in.Links[m.li]
			a := p.pathOff[p.linkEnds[2*m.li+1]] + m.tq
			b := p.pathOff[p.linkEnds[2*m.li]] + m.fq
			entry := algebra.ConcatEntry{
				Label: algebra.LSym("l_" + string(l.From) + string(l.To)),
				In:    algebra.Symbol(syms[a]),
				Out:   algebra.Symbol(syms[b]),
			}
			cons[totalPref+int32(j)] = analysis.Constraint{
				Assertion: smt.Assertion{
					Rel:    smt.Lt,
					A:      smt.Term{Var: p.vars[a]},
					B:      smt.Term{Var: p.vars[b]},
					Origin: "mono: " + entry.String(),
				},
				Kind:  analysis.KindMonotonicity,
				Entry: entry,
			}
		}
	})
	timeEmit(obsEmitMono, monoStart)
	return cons
}

// ShardedConstraints generates the instance's strict-monotonicity
// constraint system in parallel: element-for-element identical (assertion,
// origin, kind, provenance) to analysis.Constraints over in.ToAlgebra(),
// without materializing the algebra. ok=false means the instance's
// variable names collide (or the instance is degenerate) and the caller
// must use the classic path; a non-nil error is a validation failure.
func ShardedConstraints(in *Instance, workers int) ([]analysis.Constraint, bool, error) {
	p, err := buildShardPrep(in, workers)
	if err != nil {
		return nil, false, err
	}
	if !p.ok {
		return nil, false, nil
	}
	return p.shardedConstraints(workers), true, nil
}

// denseConstraints emits the same constraint system as compact
// smt.DenseConstraint records over global path ids (1-based; 0 is the
// solver's zero anchor) — no strings, no provenance — and marks which
// variables appear, since the classic path only interns (and models)
// variables that occur in some assertion.
func (p *shardPrep) denseConstraints(workers int) (cons []smt.DenseConstraint, appears []bool) {
	totalPref := p.totalPref()
	cons = make([]smt.DenseConstraint, p.total())
	prefStart := time.Now()
	parShards(len(p.in.Nodes), workers, func(_, lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni] + 1
			out := cons[p.prefOff[ni]:p.prefOff[ni+1]]
			for i := range out {
				out[i] = smt.DenseConstraint{A: base + int32(i), B: base + int32(i) + 1, Strict: true}
			}
		}
	})
	timeEmit(obsEmitDensePref, prefStart)
	monoStart := time.Now()
	parShards(len(p.matches), workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			m := p.matches[j]
			cons[totalPref+int32(j)] = smt.DenseConstraint{
				A:      p.pathOff[p.linkEnds[2*m.li+1]] + m.tq + 1,
				B:      p.pathOff[p.linkEnds[2*m.li]] + m.fq + 1,
				Strict: true,
			}
		}
	})
	timeEmit(obsEmitDenseMono, monoStart)
	appears = make([]bool, p.nPaths+1)
	for i := range cons {
		appears[cons[i].A] = true
		appears[cons[i].B] = true
	}
	return cons, appears
}

// suspects mirrors Conversion.SuspectNodes over the prep's owner map: the
// owner of the less-preferred signature of each preference constraint and
// of the extended signature of each monotonicity constraint, deduplicated
// and sorted.
func (p *shardPrep) suspects(core []analysis.Constraint) []Node {
	seen := map[Node]bool{}
	var out []Node
	add := func(s algebra.Sig) {
		sym, ok := s.(algebra.Symbol)
		if !ok {
			return
		}
		ni, found := p.ownerMap()[string(analysis.VarName(string(sym)))]
		if !found {
			return
		}
		n := p.in.Nodes[ni]
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, c := range core {
		switch c.Kind {
		case analysis.KindPreference:
			add(c.Pref.A)
		case analysis.KindMonotonicity:
			add(c.Entry.Out)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AnalyzeScale is the large-instance analysis fast path: sharded
// generation, dense encoding, and the SCC-decomposed solver, producing a
// Result (and §VI-B suspect set) bit-identical to
// analysis.CheckWith(in.ToAlgebra(), StrictMonotonicity) + SuspectNodes.
// Satisfiable instances never materialize a provenance constraint or even
// a signature rendering; unsatisfiable ones re-solve through the sharded
// AoS buffer and analysis.CheckPrepared so minimized cores keep their
// canonical order. ok=false (with nil error) means the instance needs the
// classic path — structural validation failures are also reported that
// way, so the classic path can raise its canonical error.
func AnalyzeScale(ctx context.Context, in *Instance, workers int) (analysis.Result, []Node, bool, error) {
	ctx, prepSpan := obs.StartSpan(ctx, "shard-prep")
	p, err := buildShardPrep(in, workers)
	prepSpan.End()
	if err != nil || !p.ok {
		obsPathFallback.Inc()
		return analysis.Result{}, nil, false, nil
	}
	ctx, emitSpan := obs.StartSpan(ctx, "dense-emit")
	dense, appears := p.denseConstraints(workers)
	emitSpan.AttrInt("constraints", int64(len(dense)))
	emitSpan.End()
	ctx, solveSpan := obs.StartSpan(ctx, "solve-dense")
	sat, model, stats, err := smt.SolveDense(ctx, p.nPaths, dense, workers)
	solveSpan.AttrInt("components", int64(stats.Components))
	solveSpan.AttrInt("levels", int64(stats.Levels))
	solveSpan.End()
	if err != nil {
		return analysis.Result{}, nil, false, err
	}
	name := "spp-" + in.Name
	if sat {
		obsPathDense.Inc()
		res := analysis.Result{
			Algebra:         name,
			Condition:       analysis.StrictMonotonicity,
			Sat:             true,
			NumPreference:   int(p.totalPref()),
			NumMonotonicity: len(p.matches),
			Stats:           stats,
		}
		nVars := 0
		res.Model = make(map[string]int, p.nPaths)
		for id := 1; id <= p.nPaths; id++ {
			if appears[id] {
				res.Model[string(p.vars[id-1])] = model[id]
				nVars++
			}
		}
		// Classic interning only counts appearing variables; the dense
		// solve saw every path id. Report the classic figures.
		res.Stats.Variables = nVars
		res.Stats.Edges = len(dense) + nVars
		return res, nil, true, nil
	}
	obsPathResolve.Inc()
	ctx, resolveSpan := obs.StartSpan(ctx, "resolve-classic")
	cons := p.shardedConstraints(workers)
	res, err := analysis.CheckPrepared(ctx, name, analysis.StrictMonotonicity, cons, smt.Native{})
	resolveSpan.End()
	if err != nil {
		return analysis.Result{}, nil, false, err
	}
	res.Stats.Components = stats.Components
	res.Stats.TrivialComponents = stats.TrivialComponents
	res.Stats.Levels = stats.Levels
	res.Stats.MaxLevelWidth = stats.MaxLevelWidth
	res.Stats.TarjanDuration = stats.TarjanDuration
	return res, p.suspects(res.Core), true, nil
}
