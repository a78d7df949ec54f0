// The §IV-B emitter for SPP instances: the one place the repo turns an
// instance into safety constraints without compiling an algebra.
//
// The non-φ entries of the converted instance's ⊕ table are exactly the
// permitted extensions the instance already states: for each directed link
// u→v, the permitted paths q of v whose extension u·q is permitted at u, in
// rank order. The constraint system is therefore one preference segment per
// node (Nodes order) followed by one monotonicity segment per link (Links
// order), and prefSeg and monoSeg below are the only functions that
// construct an SPP analysis.Constraint. The batch forms loop them over every
// segment, sharded across cores once an input is large enough to pay for it
// (parShards), into one preallocated buffer — element for element what
// analysis.Constraints generates from in.ToAlgebra(), in O(paths + links·K²)
// — and the DeltaVerifier calls the same two functions for the segments an
// edit touches.
//
// Analyze sits on top: permitted paths become dense int32 ids (global rank
// order) and the difference constraints go straight to smt.SolveDense, which
// makes the whole decision on those ids — no Origin strings, no
// per-constraint provenance, not even the signature renderings (only the
// sanitized solver variables, each fused into a single allocation). A
// satisfiable instance gets its model back by id; an unsatisfiable one gets
// its deletion-minimal core back as constraint positions, and
// coreConstraints runs prefSeg/monoSeg for exactly those positions, so the
// minimized core and the §VI-B suspect set are the ones the algebra
// pipeline reports while "unsafe" costs what "safe" costs plus the
// minimization probes. ToAlgebra's own rejections (duplicate links and
// renderings, degenerate algebras) and its collision suffixes on
// solver-variable names are reproduced by resolveNames.
//
// An analysis allocates its answer, not its scratch. Analyze borrows its
// shardPrep from prepPool, and buildShardPrep, resolveNames and
// denseConstraints refill that prep's arrays in place. What escapes is the
// model map, whose keys are the interned variable names, on a safe verdict,
// and the core and suspects on an unsafe one — strings shared with the prep,
// never a slice of it. NewTable and NewDeltaVerifier keep their prep, so
// they fill a fresh one through the same function.

package spp

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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

// shardPrep is the interned, densely indexed view of an instance the batch
// emitters share. Per-path state lives in flat arrays indexed by global path
// id ((node, rank) order) rather than per-node slices — at 10⁵ nodes the
// slice headers alone would dominate allocation — and signature renderings
// are not materialized at all until a provenance buffer asks for them.
// A prep filled again reuses its arrays; the fields after matches are scratch.
type shardPrep struct {
	in       *Instance
	perms    [][]Path // per node index: its permitted paths (shared, not copied)
	linkEnds []int32  // per link: from-index, to-index (2 entries each; −1 undeclared)
	pathOff  []int32  // global path-id base per node; id = pathOff[ni]+rank
	nPaths   int
	vars     []smt.Var // per path id: the solver variable
	prefOff  []int32   // per node: first preference-constraint index
	matches  []linkMatch

	nodes     map[Node]int32 // declared node → index in Nodes
	valid     []bool         // per path id: proven by extension propagation
	shardBufs [][]linkMatch  // per shard of the match pass; never matches' array
	keys, set []uint64       // hashDup's keys and open-addressed set
	dense     []smt.DenseConstraint
	appears   []bool // per dense id: occurs in some constraint
}

// prepPool holds Analyze's preps between analyses; like smt's engine pool
// it is emptied by the garbage collector, not by a size rule.
var prepPool = sync.Pool{New: func() any { return new(shardPrep) }}

// release returns a pooled prep, first dropping what still points into the
// instance it served — the instance, its rankings and the node map's keys —
// so the pool cannot keep a caller's discarded instance alive.
func (p *shardPrep) release() {
	p.in = nil
	clear(p.perms)
	clear(p.nodes)
	prepPool.Put(p)
}

// resize returns s zeroed at length n, reusing its array when that is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (p *shardPrep) totalPref() int32 { return p.prefOff[len(p.prefOff)-1] }
func (p *shardPrep) total() int32     { return p.totalPref() + int32(len(p.matches)) }

// segLens returns the length of every segment of the canonical emission
// order: one per node, then one per link.
func (p *shardPrep) segLens() []int {
	nn := len(p.perms)
	out := make([]int, nn+len(p.in.Links))
	for ni := 0; ni < nn; ni++ {
		out[ni] = int(p.prefOff[ni+1] - p.prefOff[ni])
	}
	for _, m := range p.matches {
		out[nn+int(m.li)]++
	}
	return out
}

// minShard is the fewest items a shard is given. Forking pays only once each
// goroutine has thousands of items to walk: an input this size or smaller —
// every campaign scenario, a 400-node upload — runs on the calling
// goroutine. Chosen from serial-against-sharded timings of spp.Analyze at
// internet:400 to :50000.
const minShard = 4096

// parShards splits [0,n) into equal contiguous shards — GOMAXPROCS of them,
// but none shorter than minShard — runs fn(s, lo, hi) on each shard s,
// concurrently when there is more than one, and returns fn's results in shard
// order. It is the one place shard boundaries are computed.
func parShards[T any](n int, fn func(s, lo, hi int) T) []T {
	out := make([]T, max(1, min(runtime.GOMAXPROCS(0), n/minShard)))
	if len(out) == 1 {
		out[0] = fn(0, 0, n)
		return out
	}
	chunk := (n + len(out) - 1) / len(out)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := i * chunk
			out[i] = fn(i, lo, min(lo+chunk, n))
		}()
	}
	wg.Wait()
	return out
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

// buildShardPrep fills p from the instance: it validates the instance,
// interns every permitted path's solver variable into the flat array, and
// collects the permitted-extension matches in link order. It is the one
// function that fills a prep; p is fresh for a caller that keeps the prep
// (NewTable, NewDeltaVerifier) and pooled for Analyze, which keeps only its
// answer. Validation rides on the match list (extension propagation, below)
// instead of calling Instance.Validate, whose per-hop set lookups cost more
// than this whole function. On internet:50000 (2-core Xeon guest, go1.24) the
// phases took 64 ms before undeclared rankings were counted instead of
// scanned for: node map and ranking lookups 10, link-end resolution 17,
// extension matches 15 (two shards), validation 4, the undeclared-ranking
// scan 7.5, variable rendering 12.5. A non-nil error is a structural
// validation failure, the one Validate reports. The interned variables are
// the natural (unsuffixed) names; resolveNames makes them the algebra
// pipeline's.
func buildShardPrep(p *shardPrep, in *Instance) error {
	nn := len(in.Nodes)
	nl := len(in.Links)
	p.in = in
	p.perms = resize(p.perms, nn)
	p.linkEnds = resize(p.linkEnds, 2*nl)
	p.pathOff = resize(p.pathOff, nn+1)
	p.prefOff = resize(p.prefOff, nn+1)
	if p.nodes == nil {
		p.nodes = make(map[Node]int32, nn)
	}
	// The link set is only filled if some path escapes extension
	// propagation and needs the per-path validator, and then only with the
	// hops those paths walk.
	ix := topoIndex{nodes: p.nodes, origins: make(map[Node]bool, len(in.Origins))}
	for i, n := range in.Nodes {
		ix.nodes[n] = int32(i)
	}
	for _, o := range in.Origins {
		ix.origins[o] = true
	}
	ranked := 0 // declared nodes with a ranking, duplicates counted again
	for ni, n := range in.Nodes {
		paths, ok := in.Permitted[n]
		if ok {
			ranked++
		}
		p.perms[ni] = paths
		p.pathOff[ni+1] = p.pathOff[ni] + int32(len(paths))
		p.prefOff[ni+1] = p.prefOff[ni] + int32(max(len(paths)-1, 0))
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

	// Permitted-extension matches: one sharded pass, per-shard buffers
	// concatenated in shard order. Shards are contiguous link ranges, so
	// concatenation preserves the canonical link-order emission. A shard
	// buffer never shares an array with the match list: a lone shard trades
	// places with it, several are copied into it.
	bufs := parShards(nl, func(s, lo, hi int) []linkMatch {
		var buf []linkMatch
		if s < len(p.shardBufs) {
			buf = p.shardBufs[s][:0]
		}
		for li := lo; li < hi; li++ {
			fi, ti := p.linkEnds[2*li], p.linkEnds[2*li+1]
			if fi < 0 || ti < 0 {
				continue
			}
			buf = appendMatches(buf, int32(li), in.Links[li].From, p.perms[fi], p.perms[ti])
		}
		return buf
	})
	if len(bufs) == 1 {
		p.matches, bufs[0] = bufs[0], p.matches
	} else {
		p.matches = p.matches[:0]
		for _, b := range bufs {
			p.matches = append(p.matches, b...)
		}
	}
	p.shardBufs = bufs

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
	p.valid = resize(p.valid, p.nPaths)
	valid := p.valid
	parShards(nn, func(_, lo, hi int) struct{} {
		for ni := lo; ni < hi; ni++ {
			n := in.Nodes[ni]
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				if len(q) == 2 && q[0] == n && ix.origins[q[1]] {
					valid[base+int32(r)] = true
				}
			}
		}
		return struct{}{}
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
	// The link set answers only what validatePath will ask: the hops of the
	// unproven paths, marked present in one pass over the links. Its size is
	// set by the paths that need it, not by the topology.
	type pathRef struct{ ni, r int32 }
	var unproven []pathRef
	for ni := 0; ni < nn; ni++ {
		base := p.pathOff[ni]
		for r := range p.perms[ni] {
			if !valid[base+int32(r)] {
				unproven = append(unproven, pathRef{int32(ni), int32(r)})
			}
		}
	}
	if len(unproven) > 0 {
		ix.links = map[Link]bool{}
		for _, u := range unproven {
			q := p.perms[u.ni][u.r]
			for i := 0; i+2 < len(q); i++ {
				ix.links[Link{q[i], q[i+1]}] = false
			}
		}
		for _, l := range in.Links {
			if _, asked := ix.links[l]; asked {
				ix.links[l] = true
			}
		}
		for _, u := range unproven {
			if err := ix.validatePath(in.Name, in.Nodes[u.ni], p.perms[u.ni][u.r], false); err != nil {
				return err
			}
		}
	}
	// Every ranking belongs to a declared node unless the rankings of the
	// distinct declared nodes are fewer than the rankings.
	if ranked != len(in.Permitted) || len(ix.nodes) != nn {
		if err := ix.undeclaredRanking(in); err != nil {
			return err
		}
	}

	// Solver-variable interning, sharded by node into the flat array.
	p.vars = resize(p.vars, p.nPaths)
	parShards(nn, func(_, lo, hi int) struct{} {
		var buf []byte
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				p.vars[base+int32(r)], buf = renderVar(buf, q)
			}
		}
		return struct{}{}
	})
	return nil
}

// resolveNames reproduces what ToAlgebra and analysis.newSigVars do to a
// structurally valid instance beyond naming each path after its rendering:
// the rejections, in ToAlgebra's order and wording (two links sharing a
// label, two paths sharing a rendering, an algebra with no labels or no
// signatures), and the first-come _2, _3, … suffixes over global path order
// that keep solver variables distinct when different renderings sanitize to
// one name. 64-bit hashes screen for duplicates without a string map; only
// an instance with a hash collision pays for the exact pass.
func (p *shardPrep) resolveNames() error {
	in := p.in
	if p.hashDup(len(in.Links), func(i int) uint64 {
		return fnv64(fnv64(fnvOffset, string(in.Links[i].From)), string(in.Links[i].To))
	}) {
		seen := make(map[string]bool, len(in.Links))
		for _, l := range in.Links {
			lab := string(l.From) + string(l.To)
			if seen[lab] {
				return fmt.Errorf("spp %s: duplicate link %s", in.Name, l)
			}
			seen[lab] = true
		}
	}
	if p.hashDup(p.nPaths, func(i int) uint64 { return fnv64(fnvOffset, string(p.vars[i])) }) {
		obsShardCollisions.Inc()
		if err := duplicatePath(in); err != nil {
			return err
		}
		taken := make(map[smt.Var]bool, p.nPaths)
		for id, base := range p.vars {
			name := base
			for i := 2; taken[name]; i++ {
				name = smt.Var(fmt.Sprintf("%s_%d", base, i))
			}
			p.vars[id] = name
			taken[name] = true
		}
	}
	switch {
	case len(in.Links) == 0:
		return fmt.Errorf("building algebra: algebra spp-%s: no labels declared", in.Name)
	case p.nPaths == 0:
		return fmt.Errorf("building algebra: algebra spp-%s: no signatures declared", in.Name)
	}
	return nil
}

// duplicatePath reports the first permitted path, in global path order,
// whose signature rendering an earlier path already took — ToAlgebra's
// error for an instance it cannot give one signature per path.
func duplicatePath(in *Instance) error {
	seen := map[string]bool{}
	for _, n := range in.Nodes {
		for _, q := range in.Permitted[n] {
			sym := sigName(q)
			if seen[sym] {
				return fmt.Errorf("spp %s: duplicate permitted path %s", in.Name, q)
			}
			seen[sym] = true
		}
	}
	return nil
}

// hashDup reports whether two of key(0..n−1) are equal. Keys are computed
// in shards and collected in an open-addressed set at most half full (0 marks
// an empty slot) — under half the cost of sorting them: the two screens of
// an internet:50000 analysis take 8 ms this way against 20 ms sorted. Equal
// inputs must hash equal, so false means no duplicates. Both arrays are the
// prep's, reused by the next screen.
func (p *shardPrep) hashDup(n int, key func(i int) uint64) bool {
	p.keys = resize(p.keys, n)
	p.set = resize(p.set, 1<<bits.Len(uint(2*n)))
	keys, set := p.keys, p.set
	parShards(n, func(_, lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			keys[i] = key(i) | 1
		}
		return struct{}{}
	})
	mask := uint64(len(set) - 1)
	for _, k := range keys {
		i := k >> 1 & mask
		for ; set[i] != 0; i = (i + 1) & mask {
			if set[i] == k {
				return true
			}
		}
		set[i] = k
	}
	return false
}

const fnvOffset = 14695981039346656037

// fnv64 folds s into the FNV-1a state h — the duplicate screen's hash.
func fnv64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// appendMatches appends link li's permitted extensions: for every permitted
// path q of the link's head (permT, by rank) whose extension [from]+q is
// permitted at the tail (permF), the two ranks.
func appendMatches(buf []linkMatch, li int32, from Node, permF, permT []Path) []linkMatch {
	for tq, q := range permT {
		if fq := extensionRank(permF, from, q); fq >= 0 {
			buf = append(buf, linkMatch{li, int32(tq), fq})
		}
	}
	return buf
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
// dense route never calls this (an unsat core renders its own members'
// through rankSlice).
func (p *shardPrep) renderSyms() []string {
	defer timeEmit(obsEmitSyms, time.Now())
	syms := make([]string, p.nPaths)
	parShards(len(p.in.Nodes), func(_, lo, hi int) struct{} {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				syms[base+int32(r)] = sigName(q)
			}
		}
		return struct{}{}
	})
	return syms
}

// ranking is one node's ranked permitted paths as the constraints name
// them: signature rendering (provenance) and solver variable, by rank.
type ranking struct {
	paths []Path
	syms  []string
	vars  []smt.Var
}

// naturalRanking names a node's paths after their renderings alone — what
// the algebra pipeline assigns as long as no two paths of the instance share
// a rendering or a sanitized name.
func naturalRanking(paths []Path) ranking {
	r := ranking{paths: paths, syms: make([]string, len(paths)), vars: make([]smt.Var, len(paths))}
	for i, q := range paths {
		r.syms[i] = sigName(q)
		r.vars[i] = analysis.VarName(r.syms[i])
	}
	return r
}

// ranking slices node ni's names out of the prep's flat arrays.
func (p *shardPrep) ranking(syms []string, ni int32) ranking {
	lo, hi := p.pathOff[ni], p.pathOff[ni+1]
	return ranking{paths: p.perms[ni], syms: syms[lo:hi], vars: p.vars[lo:hi]}
}

// prefSeg fills out, one slot per adjacent pair of the ranking, with the
// node's preference segment: the ranked list as strict pairwise preferences,
// Builder.Chain's expansion.
func prefSeg(out []analysis.Constraint, r ranking) {
	for i := range out {
		pair := algebra.PrefPair{
			A:      algebra.Symbol(r.syms[i]),
			B:      algebra.Symbol(r.syms[i+1]),
			Strict: true,
		}
		out[i] = analysis.Constraint{
			Assertion: smt.Assertion{
				Rel:    smt.Lt,
				A:      smt.Term{Var: r.vars[i]},
				B:      smt.Term{Var: r.vars[i+1]},
				Origin: "pref: " + pair.String(),
			},
			Kind: analysis.KindPreference,
			Pref: pair,
		}
	}
}

// monoSeg fills out, one slot per match, with link l's monotonicity
// constraints: the ⊕ entry l_uv ⊕ r_q = r_uq for each permitted extension —
// the slice of algebra.ConcatTable this link contributes.
func monoSeg(out []analysis.Constraint, l Link, ms []linkMatch, from, to ranking) {
	lab := algebra.LSym("l_" + string(l.From) + string(l.To))
	for j, m := range ms {
		entry := algebra.ConcatEntry{
			Label: lab,
			In:    algebra.Symbol(to.syms[m.tq]),
			Out:   algebra.Symbol(from.syms[m.fq]),
		}
		out[j] = analysis.Constraint{
			Assertion: smt.Assertion{
				Rel:    smt.Lt,
				A:      smt.Term{Var: to.vars[m.tq]},
				B:      smt.Term{Var: from.vars[m.fq]},
				Origin: "mono: " + entry.String(),
			},
			Kind:  analysis.KindMonotonicity,
			Entry: entry,
		}
	}
}

// shardedConstraints fills the preallocated provenance buffer, sharded:
// every node's prefSeg, then every link's monoSeg — the emission order of
// algebra.Preferences followed by algebra.ConcatTable on the converted
// instance.
func (p *shardPrep) shardedConstraints() []analysis.Constraint {
	syms := p.renderSyms()
	totalPref := p.totalPref()
	cons := make([]analysis.Constraint, p.total())
	prefStart := time.Now()
	parShards(len(p.perms), func(_, lo, hi int) struct{} {
		for ni := lo; ni < hi; ni++ {
			prefSeg(cons[p.prefOff[ni]:p.prefOff[ni+1]], p.ranking(syms, int32(ni)))
		}
		return struct{}{}
	})
	timeEmit(obsEmitPref, prefStart)
	monoStart := time.Now()
	// Shards are runs of matches, not of links, so one hub link cannot
	// unbalance them; a link's segment may straddle two shards.
	parShards(len(p.matches), func(_, lo, hi int) struct{} {
		for j := lo; j < hi; {
			li := p.matches[j].li
			k := j + 1
			for k < hi && p.matches[k].li == li {
				k++
			}
			monoSeg(cons[totalPref+int32(j):totalPref+int32(k)], p.in.Links[li], p.matches[j:k],
				p.ranking(syms, p.linkEnds[2*li]), p.ranking(syms, p.linkEnds[2*li+1]))
			j = k
		}
		return struct{}{}
	})
	timeEmit(obsEmitMono, monoStart)
	return cons
}

// ShardedConstraints generates the instance's strict-monotonicity
// constraint system, sharded above a size floor: element-for-element
// identical (assertion, origin, kind, provenance) to analysis.Constraints
// over in.ToAlgebra(), without materializing the algebra, and failing with
// ToAlgebra's error where that fails. The bool is err == nil. The second
// argument is ignored (the shards size themselves); it stays for the
// benchmark harness's replay.
func ShardedConstraints(in *Instance, _ int) ([]analysis.Constraint, bool, error) {
	p := new(shardPrep)
	err := buildShardPrep(p, in)
	if err == nil {
		err = p.resolveNames()
	}
	if err != nil {
		return nil, false, err
	}
	return p.shardedConstraints(), true, nil
}

// denseConstraints emits the same constraint system as compact
// smt.DenseConstraint records over global path ids (1-based; 0 is the
// solver's zero anchor) — no strings, no provenance — and marks which
// variables appear, since string interning only sees (and models) variables
// that occur in some assertion. Both arrays are the prep's.
func (p *shardPrep) denseConstraints() (cons []smt.DenseConstraint, appears []bool) {
	totalPref := p.totalPref()
	p.dense = resize(p.dense, int(p.total()))
	cons = p.dense
	prefStart := time.Now()
	parShards(len(p.in.Nodes), func(_, lo, hi int) struct{} {
		for ni := lo; ni < hi; ni++ {
			base := p.pathOff[ni] + 1
			out := cons[p.prefOff[ni]:p.prefOff[ni+1]]
			for i := range out {
				out[i] = smt.DenseConstraint{A: base + int32(i), B: base + int32(i) + 1}
			}
		}
		return struct{}{}
	})
	timeEmit(obsEmitDensePref, prefStart)
	monoStart := time.Now()
	parShards(len(p.matches), func(_, lo, hi int) struct{} {
		for j := lo; j < hi; j++ {
			m := p.matches[j]
			cons[totalPref+int32(j)] = smt.DenseConstraint{
				A: p.pathOff[p.linkEnds[2*m.li+1]] + m.tq + 1,
				B: p.pathOff[p.linkEnds[2*m.li]] + m.fq + 1,
			}
		}
		return struct{}{}
	})
	timeEmit(obsEmitDenseMono, monoStart)
	p.appears = resize(p.appears, p.nPaths+1)
	appears = p.appears
	for i := range cons {
		appears[cons[i].A] = true
		appears[cons[i].B] = true
	}
	return cons, appears
}

// rankSlice names ranks [lo,hi) of node ni, rendering just those paths'
// signatures — what a core member needs of a ranking.
func (p *shardPrep) rankSlice(ni, lo, hi int32) ranking {
	paths := p.perms[ni][lo:hi]
	syms := make([]string, len(paths))
	for i, q := range paths {
		syms[i] = sigName(q)
	}
	base := p.pathOff[ni]
	return ranking{paths: paths, syms: syms, vars: p.vars[base+lo : base+hi]}
}

// coreConstraints materializes the constraints at the given positions of the
// canonical emission order — an unsat core's members — through prefSeg and
// monoSeg, one single-slot segment each, so only the two or three rankings a
// dispute involves are ever rendered. It also reads off the §VI-B hint: a
// preference constraint implicates the node whose ranking it orders, a
// monotonicity constraint the link's tail, owner of the extended path —
// deduplicated and sorted, as Conversion.SuspectNodes reports them.
func (p *shardPrep) coreConstraints(coreIdx []int) (core []analysis.Constraint, suspects []Node) {
	core = make([]analysis.Constraint, len(coreIdx))
	suspects = make([]Node, len(coreIdx))
	totalPref := int(p.totalPref())
	for k, c := range coreIdx {
		if c < totalPref {
			// The node whose preference segment holds position c.
			ni, _ := slices.BinarySearch(p.prefOff, int32(c)+1)
			ni--
			i := int32(c) - p.prefOff[ni]
			prefSeg(core[k:k+1], p.rankSlice(int32(ni), i, i+2))
			suspects[k] = p.in.Nodes[ni]
			continue
		}
		m := p.matches[c-totalPref]
		fi, ti := p.linkEnds[2*m.li], p.linkEnds[2*m.li+1]
		monoSeg(core[k:k+1], p.in.Links[m.li], []linkMatch{{li: m.li}},
			p.rankSlice(fi, m.fq, m.fq+1), p.rankSlice(ti, m.tq, m.tq+1))
		suspects[k] = p.in.Links[m.li].From
	}
	slices.Sort(suspects)
	return core, slices.Compact(suspects)
}

// Analyze decides strict monotonicity for the instance on the native engine
// and maps an unsat core to its §VI-B suspect nodes: the Result and suspect
// set of analysis.CheckWith(in.ToAlgebra(), StrictMonotonicity, smt.Native{})
// + SuspectNodes, and ToAlgebra's error where the instance has no algebra.
// The whole decision runs on dense path ids: a satisfiable instance never
// materializes a provenance constraint or even a signature rendering, and an
// unsatisfiable one materializes exactly its core's members
// (coreConstraints) — the cost of "unsafe" is the cost of "safe" plus the
// minimization probes. It allocates only that answer — the model map when
// safe, the core and suspects when not; everything else the emitter fills is
// a prep borrowed from prepPool, which no returned slice aliases.
func Analyze(ctx context.Context, in *Instance) (analysis.Result, []Node, error) {
	ctx, prepSpan := obs.StartSpan(ctx, "shard-prep")
	p := prepPool.Get().(*shardPrep)
	defer p.release()
	err := buildShardPrep(p, in)
	if err == nil {
		err = p.resolveNames()
	}
	prepSpan.End()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	name := "spp-" + in.Name

	ctx, emitSpan := obs.StartSpan(ctx, "dense-emit")
	cons, appears := p.denseConstraints()
	emitSpan.AttrInt("constraints", int64(len(cons)))
	emitSpan.End()
	ctx, solveSpan := obs.StartSpan(ctx, "solve-dense")
	out, model, err := smt.SolveDense(ctx, p.nPaths, cons)
	solveSpan.AttrInt("components", int64(out.Stats.Components))
	solveSpan.AttrInt("levels", int64(out.Stats.Levels))
	solveSpan.End()
	if err != nil {
		return analysis.Result{}, nil, err
	}
	res := analysis.Result{
		Algebra:         name,
		Condition:       analysis.StrictMonotonicity,
		Sat:             out.Sat,
		NumPreference:   int(p.totalPref()),
		NumMonotonicity: len(p.matches),
		Stats:           out.Stats,
	}
	// String interning only counts appearing variables; the dense solve saw
	// every path id. Report the interned figures.
	nVars := 0
	for _, on := range appears {
		if on {
			nVars++
		}
	}
	res.Stats.Variables = nVars
	res.Stats.Edges = len(cons) + nVars
	_, matSpan := obs.StartSpan(ctx, "materialize")
	defer matSpan.End()
	if !out.Sat {
		obsPathResolve.Inc()
		var suspects []Node
		res.Core, suspects = p.coreConstraints(out.CoreIdx)
		res.CoreIdx = out.CoreIdx
		matSpan.AttrInt("core", int64(len(res.Core)))
		return res, suspects, nil
	}
	obsPathDense.Inc()
	res.Model = make(map[string]int, nVars)
	for id := 1; id <= p.nPaths; id++ {
		if appears[id] {
			res.Model[string(p.vars[id-1])] = model[id]
		}
	}
	matSpan.AttrInt("entries", int64(len(res.Model)))
	return res, nil, nil
}

// AnalyzeScale is Analyze with a bool that is err == nil. The third
// argument is ignored; it stays for the benchmark harness's replay.
func AnalyzeScale(ctx context.Context, in *Instance, _ int) (analysis.Result, []Node, bool, error) {
	res, suspects, err := Analyze(ctx, in)
	return res, suspects, err == nil, err
}
