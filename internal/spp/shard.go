// The §IV-B emitter for SPP instances: the one place the repo turns an
// instance into safety constraints without compiling an algebra.
//
// The non-φ entries of the converted instance's ⊕ table are exactly the
// permitted extensions the instance already states: for each directed link
// u→v, the permitted paths q of v whose extension u·q is permitted at u, in
// rank order. The constraint system is therefore one preference segment per
// node (Nodes order) followed by one monotonicity segment per link (Links
// order), and two renderers write it. denseConstraints writes every position
// as a pair of path ids, in O(paths + links·K²): the form every decision is
// made on. prefSeg and monoSeg, the only functions that construct an SPP
// analysis.Constraint, render one position with its provenance
// (constraintAt) — an unsat core's members, or every position for
// ShardedConstraints, element for element what analysis.Constraints
// generates from in.ToAlgebra(). The DeltaVerifier walks the same atoms in
// the graph its rankings and tails imply, and renders its core's members
// through the same two functions.
//
// The prep both renderers share is filled in two passes. The match pass
// (match) is everything denseConstraints reads: it indexes the node names
// (nodeIndex, a flat table of positions the prep keeps between analyses,
// the one node index the validator and the DeltaVerifier use too), gathers
// the rankings and their offsets, resolves every link's ends to positions
// and collects the permitted extensions. The proof pass (prove) is
// everything naming reads, and validation. A match is also the §IV-B
// definition of a signature through its tail, l_uv ⊕ r_vp = r_uvp, so the
// proof pass keeps it per path: tail[b] = a when path b is [u] + path a.
// Validation walks those tails (a path is proven when its tail is), and a
// path left unproven has its hops checked on positions against the links
// the match pass resolved. Naming walks the tails too: a proven path's
// solver variable is its owner's token in front of its tail's, copied
// rather than rendered again (name). Every pass over nodes, links or paths
// is cut into contiguous chunks once an input is large enough to pay for it
// (parShards), which the workers, the calling goroutine among them, claim
// from a shared counter.
//
// Analyze sits on top: permitted paths become dense int32 ids (global rank
// order) and the difference constraints go straight to smt.SolveDense, which
// makes the whole decision on those ids — no Origin strings, no
// per-constraint provenance, not even the signature renderings. Neither the
// dense emission nor the solve reads what the proof pass or naming write, so
// at scale those two run on a goroutine of their own beside them and are
// joined before the answer is read; a proof that fails discards the solve. A
// satisfiable instance gets its model back by id; an unsatisfiable one gets
// its deletion-minimal core back as constraint positions, and
// coreConstraints renders exactly those positions, so the minimized core and
// the §VI-B suspect set are the ones the algebra pipeline reports while
// "unsafe" costs what "safe" costs plus the minimization probes. ToAlgebra's
// own rejections (duplicate links and renderings, degenerate algebras) and
// its collision suffixes on solver-variable names are reproduced by name.
//
// An analysis allocates its answer, not its scratch. Analyze borrows its
// shardPrep from prepPool, and match, prove, name and denseConstraints
// refill that prep's arrays in place, node index included. What escapes is
// the model map, whose keys are substrings of the one string that holds
// every variable name, on a safe verdict, and the core and suspects on an
// unsafe one — never a slice of the prep. NewTable, NewDeltaVerifier (which
// borrows its indexes and decides its dense system first) and
// ShardedConstraints keep their prep, so they fill a fresh one through the
// same functions, the two passes in sequence (buildShardPrep).

package spp

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// shardPrep is the interned, densely indexed view of an instance both
// renderers share. Per-path state lives in flat arrays indexed by global path
// id ((node, rank) order) rather than per-node slices — at 10⁵ nodes the
// slice headers alone would dominate allocation — and a signature rendering
// is materialized only when constraintAt renders a position that names it.
// A prep filled again reuses its arrays; the fields after matches are scratch.
type shardPrep struct {
	in       *Instance
	perms    [][]Path // per node index: its permitted paths (shared, not copied)
	linkEnds []int32  // per link: from-index, to-index (2 entries each; −1 undeclared)
	pathOff  []int32  // global path-id base per node; id = pathOff[ni]+rank
	nPaths   int
	vars     []smt.Var // per path id: the solver variable, set by name
	prefOff  []int32   // per node: first preference-constraint index
	matches  []linkMatch

	ix        topoIndex     // nodes and origins; no links (linked checks hops)
	ranked    int           // declared nodes with a ranking, repeats counted again
	tail      []int32       // per path id: the id of its tail, −1 when no match
	state     []uint8       // per path id: pathProven, pathMulti, pathComposed
	order     []pathRef     // every path, shortest first
	lenCount  []int32       // order's counting sort, by path length
	shardBufs [][]linkMatch // per chunk of the match pass; never matches' array
	keys      []uint64      // the screens' hashes: labels, then names
	set       []uint64      // a screen's set, or the hops askHops asked for
	unproven  []pathRef     // the paths prove left to the validator
	loose     []int32       // links with an undeclared end (askHops)
	nameMax   []int32       // per path id: a bound on its variable's length
	scratch   []byte        // one name's rendering, before it joins the rest
	composed  int           // names the last name call copied from a tail
	dense     []smt.DenseConstraint
	appears   []bool // per dense id: occurs in some constraint
}

// pathRef addresses a permitted path by node index and rank.
type pathRef struct{ ni, r int32 }

// Per-path state bits. A proven path is structurally valid by extension;
// a multi-mode one has a hop of two or more bytes that is not an origin
// token, so its rendering joins elements with '.' (a '_' once sanitized);
// a composed one is proven, has four or more elements and a multi-mode
// tail, so its variable is its owner's token in front of its tail's.
const (
	pathProven uint8 = 1 << iota
	pathMulti
	pathComposed
)

// prepPool holds Analyze's preps between analyses; like smt's engine pool
// it is emptied by the garbage collector, not by a size rule.
var prepPool = sync.Pool{New: func() any { return new(shardPrep) }}

// release returns a pooled prep, first dropping what still points into the
// instance it served or the answer it gave — the instance, its rankings, the
// origin set's keys and the variable names — so the pool keeps neither a
// caller's discarded instance nor the last answer's names alive.
func (p *shardPrep) release() {
	p.in, p.ix.in = nil, nil
	clear(p.perms)
	clear(p.ix.origins)
	clear(p.vars)
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

// minShard is the fewest items a worker is given. Forking pays only once
// each goroutine has thousands of items to walk: an input under twice this
// size — every campaign scenario, a 400-node upload — runs on the calling
// goroutine. Chosen from serial-against-sharded timings of spp.Analyze at
// internet:400 to :50000.
const minShard = 4096

// parShards runs fn(c, lo, hi) over [0,n) cut into contiguous chunks and
// returns fn's results in chunk order. With fewer than 2·minShard items it
// is one chunk, [0,n), on the calling goroutine. Otherwise it cuts one
// chunk per worker, min(GOMAXPROCS, n/minShard) of them, and the workers —
// the caller one of them — claim the next unclaimed chunk from a shared
// counter until none is left. Claiming pays where a fixed assignment would
// wait: a worker the scheduler has not run yet, because the proof pass's
// goroutine holds a core, leaves its chunk to the caller. Finer chunks
// would even out a costly stretch of links, but on a 2-core machine they
// cost CPU and no wall time: two memory-bound workers side by side each run
// slower, so the more of a pass they share, the more CPU it takes
// (Session.AnalyzeSPP at internet:50000, safe and planted, 8 alternated
// runs: two or four chunks per worker took 9–10 % more CPU per analysis
// than one, 1 024-item chunks 11 %, at the same p50). It is the one place
// chunk boundaries are computed.
func parShards[T any](n int, fn func(c, lo, hi int) T) []T {
	workers := min(runtime.GOMAXPROCS(0), n/minShard)
	if workers <= 1 {
		return []T{fn(0, 0, n)}
	}
	out := make([]T, workers)
	size := (n + workers - 1) / workers
	var next atomic.Int32
	work := func() {
		for c := int(next.Add(1)) - 1; c < len(out); c = int(next.Add(1)) - 1 {
			lo := c * size
			out[c] = fn(c, lo, min(lo+size, n))
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
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

// multiMode reports whether hop n makes its path's rendering dot-joined:
// Path.String's rule, a token longer than one byte that is not an origin.
func multiMode(n Node) bool { return len(n) > 1 && !isOrigin(n) }

// appendVar appends analysis.VarName(sigName(q)) to b without allocating a
// string, fusing sigName's rendering (the bare origin token for two-element
// paths, otherwise "r_" + the dot- or butt-joined elements of Path.String)
// with sanitize's per-rune '_' substitution.
func appendVar(b []byte, q Path) []byte {
	if len(q) == 2 {
		at := len(b)
		if b = appendClean(b, string(q[1])); len(b) == at {
			b = append(b, "sig"...) // sanitize("") == "sig"
		}
		return b
	}
	multi := slices.ContainsFunc(q, multiMode)
	b = append(b, 'r', '_')
	for i, n := range q {
		if i > 0 && multi {
			b = append(b, '_') // the '.' join, post-sanitize
		}
		b = appendClean(b, string(n))
	}
	return b
}

// endCache resolves link endpoints to node indexes. Sessions append both
// directions back to back, so the previous link's endpoints predict this
// one's — string equality on the shared backing array short-circuits before
// hashing. Each chunk of the match pass keeps its own.
type endCache struct {
	n  [2]Node
	id [2]int32
	ok [2]bool
}

// resolve returns n's index in Nodes, or −1 when n is undeclared.
func (c *endCache) resolve(ix *topoIndex, n Node) int32 {
	for i := range c.n {
		if c.ok[i] && c.n[i] == n {
			return c.id[i]
		}
	}
	id := ix.node(n)
	c.n[0], c.id[0], c.ok[0] = c.n[1], c.id[1], c.ok[1]
	c.n[1], c.id[1], c.ok[1] = n, id, true
	return id
}

// buildShardPrep fills p from the instance: the match pass, then the proof
// pass. p is fresh for a caller that keeps the prep (NewTable,
// NewDeltaVerifier, ShardedConstraints) and pooled for Analyze, which keeps
// only its answer and runs the proof pass beside the solve. A non-nil error
// is a structural validation failure, the one Validate reports. No path is
// named yet: name does that.
func buildShardPrep(p *shardPrep, in *Instance) error {
	p.match(in)
	return p.prove()
}

// match is the prep's first pass, everything denseConstraints reads: it
// indexes the nodes, gathers the rankings and their offsets, resolves every
// link's endpoints and collects the permitted-extension matches in link
// order. It cannot fail; it takes an invalid instance as it comes, and prove
// rejects it.
func (p *shardPrep) match(in *Instance) {
	nn := len(in.Nodes)
	nl := len(in.Links)
	p.in = in
	p.perms = resize(p.perms, nn)
	p.linkEnds = resize(p.linkEnds, 2*nl)
	p.pathOff = resize(p.pathOff, nn+1)
	p.prefOff = resize(p.prefOff, nn+1)
	p.keys = resize(p.keys, nl)
	p.ix.in = in
	p.ix.nodes.build(in.Nodes)
	p.ranked = 0
	for _, c := range parShards(nn, func(_, lo, hi int) (ranked int) {
		for ni := lo; ni < hi; ni++ {
			paths, ok := in.Permitted[in.Nodes[ni]]
			if ok {
				ranked++
			}
			p.perms[ni] = paths
		}
		return ranked
	}) {
		p.ranked += c
	}
	for ni, paths := range p.perms {
		p.pathOff[ni+1] = p.pathOff[ni] + int32(len(paths))
		p.prefOff[ni+1] = p.prefOff[ni] + int32(max(len(paths)-1, 0))
	}
	p.nPaths = int(p.pathOff[nn])

	// Permitted-extension matches: one chunked pass that also resolves each
	// link's endpoints, per-chunk buffers concatenated in chunk order.
	// Chunks are contiguous link ranges, so concatenation preserves the
	// canonical link-order emission. A chunk buffer never shares an array
	// with the match list: a lone chunk trades places with it, several are
	// copied into it. Links with undeclared endpoints never produce matches;
	// paths crossing them fall to the validator (prove), where the "crosses
	// undeclared node" error stays reachable exactly where Validate reports
	// it.
	bufs := parShards(nl, func(c, lo, hi int) []linkMatch {
		var buf []linkMatch
		if c < len(p.shardBufs) {
			buf = p.shardBufs[c][:0]
		}
		// Resolving the chunk's links first keeps the node index and the
		// rankings out of each other's way in the cache. The label l_uv is
		// the concatenation, so it is hashed as one: a→bc and ab→c collide.
		var ends endCache
		var h maphash.Hash
		h.SetSeed(screenSeed)
		for li := lo; li < hi; li++ {
			l := &in.Links[li]
			p.linkEnds[2*li], p.linkEnds[2*li+1] = ends.resolve(&p.ix, l.From), ends.resolve(&p.ix, l.To)
			h.Reset()
			h.WriteString(string(l.From))
			h.WriteString(string(l.To))
			p.keys[li] = h.Sum64()
		}
		for li := lo; li < hi; li++ {
			fi, ti := p.linkEnds[2*li], p.linkEnds[2*li+1]
			if fi >= 0 && ti >= 0 {
				buf = appendMatches(buf, int32(li), in.Links[li].From, p.perms[fi], p.perms[ti])
			}
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
}

// prove is the prep's second pass, everything name reads and the
// validation: it records every matched path's tail, orders the paths
// shortest first and proves them along their tails. Validation rides on the
// tails instead of calling Instance.Validate, whose per-hop set lookups cost
// more than both passes; a non-nil error is the one Validate reports. It
// reads what match wrote and writes nothing denseConstraints reads, so
// Analyze runs it beside the solve.
func (p *shardPrep) prove() error {
	in := p.in
	nn := len(in.Nodes)
	if p.ix.origins == nil {
		p.ix.origins = make(map[Node]bool, len(in.Origins))
	}
	for _, o := range in.Origins {
		p.ix.origins[o] = true
	}
	p.tail = resize(p.tail, p.nPaths)
	for i := range p.tail {
		p.tail[i] = -1
	}
	for _, m := range p.matches {
		p.tail[p.pathOff[p.linkEnds[2*m.li]]+m.fq] = p.pathOff[p.linkEnds[2*m.li+1]] + m.tq
	}

	// Shortest first, by a counting sort on length: a tail is one element
	// shorter than its path, so a pass in this order finds every tail done.
	p.lenCount = p.lenCount[:0]
	for _, paths := range p.perms {
		for _, q := range paths {
			for len(q) >= len(p.lenCount) {
				p.lenCount = append(p.lenCount, 0)
			}
			p.lenCount[len(q)]++
		}
	}
	at := int32(0)
	for l, c := range p.lenCount {
		p.lenCount[l] = at
		at += c
	}
	p.order = resize(p.order, p.nPaths)
	for ni, paths := range p.perms {
		for r, q := range paths {
			p.order[p.lenCount[len(q)]] = pathRef{int32(ni), int32(r)}
			p.lenCount[len(q)]++
		}
	}

	// Validation along tails. A two-element path is proven iff it is
	// [owner, origin]. A longer path is proven when its tail is: its first
	// hop IS the matched link (both endpoints declared), its owner is the
	// link's From by extensionRank's prefix check, and its remaining hops
	// and origin token are the tail's. Instances built by rank-and-extend
	// (all generators, and anything GenerateInternet produces) have no other
	// paths. Whatever is left unproven gets the per-path validator with
	// Validate's exact per-path error messages.
	//
	// What name needs rides along: the mode bit (a proven path is
	// multi-mode when its owner or its tail is), the composed bit, and
	// nameMax, 3 + Σ(len(hop)+1) over the path's hops — never less than its
	// variable's length, and its tail's plus the owner's for a matched path.
	p.state = resize(p.state, p.nPaths)
	p.nameMax = resize(p.nameMax, p.nPaths)
	state := p.state
	parShards(nn, func(_, lo, hi int) struct{} {
		for ni := lo; ni < hi; ni++ {
			n := in.Nodes[ni]
			base := p.pathOff[ni]
			for r, q := range p.perms[ni] {
				id := base + int32(r)
				if p.tail[id] < 0 {
					m := 3
					for _, hop := range q {
						m += len(hop) + 1
					}
					p.nameMax[id] = int32(m)
				}
				if len(q) == 2 && q[0] == n && p.ix.origins[q[1]] {
					state[id] = pathProven
					if multiMode(q[0]) || multiMode(q[1]) {
						state[id] |= pathMulti
					}
				}
			}
		}
		return struct{}{}
	})
	for _, u := range p.order {
		id := p.pathOff[u.ni] + u.r
		a := p.tail[id]
		if a < 0 {
			continue
		}
		owner := in.Nodes[u.ni] // the matched link's From, the path's first hop
		p.nameMax[id] = p.nameMax[a] + int32(len(owner)) + 1
		if state[a]&pathProven == 0 {
			continue
		}
		st := pathProven | state[a]&pathMulti
		if multiMode(owner) {
			st |= pathMulti
		}
		if state[a]&pathMulti != 0 && len(p.perms[u.ni][u.r]) >= 4 {
			st |= pathComposed
		}
		state[id] = st
	}
	p.unproven = p.unproven[:0]
	for ni := 0; ni < nn; ni++ {
		base := p.pathOff[ni]
		for r := range p.perms[ni] {
			if state[base+int32(r)]&pathProven == 0 {
				p.unproven = append(p.unproven, pathRef{int32(ni), int32(r)})
			}
		}
	}
	if len(p.unproven) > 0 {
		p.askHops()
		for _, u := range p.unproven {
			if err := p.ix.validatePath(in.Name, in.Nodes[u.ni], p.perms[u.ni][u.r], false, p.linked); err != nil {
				return err
			}
		}
	}
	// Every ranking belongs to a declared node unless the rankings of the
	// distinct declared nodes are fewer than the rankings.
	if p.ranked != len(in.Permitted) || p.ix.nodes.n != nn {
		if err := p.ix.undeclaredRanking(in); err != nil {
			return err
		}
	}
	return nil
}

// hopSeen marks a hop of the set askHops fills as a declared link. A hop's
// key (hopKey) never sets the bit.
const hopSeen = 1 << 63

// hopKey packs a hop between the declared nodes at positions a and b; it is
// never 0, an empty slot.
func hopKey(a, b int32) uint64 { return uint64(a+1)<<32 | uint64(b+1) }

// askHops fills the set linked answers from, sized by the unproven paths'
// hops, not by the topology: every hop between two declared nodes that those
// paths walk, marked hopSeen by one pass over the link ends match resolved.
// The links with an undeclared end, which no hop key can name, are kept
// apart in p.loose.
func (p *shardPrep) askHops() {
	hops := 0
	for _, u := range p.unproven {
		hops += max(len(p.perms[u.ni][u.r])-2, 0)
	}
	p.set = resize(p.set, 1<<bits.Len(uint(2*hops)))
	for _, u := range p.unproven {
		q := p.perms[u.ni][u.r]
		for i := 0; i+2 < len(q); i++ {
			if a, b := p.ix.node(q[i]), p.ix.node(q[i+1]); a >= 0 && b >= 0 {
				k := hopKey(a, b)
				p.set[p.hopSlot(k)] = k
			}
		}
	}
	p.loose = p.loose[:0]
	for li := range len(p.linkEnds) / 2 {
		a, b := p.linkEnds[2*li], p.linkEnds[2*li+1]
		if a < 0 || b < 0 {
			p.loose = append(p.loose, int32(li))
		} else if s := p.hopSlot(hopKey(a, b)); p.set[s] != 0 {
			p.set[s] |= hopSeen
		}
	}
}

// hopSlot returns the slot of p.set holding hop key k, or the empty one it
// would take.
func (p *shardPrep) hopSlot(k uint64) int {
	mask := uint64(len(p.set) - 1)
	for i := k * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if s := p.set[i]; s == 0 || s&^hopSeen == k {
			return int(i)
		}
	}
}

// linked reports whether the link a→b is declared, for validatePath on the
// paths askHops asked for: on ids when both ends are declared, otherwise by
// name against the few links with an undeclared end.
func (p *shardPrep) linked(a, b Node) bool {
	if ai, bi := p.ix.node(a), p.ix.node(b); ai >= 0 && bi >= 0 {
		return p.set[p.hopSlot(hopKey(ai, bi))]&hopSeen != 0
	}
	for _, li := range p.loose {
		if p.in.Links[li] == (Link{a, b}) {
			return true
		}
	}
	return false
}

// name gives every permitted path its solver variable,
// analysis.VarName(sigName(q)), in one string: the variables are its
// substrings, one allocation however many paths there are. Paths are taken
// shortest first. A composed path (proven, four or more elements, a
// multi-mode tail) is "r_" + its owner, sanitized, + "_" + a copy of its
// tail's name after the tail's "r_"; every other path goes through
// appendVar. The builder is grown once, to the sum of prove's nameMax
// bounds, so a name read back for a copy is already final.
//
// With asAlgebra it then does what ToAlgebra and analysis.newSigVars do to
// a structurally valid instance beyond that: the rejections, in ToAlgebra's
// order and wording (two links sharing a label, two paths sharing a
// rendering, an algebra with no labels or no signatures), and the
// first-come _2, _3, … suffixes over global path order that keep solver
// variables distinct when different renderings sanitize to one name. Hashes
// screen for duplicates without a string map — the labels' were taken by
// the match pass, the names' are taken here — and only an instance with a
// hash collision pays for the exact pass. The DeltaVerifier, which
// tolerates collisions and counts them itself, takes the natural names
// alone.
func (p *shardPrep) name(asAlgebra bool) error {
	in := p.in
	if asAlgebra && p.dups() > 0 {
		seen := make(map[string]bool, len(in.Links))
		for _, l := range in.Links {
			lab := string(l.From) + string(l.To)
			if seen[lab] {
				return fmt.Errorf("spp %s: duplicate link %s", in.Name, l)
			}
			seen[lab] = true
		}
	}

	total := 0
	for _, m := range p.nameMax {
		total += int(m)
	}
	var all strings.Builder
	all.Grow(total)
	p.vars = resize(p.vars, p.nPaths)
	p.composed = 0
	for _, u := range p.order {
		id := p.pathOff[u.ni] + u.r
		at := all.Len()
		if p.state[id]&pathComposed != 0 {
			p.scratch = append(appendClean(append(p.scratch[:0], "r_"...), string(in.Nodes[u.ni])), '_')
			all.Write(p.scratch)
			all.WriteString(string(p.vars[p.tail[id]][2:]))
			p.composed++
		} else {
			p.scratch = appendVar(p.scratch[:0], p.perms[u.ni][u.r])
			all.Write(p.scratch)
		}
		p.vars[id] = smt.Var(all.String()[at:])
	}
	if !asAlgebra {
		return nil
	}

	p.keys = resize(p.keys, p.nPaths)
	parShards(p.nPaths, func(_, lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			p.keys[i] = maphash.String(screenSeed, string(p.vars[i]))
		}
		return struct{}{}
	})
	if p.dups() > 0 {
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

// screenSeed seeds both duplicate screens and every node index, so equal
// inputs hash equal in every chunk.
var screenSeed = maphash.MakeSeed()

// dups counts the keys of p.keys that repeat an earlier one (bit 0 aside),
// collecting them in an open-addressed set at most half full (0 marks an
// empty slot) — under half the cost of sorting them. Equal inputs must hash
// equal, so 0 means no duplicates. The set is the prep's, reused by the
// next screen.
func (p *shardPrep) dups() (n int) {
	p.set = resize(p.set, 1<<bits.Len(uint(2*len(p.keys))))
	set := p.set
	mask := uint64(len(set) - 1)
	for _, k := range p.keys {
		k |= 1
		i := k >> 1 & mask
		for ; set[i] != 0 && set[i] != k; i = (i + 1) & mask {
		}
		if set[i] == k {
			n++
		}
		set[i] = k
	}
	return n
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

// ranking is a run of one node's ranked permitted paths as the constraints
// name them: the paths, whose signatures prefSeg and monoSeg render, and
// their solver variables, by rank.
type ranking struct {
	paths []Path
	vars  []smt.Var
}

// prefSeg is a node's preference constraint on two adjacent ranks, r's two
// paths: one strict pairwise preference of Builder.Chain's expansion.
func prefSeg(r ranking) analysis.Constraint {
	pair := algebra.PrefPair{
		A:      algebra.Symbol(sigName(r.paths[0])),
		B:      algebra.Symbol(sigName(r.paths[1])),
		Strict: true,
	}
	return analysis.Constraint{
		Assertion: smt.Assertion{
			Rel:    smt.Lt,
			A:      smt.Term{Var: r.vars[0]},
			B:      smt.Term{Var: r.vars[1]},
			Origin: "pref: " + pair.String(),
		},
		Kind: analysis.KindPreference,
		Pref: pair,
	}
}

// monoSeg is link l's monotonicity constraint on one permitted extension,
// from's path = l.From · to's path: the ⊕ entry l_uv ⊕ r_q = r_uq, one entry
// of algebra.ConcatTable.
func monoSeg(l Link, from, to ranking) analysis.Constraint {
	entry := algebra.ConcatEntry{
		Label: algebra.LSym("l_" + string(l.From) + string(l.To)),
		In:    algebra.Symbol(sigName(to.paths[0])),
		Out:   algebra.Symbol(sigName(from.paths[0])),
	}
	return analysis.Constraint{
		Assertion: smt.Assertion{
			Rel:    smt.Lt,
			A:      smt.Term{Var: to.vars[0]},
			B:      smt.Term{Var: from.vars[0]},
			Origin: "mono: " + entry.String(),
		},
		Kind:  analysis.KindMonotonicity,
		Entry: entry,
	}
}

// ShardedConstraints generates the instance's strict-monotonicity
// constraint system: element-for-element identical (assertion, origin,
// kind, provenance) to analysis.Constraints over in.ToAlgebra(), without
// materializing the algebra, and failing with ToAlgebra's error where that
// fails. Every position is rendered the way an unsat core's member is
// (constraintAt). The bool is err == nil. The second argument is ignored;
// it stays for the benchmark harness's replay.
func ShardedConstraints(in *Instance, _ int) ([]analysis.Constraint, bool, error) {
	p := new(shardPrep)
	err := buildShardPrep(p, in)
	if err == nil {
		err = p.name(true)
	}
	if err != nil {
		return nil, false, err
	}
	cons := make([]analysis.Constraint, p.total())
	for c := range cons {
		cons[c], _ = p.constraintAt(c)
	}
	return cons, true, nil
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

// rankSlice is ranks [lo,hi) of node ni — what a constraint at one
// position needs of a ranking.
func (p *shardPrep) rankSlice(ni, lo, hi int32) ranking {
	base := p.pathOff[ni]
	return ranking{paths: p.perms[ni][lo:hi], vars: p.vars[base+lo : base+hi]}
}

// constraintAt renders the constraint at position c of the canonical
// emission order through prefSeg or monoSeg on just the paths it names, and
// returns the §VI-B suspect it implicates: the node whose ranking a
// preference orders, or the tail of a monotonicity entry's link, owner of
// the extended path.
func (p *shardPrep) constraintAt(c int) (analysis.Constraint, Node) {
	if totalPref := int(p.totalPref()); c >= totalPref {
		m := p.matches[c-totalPref]
		fi, ti := p.linkEnds[2*m.li], p.linkEnds[2*m.li+1]
		l := p.in.Links[m.li]
		return monoSeg(l, p.rankSlice(fi, m.fq, m.fq+1), p.rankSlice(ti, m.tq, m.tq+1)), l.From
	}
	// The node whose preference segment holds position c.
	ni, _ := slices.BinarySearch(p.prefOff, int32(c)+1)
	ni--
	i := int32(c) - p.prefOff[ni]
	return prefSeg(p.rankSlice(int32(ni), i, i+2)), p.in.Nodes[ni]
}

// coreConstraints materializes the constraints at the given positions — an
// unsat core's members — through constraintAt, so only the two or three
// rankings a dispute involves are ever rendered, and reads off their §VI-B
// suspects, deduplicated and sorted, as Conversion.SuspectNodes reports
// them.
func (p *shardPrep) coreConstraints(coreIdx []int) (core []analysis.Constraint, suspects []Node) {
	core = make([]analysis.Constraint, len(coreIdx))
	suspects = make([]Node, len(coreIdx))
	for k, c := range coreIdx {
		core[k], suspects[k] = p.constraintAt(c)
	}
	// The core's variables move into one string of their own: a few
	// constraints must not keep every name of the instance alive.
	n := 0
	for _, c := range core {
		n += len(c.Assertion.A.Var) + len(c.Assertion.B.Var)
	}
	var own strings.Builder
	own.Grow(n)
	for k := range core {
		for _, v := range []*smt.Var{&core[k].Assertion.A.Var, &core[k].Assertion.B.Var} {
			at := own.Len()
			own.WriteString(string(*v))
			*v = smt.Var(own.String()[at:])
		}
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
// minimization probes. It allocates only that answer — the model map and
// the one string of names when safe, the core and suspects when not;
// everything else the emitter fills is a prep borrowed from prepPool, which
// no returned slice aliases.
//
// The prep's proof pass and naming write nothing dense emission and the
// solve read, and read only what its match pass wrote, so once that pass is
// done an instance of minShard paths or more is proven and named on a
// goroutine of its own while dense emission and the solve run; a smaller one
// is proven and named first, inline. Errors keep their precedence either
// way: the prep's (Validate's), then naming's rejections, then the solve's —
// a solve beside a failed proof or naming is discarded.
func Analyze(ctx context.Context, in *Instance) (analysis.Result, []Node, error) {
	p := prepPool.Get().(*shardPrep)
	defer p.release()
	ctx, prepSpan := obs.StartSpan(ctx, "shard-prep")
	p.match(in)
	prepSpan.End()
	frontCtx := ctx // ctx moves on to the solve's spans meanwhile
	front := func() error {
		_, proveSpan := obs.StartSpan(frontCtx, "prove")
		err := p.prove()
		proveSpan.AttrInt("unproven", int64(len(p.unproven)))
		proveSpan.End()
		if err != nil {
			return err
		}
		_, nameSpan := obs.StartSpan(frontCtx, "name")
		defer nameSpan.End()
		err = p.name(true)
		nameSpan.AttrInt("paths", int64(p.nPaths))
		nameSpan.AttrInt("composed", int64(p.composed))
		return err
	}
	var fronted chan error
	if p.nPaths < minShard {
		if err := front(); err != nil {
			return analysis.Result{}, nil, err
		}
	} else {
		fronted = make(chan error, 1)
		go func() { fronted <- front() }()
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
	if fronted != nil {
		if frontErr := <-fronted; frontErr != nil {
			return analysis.Result{}, nil, frontErr
		}
	}
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
