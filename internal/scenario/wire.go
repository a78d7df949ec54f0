package scenario

import (
	"bytes"
	"slices"
	"sync/atomic"

	"fsr/internal/spp"
)

// wire is an instance's wire fields in id space: every node and origin
// token is interned once (one allocated string per distinct token, a dense
// int32 id beside it) and the fields hold ids, in the order the wire form
// listed them. Both front ends — the byte reader (read.go) and
// DecodeInstance over an InstanceJSON — fill one of these, and build is the
// only code that turns wire fields into an *spp.Instance.
type wire struct {
	name    string
	ids     map[string]int32
	tokens  []spp.Node  // id → token
	info    []tokenInfo // id → what the token is declared as
	nodes   []int32
	origins []int32
	// sessions are undirected, in wire order.
	sessions []wireSession
	// ranks are the rank object's entries in wire order; an entry's paths
	// are pathEnd[lo:hi], each the end offset of one path in hops.
	ranks   []wireRank
	pathEnd []int32
	hops    []int32
	// order and linked are build's: the declared nodes by id, and the
	// directed links as id pairs.
	order  []int32
	linked map[uint64]struct{}
	// The built instance's storage: build cuts Nodes, Origins, Links and
	// every path out of these arrays and fills these two maps, so a wire
	// that is reused (ReadRequest, Release) builds the next upload's
	// instance without allocating them again.
	nodeNames, originNames, slab []spp.Node
	paths                        []spp.Path
	links                        []spp.Link
	cost                         map[spp.Link]int
	permitted                    map[spp.Node][]spp.Path
}

type wireSession struct {
	a, b int32
	cost int
}

type wireRank struct {
	owner  int32
	lo, hi int32 // path indices
}

// tokenInfo is what one token has been declared as so far: its position in
// Nodes, its entry in ranks (both -1 when it has none), and whether it is
// an origin token.
type tokenInfo struct {
	node, rank int32
	origin     bool
}

// newWire sizes the tables for a wire form of about tokens distinct tokens
// and hops path elements; all of them grow when the guess is short. build
// makes the instance out of the wire's own arrays and maps. DecodeInstance
// (and the tests' ReadInstance) build in a fresh wire and hand its instance
// to a caller who may keep it, the rest of that wire being garbage;
// ReadRequest builds in the parked store (takeWire), which is reused, not
// garbage: Release clears it and parks it again.
func newWire(tokens, hops int) *wire { return new(wire).reserve(tokens, hops) }

// reserve grows every table of an empty wire that is shorter than newWire's
// size for tokens and hops to that size, in one allocation each, and leaves
// the longer ones be: a reused store sized for a smaller upload is brought
// up to a larger one's guess at once instead of by repeated appends.
func (w *wire) reserve(tokens, hops int) *wire {
	// An AS graph has about three directed links and one ranking of one or
	// two paths per node. A map is remade with the slice it grows beside.
	if w.ids == nil || cap(w.tokens) < tokens {
		w.ids = make(map[string]int32, tokens)
	}
	if w.linked == nil || cap(w.sessions) < 3*tokens/2 {
		w.linked = make(map[uint64]struct{}, 3*tokens)
	}
	w.tokens = slices.Grow(w.tokens, tokens)
	w.info = slices.Grow(w.info, tokens)
	w.nodes = slices.Grow(w.nodes, tokens)
	w.order = slices.Grow(w.order, tokens)
	w.sessions = slices.Grow(w.sessions, 3*tokens/2)
	w.ranks = slices.Grow(w.ranks, tokens)
	w.pathEnd = slices.Grow(w.pathEnd, 3*tokens/2)
	w.hops = slices.Grow(w.hops, hops)
	return w
}

// bodyHints are newWire's sizes for an internet-shaped body of n bytes: a
// distinct token costs it about a hundred bytes (declared, linked, ranked),
// a path element about twelve once the sessions are counted in. A denser
// body grows the tables.
func bodyHints(n int) (tokens, hops int) { return n/96 + 8, n / 8 }

// spare is the one store parked for the next upload. ReadRequest takes it
// and Release puts it back, so a daemon answering one-shot uploads reuses
// one set of tables instead of leaving one per request to the collector.
// It is held strongly, not in a sync.Pool: a pool keeps one store per P
// plus a victim copy and loses them to every collection, which here runs
// about once per upload. Release bounds what stays parked.
var spare atomic.Pointer[wire]

// takeWire returns the parked store reserved for an n-byte body, or a fresh
// wire sized for one when none is parked (a daemon's first upload, or one
// that races another for the slot).
func takeWire(n int) *wire {
	w := spare.Swap(nil)
	if w == nil {
		w = new(wire)
	}
	return w.reserve(bodyHints(n))
}

// release parks w for the next upload, cleared first so that no string of
// the request it served stays reachable from it. A store holding more than
// twice what that request used is dropped instead, so one large upload does
// not stay pinned behind a stream of small ones.
func (w *wire) release() {
	if held, used := w.footprint(); held > 2*used {
		return
	}
	clear(w.ids)
	clear(w.linked)
	clear(w.cost)
	clear(w.permitted)
	clear(w.tokens)
	clear(w.slab)
	clear(w.paths)
	clear(w.links)
	clear(w.nodeNames)
	clear(w.originNames)
	*w = wire{
		ids: w.ids, linked: w.linked, cost: w.cost, permitted: w.permitted,
		tokens: w.tokens[:0], info: w.info[:0], nodes: w.nodes[:0], origins: w.origins[:0],
		sessions: w.sessions[:0], ranks: w.ranks[:0], pathEnd: w.pathEnd[:0], hops: w.hops[:0],
		order: w.order[:0], slab: w.slab[:0], paths: w.paths[:0], links: w.links[:0],
		nodeNames: w.nodeNames[:0], originNames: w.originNames[:0],
	}
	spare.Store(w)
}

// footprint is w's storage in bytes, every table counted at its capacity
// (held) and at what the last request filled of it (used). A map is counted
// with the slice it grows beside and never outgrows: ids with tokens,
// linked with sessions, Cost with links, Permitted with ranks.
func (w *wire) footprint() (held, used int) {
	add := func(n, c, size int) {
		used += n * size
		held += c * size
	}
	add(len(w.tokens), cap(w.tokens), 16+24) // + ids
	add(len(w.info), cap(w.info), 12)
	add(len(w.nodes), cap(w.nodes), 4)
	add(len(w.origins), cap(w.origins), 4)
	add(len(w.order), cap(w.order), 4)
	add(len(w.sessions), cap(w.sessions), 16+2*8) // + linked
	add(len(w.ranks), cap(w.ranks), 12+40)        // + Permitted
	add(len(w.pathEnd), cap(w.pathEnd), 4)
	add(len(w.hops), cap(w.hops), 4)
	add(len(w.slab), cap(w.slab), 16)
	add(len(w.paths), cap(w.paths), 24)
	add(len(w.links), cap(w.links), 32+40) // + Cost
	add(len(w.nodeNames), cap(w.nodeNames), 16)
	add(len(w.originNames), cap(w.originNames), 16)
	return held, used
}

// SpareStorage reports the storage, in bytes, of the store parked for the
// next upload, counted as Release counts it; 0 when none is parked. It
// reads the store unsynchronised: call it between uploads, not during one.
func SpareStorage() int {
	if w := spare.Load(); w != nil {
		held, _ := w.footprint()
		return held
	}
	return 0
}

// fit returns s at length n, on its own array when that is long enough and
// on a new one otherwise; the caller sets every element.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// token interns one node or origin token. The lookup does not allocate;
// a token seen for the first time is copied out of b, so nothing built from
// the wire keeps b alive.
func (w *wire) token(b []byte) int32 {
	if id, ok := w.ids[string(b)]; ok {
		return id
	}
	id := int32(len(w.tokens))
	name := string(b)
	w.ids[name] = id
	w.tokens = append(w.tokens, spp.Node(name))
	w.info = append(w.info, tokenInfo{node: -1, rank: -1})
	return id
}

// startRank opens owner's ranking; the paths added until the next call are
// its. It reports false when owner already has one.
func (w *wire) startRank(owner int32) bool {
	if w.info[owner].rank >= 0 {
		return false
	}
	w.info[owner].rank = int32(len(w.ranks))
	at := int32(len(w.pathEnd))
	w.ranks = append(w.ranks, wireRank{owner: owner, lo: at, hi: at})
	return true
}

// path appends one rendered path ("a,b,c": every comma separates, so ""
// is the one-element path of the empty token) to the ranking last opened.
func (w *wire) path(b []byte) {
	for {
		i := bytes.IndexByte(b, ',')
		if i < 0 {
			break
		}
		w.hops = append(w.hops, w.token(b[:i]))
		b = b[i+1:]
	}
	w.hops = append(w.hops, w.token(b))
	w.pathEnd = append(w.pathEnd, int32(len(w.hops)))
	w.ranks[len(w.ranks)-1].hi++
}

// ReadStats describes one decoded wire form.
type ReadStats struct {
	// Nodes and Paths count the declared nodes and the ranked paths.
	Nodes, Paths int
	// FallbackValidate reports that the id-space check could not accept the
	// instance and Instance.Validate decided (and worded) the outcome.
	FallbackValidate bool
}

// build applies the wire form's rules — node order is nodes, then session
// ends first-seen, duplicates dropped; every session contributes both
// directed links and, when it has a cost, both Cost entries; recorded
// origins win, else origins are derived from the rankings in node and path
// order; every declared node's non-empty ranking is kept, and a ranking
// keyed by anything else is an error — and validates the result.
//
// Validation rides on the ids as a fast accept only: a path is accepted
// when it is long enough, owned by its node, ends in an origin token, and
// walks declared links among declared nodes. Anything else sends the built
// instance through Instance.Validate, the one place an error is worded, so
// errors and their order are Validate's by construction.
func (w *wire) build() (*spp.Instance, ReadStats, error) {
	if w.cost == nil { // a fresh wire; a reused one has them, cleared
		w.cost = map[spp.Link]int{}
		w.permitted = make(map[spp.Node][]spp.Path, len(w.ranks))
	}
	in := &spp.Instance{Name: w.name, Cost: w.cost, Permitted: w.permitted}

	declare := func(id int32) {
		if w.info[id].node < 0 {
			w.info[id].node = int32(len(w.order))
			w.order = append(w.order, id)
		}
	}
	for _, id := range w.nodes {
		declare(id)
	}
	if len(w.sessions) > 0 {
		w.links = fit(w.links, 2*len(w.sessions))
		in.Links = w.links
	}
	for i, s := range w.sessions {
		declare(s.a)
		declare(s.b)
		ab := spp.Link{From: w.tokens[s.a], To: w.tokens[s.b]}
		ba := spp.Link{From: ab.To, To: ab.From}
		in.Links[2*i], in.Links[2*i+1] = ab, ba
		w.linked[linkKey(s.a, s.b)] = struct{}{}
		w.linked[linkKey(s.b, s.a)] = struct{}{}
		if s.cost != 0 {
			in.Cost[ab] = s.cost
			in.Cost[ba] = s.cost
		}
	}
	if len(w.order) > 0 {
		w.nodeNames = fit(w.nodeNames, len(w.order))
		for i, id := range w.order {
			w.nodeNames[i] = w.tokens[id]
		}
		in.Nodes = w.nodeNames
	}

	origins := w.origins
	derive := len(origins) == 0
	for _, id := range origins {
		w.info[id].origin = true
	}

	// Every path is cut out of one slab and every ranking out of one path
	// list, each capped at its length so an append copies out instead of
	// running into its neighbour.
	w.slab = fit(w.slab, len(w.hops))
	for i, id := range w.hops {
		w.slab[i] = w.tokens[id]
	}
	w.paths = fit(w.paths, len(w.pathEnd))
	paths, slab := w.paths, w.slab
	lo := int32(0)
	for i, hi := range w.pathEnd {
		paths[i] = slab[lo:hi:hi]
		lo = hi
	}

	accepted, ranked := true, 0
	for _, owner := range w.order {
		ri := w.info[owner].rank
		if ri < 0 {
			continue
		}
		ranked++
		r := w.ranks[ri]
		if r.lo == r.hi {
			continue
		}
		for pi := r.lo; pi < r.hi; pi++ {
			start := int32(0)
			if pi > 0 {
				start = w.pathEnd[pi-1]
			}
			p := w.hops[start:w.pathEnd[pi]]
			if derive && len(p) >= 2 {
				if last := p[len(p)-1]; !w.info[last].origin {
					w.info[last].origin = true
					origins = append(origins, last)
				}
			}
			accepted = accepted && w.acceptPath(owner, p)
		}
		in.Permitted[w.tokens[owner]] = paths[r.lo:r.hi:r.hi]
	}
	if ranked < len(w.ranks) { // rankings keyed by undeclared nodes: Validate's to report
		accepted = false
		for _, r := range w.ranks {
			if w.info[r.owner].node < 0 {
				in.Permitted[w.tokens[r.owner]] = paths[r.lo:r.hi:r.hi]
			}
		}
	}
	w.origins = origins // derived ones included, so a reused wire keeps their array
	if len(origins) > 0 {
		w.originNames = fit(w.originNames, len(origins))
		for i, id := range origins {
			w.originNames[i] = w.tokens[id]
		}
		in.Origins = w.originNames
	}

	st := ReadStats{Nodes: len(in.Nodes), Paths: len(paths), FallbackValidate: !accepted}
	if !accepted {
		if err := in.Validate(); err != nil {
			return nil, st, err
		}
	}
	return in, st, nil
}

func linkKey(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// acceptPath is Validate's per-path check on ids. It only ever accepts: a
// false sends the whole instance to Validate.
func (w *wire) acceptPath(owner int32, p []int32) bool {
	if len(p) < 2 || p[0] != owner || !w.info[p[len(p)-1]].origin {
		return false
	}
	for i := 0; i+2 < len(p); i++ { // hops among real nodes
		if _, ok := w.linked[linkKey(p[i], p[i+1])]; !ok {
			return false
		}
	}
	for _, id := range p[1 : len(p)-1] {
		if w.info[id].node < 0 {
			return false
		}
	}
	return true
}
