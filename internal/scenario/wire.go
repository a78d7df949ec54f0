package scenario

import (
	"bytes"

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
// and hops path elements; all of them grow when the guess is short. The
// wire is garbage once build has returned: nothing of it is reachable from
// the instance.
func newWire(tokens, hops int) *wire {
	// An AS graph has about three directed links and one ranking of one or
	// two paths per node.
	return &wire{
		ids:      make(map[string]int32, tokens),
		tokens:   make([]spp.Node, 0, tokens),
		info:     make([]tokenInfo, 0, tokens),
		nodes:    make([]int32, 0, tokens),
		order:    make([]int32, 0, tokens),
		sessions: make([]wireSession, 0, 3*tokens/2),
		linked:   make(map[uint64]struct{}, 3*tokens),
		ranks:    make([]wireRank, 0, tokens),
		pathEnd:  make([]int32, 0, 3*tokens/2),
		hops:     make([]int32, 0, hops),
	}
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
	in := &spp.Instance{
		Name:      w.name,
		Cost:      map[spp.Link]int{},
		Permitted: make(map[spp.Node][]spp.Path, len(w.ranks)),
	}

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
		in.Links = make([]spp.Link, 0, 2*len(w.sessions))
	}
	for _, s := range w.sessions {
		declare(s.a)
		declare(s.b)
		ab := spp.Link{From: w.tokens[s.a], To: w.tokens[s.b]}
		ba := spp.Link{From: ab.To, To: ab.From}
		in.Links = append(in.Links, ab, ba)
		w.linked[linkKey(s.a, s.b)] = struct{}{}
		w.linked[linkKey(s.b, s.a)] = struct{}{}
		if s.cost != 0 {
			in.Cost[ab] = s.cost
			in.Cost[ba] = s.cost
		}
	}
	if len(w.order) > 0 {
		in.Nodes = make([]spp.Node, len(w.order))
		for i, id := range w.order {
			in.Nodes[i] = w.tokens[id]
		}
	}

	origins := w.origins
	derive := len(origins) == 0
	for _, id := range origins {
		w.info[id].origin = true
	}

	// Every path is cut out of one slab and every ranking out of one path
	// list, each capped at its length so an append copies out instead of
	// running into its neighbour.
	slab := make([]spp.Node, len(w.hops))
	for i, id := range w.hops {
		slab[i] = w.tokens[id]
	}
	paths := make([]spp.Path, len(w.pathEnd))
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
	if len(origins) > 0 {
		in.Origins = make([]spp.Node, len(origins))
		for i, id := range origins {
			in.Origins[i] = w.tokens[id]
		}
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
