// Package pathvector implements the Generalized Path Vector protocol of
// §V-A natively in Go: a path-vector mechanism parameterized by a routing
// algebra. It is the compiled counterpart of the NDlog GPV program — the
// engine package executes the same four rules interpretively; this package
// executes them directly, and the equivalence of the two is tested.
//
// A Node runs any algebra.Algebra. SPP nodes (BuildSPP) run the instance's
// execution table, spp.NewTable: no string-keyed Tabular or SigCodec sits on
// their loop.
//
// Per-message semantics follow the GPV rules:
//
//	gpvRecv:   on an advertisement from V, apply the import filter
//	           ⊕I over label(U→V); if imported, generate the new signature
//	           with ⊕P and the new path (loop-checked).
//	gpvStore:  keep the candidate route, keyed by (destination, neighbor) —
//	           a neighbor's new advertisement replaces its old one, BGP's
//	           implicit withdraw.
//	gpvSelect: recompute the most preferred candidate with ⪯.
//	gpvSend:   when the selection changes, schedule a (batched)
//	           re-advertisement to every neighbor whose export filter ⊕E
//	           over label(U→N) admits the route; neighbors that previously
//	           received a now-filtered or withdrawn route get a withdraw.
//
// A route is an immutable record shared by reference: its head hop, its
// signature, and a pointer to the route it extends. In simulation a flush
// sends the selected record itself, and a receiver that imports it stores a
// one-hop record pointing at the sender's — so the path is never copied and
// the signature is never rendered or decoded. Over TCP a record travels as
// its wire form, Advert, which the receiver decodes back into a record
// (Config.SigFromKey) before the same import and store code.
//
// State lives on the node's neighbour slots. A slot is the neighbour's
// position in env.Neighbors() — the address simnet's Send and Receive use —
// plus one slot after them for the node's own originations, so a received
// advert names its slot and a flush sends to one, with no lookup. A
// destination is one record: per slot the candidate learned from it and what
// it was last sent, then the selection and a dirty flag; the last record
// looked up is kept at hand, so an advert for the destination a node heard
// about last (an SPP run's only one) reaches its record without hashing the
// name. In steady state an imported advert allocates its one-hop record and
// a flush nothing: duplicates are suppressed by comparing routes (pointer
// first, then signature and hops), labels are looked up once per slot, a
// destination boxes its withdraw once, and the dirty list and the timer
// callback are reused.
//
// gpvSelect folds the candidates in ascending NodeID order, not slot order.
// The order is observable — on a partially ordered algebra, ⪯ with the
// tie-break is not a strict weak order, so which of several incomparable
// candidates survives depends on who is compared first — and seeded runs pin it.
//
// Label orientation: the *receiver* U of an advertisement from V evaluates
// ⊕I and ⊕P over the label of its own link U→V; the *exporter* U sending to
// N evaluates ⊕E over the label of U→N. This is the self-consistent reading
// of the paper's §III-A operators (see DESIGN.md).
package pathvector

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
)

// Advert is a route advertisement's wire form, what deployment mode
// gob-encodes: dest D reachable via Path with signature SigKey. Origination
// announcements carry Origination=true and no signature — the receiver
// derives the one-hop signature from the algebra's origination set (§V-B
// step 4). Simulation never builds one; it sends the route record itself.
type Advert struct {
	Dest        simnet.NodeID
	Path        []simnet.NodeID
	SigKey      string // rendered signature
	Origination bool
}

// Withdraw revokes the sender's advertisement for Dest.
type Withdraw struct {
	Dest simnet.NodeID
}

// WireSize of a withdraw: header only.
func (w Withdraw) WireSize() int { return 24 }

func init() {
	simnet.RegisterPayload(Advert{})
	simnet.RegisterPayload(Withdraw{})
}

// Route is the public view of a route: its destination, its whole path and
// its signature. Best and OnAdvert build one; Config.Originations are given
// as such.
type Route struct {
	Dest simnet.NodeID
	Path []simnet.NodeID
	Sig  algebra.Sig
}

// route is one immutable route record: the path's head hop, the route it
// extends (nil at the path's last hop), and the signature, destination,
// origination flag and length of the whole route. A record is never changed
// once built, so nodes share them: a selection is the candidate record, a
// flush sends it, and the receiver's route points at it.
type route struct {
	hop  simnet.NodeID
	sig  algebra.Sig // nil for a self-origination (and an undecodable advert)
	dest simnet.NodeID
	next *route
	n    int32 // path length
	orig bool  // a self-origination: the receiver derives the signature
}

var _ simnet.WireFormer = (*route)(nil)

// newRoute builds the record chain for a whole path; only the head carries
// the signature and the origination flag.
func newRoute(dest simnet.NodeID, path []simnet.NodeID, sig algebra.Sig, orig bool) *route {
	var r *route
	for i := len(path) - 1; i >= 0; i-- {
		r = &route{hop: path[i], dest: dest, next: r, n: int32(len(path) - i)}
	}
	r.sig, r.orig = sig, orig
	return r
}

// view renders the record as a Route.
func (r *route) view() Route {
	path := make([]simnet.NodeID, 0, r.n)
	for h := r; h != nil; h = h.next {
		path = append(path, h.hop)
	}
	return Route{Dest: r.dest, Path: path, Sig: r.sig}
}

// WireSize is the advert's on-the-wire size: a fixed header plus four bytes
// per path element, the granularity the bandwidth figures need.
func (r *route) WireSize() int { return 20 + 4*int(r.n) }

// WireForm implements simnet.WireFormer: deployment mode sends the Advert.
func (r *route) WireForm() any {
	key := ""
	if r.sig != nil {
		key = r.sig.String()
	}
	return Advert{Dest: r.dest, Path: r.view().Path, SigKey: key, Origination: r.orig}
}

// contains reports whether id is a hop of the route.
func (r *route) contains(id simnet.NodeID) bool {
	for ; r != nil; r = r.next {
		if r.hop == id {
			return true
		}
	}
	return false
}

// comparePaths orders two routes' paths of equal length lexicographically,
// hop by hop; a shared tail ends the walk.
func comparePaths(a, b *route) int {
	for ; a != b; a, b = a.next, b.next {
		if c := cmp.Compare(a.hop, b.hop); c != 0 {
			return c
		}
	}
	return 0
}

// sameRoute reports whether two routes have one signature and one path.
func sameRoute(a, b *route) bool {
	return a == b || a.sig == b.sig && a.n == b.n && comparePaths(a, b) == 0
}

// Config parameterizes a GPV node.
type Config struct {
	// Algebra is the policy configuration.
	Algebra algebra.Algebra
	// Label returns the label of the directed link from→to. It must be
	// defined for every adjacent pair.
	Label func(from, to simnet.NodeID) algebra.Label
	// Originations are the routes this node injects at start (externally
	// learned routes in iBGP instances; self-destination announcements are
	// covered by SelfOriginate instead).
	Originations []Route
	// SelfOriginate, when true, makes the node announce itself as a
	// destination: neighbors derive the one-hop signature from the
	// algebra's origination set. This is the eBGP-style full-mesh workload
	// of §VI-A.
	SelfOriginate bool
	// BatchInterval batches route propagation (the paper configures 1 s in
	// §VI-A). Zero sends immediately.
	BatchInterval time.Duration
	// StartStagger delays protocol start by a node-deterministic offset in
	// [0, StartStagger), desynchronizing batch phases the way real routers
	// are desynchronized. DISAGREE-style gadgets rely on it to escape the
	// synchronous oscillation.
	StartStagger time.Duration
	// MaxPathLen, when positive, rejects adverts whose resulting path
	// exceeds the cap — used by the §VI-B collection runs to bound the
	// permitted-path harvest.
	MaxPathLen int
	// OnAdvert, when set, observes every imported (non-filtered)
	// advertisement — the hook §VI-B uses to extract SPP instances from
	// executions.
	OnAdvert func(node simnet.NodeID, rt Route)
	// SigFromKey recovers a signature from its rendering in a received
	// Advert, the wire form deployment mode carries; simulated adverts share
	// the signature itself. The default, built on the first decode,
	// understands the renderings of the built-in algebras via SigCodec.
	SigFromKey func(key string) (algebra.Sig, bool)
}

// Node is a GPV protocol instance attached to one simnet node. Create with
// NewNode; one Node per network node.
type Node struct {
	cfg   Config
	origs []*route // Config.Originations as records
	// The neighbour slots (see the package comment), resolved by bind.
	self     simnet.NodeID
	selfOrig *route                   // the self-origination, when SelfOriginate
	ids      []simnet.NodeID          // slot → node: env.Neighbors(), then self
	fold     []int32                  // the slots in ascending NodeID order
	labels   []algebra.Label          // label(self→ids[slot]), filled on first use
	flushFn  func()                   // the batch-timer callback
	dests    map[simnet.NodeID]*entry // per-destination state
	last     *entry                   // the entry lookup returned last; nil after Reset
	dirty    []*entry                 // destinations changed since the last flush
	// flushScheduled guards the batch timer.
	flushScheduled bool
	started        bool
	// origsOff withholds Config.Originations (the mid-run policy-change
	// fault; see SetOriginationsEnabled in churn.go).
	origsOff bool
	// changes counts selection changes across all destinations, cumulative
	// across restarts. A campaign reads it to spot oscillating nodes under
	// churn.
	changes int64
	// Traffic counters since the last FlushObs (obs.go).
	advertsSent, withdrawsSent, loopRejects, filterRejects, flushedChanges int64
}

// entry is everything the node knows about one destination.
type entry struct {
	dest     simnet.NodeID
	slots    []slot // by neighbour slot
	best     *route // the current selection, or nil
	withdraw any    // Withdraw{dest}, boxed on the first withdraw
	dirty    bool   // queued in Node.dirty
}

// slot is a destination's state toward one neighbour (or the node itself):
// the candidate learned from it and what it was last sent (implicit-withdraw
// bookkeeping, the Adj-RIB-Out). Either is nil when there is none.
type slot struct {
	cand, sent *route
}

var _ simnet.Handler = (*Node)(nil)

// NewNode builds a GPV node from the configuration.
func NewNode(cfg Config) *Node {
	n := &Node{cfg: cfg, dests: map[simnet.NodeID]*entry{}}
	for _, rt := range cfg.Originations {
		n.origs = append(n.origs, newRoute(rt.Dest, rt.Path, rt.Sig, false))
	}
	return n
}

// bind resolves the neighbour slots on the node's first callback; the
// adjacency is fixed for the life of a run, so restarts keep them. Over TCP
// a neighbour's advert can overtake Start, hence every entry point binds.
func (n *Node) bind(env simnet.Env) {
	if n.ids != nil {
		return
	}
	n.self = env.Self()
	n.ids = append(slices.Clone(env.Neighbors()), n.self)
	n.fold = make([]int32, len(n.ids))
	n.labels = make([]algebra.Label, len(n.ids))
	for s := range n.ids {
		n.fold[s] = int32(s)
	}
	slices.SortFunc(n.fold, func(a, b int32) int { return cmp.Compare(n.ids[a], n.ids[b]) })
	n.flushFn = func() {
		n.flushScheduled = false
		n.flush(env)
	}
	if n.cfg.SelfOriginate {
		n.selfOrig = &route{hop: n.self, dest: n.self, n: 1, orig: true}
	}
}

// selfSlot is the slot holding the node's own originations.
func (n *Node) selfSlot() int32 { return int32(len(n.ids) - 1) }

// label returns the label of the link to a neighbour slot — the one place
// Config.Label is consulted, once per slot.
func (n *Node) label(s int32) algebra.Label {
	if n.labels[s] == nil {
		n.labels[s] = n.cfg.Label(n.self, n.ids[s])
	}
	return n.labels[s]
}

// lookup returns the destination's record, or nil when there is none. The
// record it found last answers first, so a run of adverts for one
// destination hashes its name once.
func (n *Node) lookup(dest simnet.NodeID) *entry {
	if e := n.last; e != nil && e.dest == dest {
		return e
	}
	e := n.dests[dest]
	if e != nil {
		n.last = e
	}
	return e
}

// entryFor returns the destination's record, creating it on first use.
func (n *Node) entryFor(dest simnet.NodeID) *entry {
	e := n.lookup(dest)
	if e == nil {
		e = &entry{dest: dest, slots: make([]slot, len(n.ids))}
		n.dests[dest] = e
		n.last = e
	}
	return e
}

// Best returns the node's current selection for dest.
func (n *Node) Best(dest simnet.NodeID) (Route, bool) {
	if e := n.dests[dest]; e != nil && e.best != nil {
		return e.best.view(), true
	}
	return Route{}, false
}

// Start implements simnet.Handler: inject originations and self-origination.
func (n *Node) Start(env simnet.Env) {
	n.bind(env)
	start := func() {
		n.started = true
		if !n.origsOff {
			for _, rt := range n.origs {
				// Injection replaces the destination's whole candidate set, so
				// a staggered start forgets what it heard before starting.
				e := n.entryFor(rt.dest)
				for s := range e.slots {
					e.slots[s].cand = nil
				}
				n.store(env, e, n.selfSlot(), rt)
			}
		}
		if n.selfOrig != nil {
			e := n.entryFor(n.self)
			e.best = n.selfOrig
			n.markDirty(env, e)
		}
	}
	if n.cfg.StartStagger > 0 {
		d := time.Duration(env.Rand().Int63n(int64(n.cfg.StartStagger)))
		env.Schedule(d, start)
	} else {
		start()
	}
}

// Receive implements simnet.Handler: the gpvRecv rule. from is the sender's
// position in env.Neighbors(), which is its slot. A simulated advert is the
// sender's route record; a deployed one is its wire form, decoded here.
func (n *Node) Receive(env simnet.Env, from int, payload any) {
	n.bind(env)
	switch m := payload.(type) {
	case *route:
		n.receiveRoute(env, int32(from), m)
	case Advert:
		n.receiveRoute(env, int32(from), n.decode(m))
	case Withdraw:
		n.dropCandidate(env, n.lookup(m.Dest), int32(from))
	default:
		panic(fmt.Sprintf("pathvector: unexpected payload %T", payload))
	}
}

// decode turns a wire-form advert back into a record — the one place a
// signature rendering is decoded. A rendering SigFromKey does not know
// leaves the record without a signature, which the import rejects.
func (n *Node) decode(adv Advert) *route {
	var sig algebra.Sig
	if !adv.Origination {
		if n.cfg.SigFromKey == nil {
			n.cfg.SigFromKey = NewSigCodec(n.cfg.Algebra).FromKey
		}
		if s, ok := n.cfg.SigFromKey(adv.SigKey); ok {
			sig = s
		}
	}
	return newRoute(adv.Dest, adv.Path, sig, adv.Origination)
}

// receiveRoute stores the advertised route, extended by this node, as the
// slot's candidate, or — on every reject — retracts the slot's previous one:
// each UPDATE replaces the neighbour's prior announcement, whether or not it
// is usable.
func (n *Node) receiveRoute(env simnet.Env, from int32, adv *route) {
	e := n.lookup(adv.dest)
	// Path-vector loop prevention: reject adverts already containing us.
	if adv.contains(n.self) {
		n.loopRejects++
		n.dropCandidate(env, e, from)
		return
	}
	sig, ok := n.importSig(from, adv)
	if !ok || (n.cfg.MaxPathLen > 0 && int(adv.n)+1 > n.cfg.MaxPathLen) {
		n.filterRejects++
		n.dropCandidate(env, e, from)
		return
	}
	rt := &route{hop: n.self, sig: sig, dest: adv.dest, next: adv, n: adv.n + 1}
	if n.cfg.OnAdvert != nil {
		n.cfg.OnAdvert(n.self, rt.view())
	}
	if e == nil {
		e = n.entryFor(adv.dest)
	}
	n.store(env, e, from, rt)
}

// importSig is gpvRecv's policy half, over the receiver-side label of the
// link U→V: the import filter ⊕I, then signature generation with ⊕P (from
// the origination set for a one-hop route, §V-B step 4). ok is false when
// the route is filtered, prohibited, or its signature is unknown.
func (n *Node) importSig(from int32, adv *route) (sig algebra.Sig, ok bool) {
	l := n.label(from)
	if adv.orig {
		sig = n.cfg.Algebra.Origin(l)
	} else {
		if adv.sig == nil || !n.cfg.Algebra.Import(l, adv.sig) {
			return nil, false
		}
		sig = n.cfg.Algebra.Concat(l, adv.sig)
	}
	return sig, !algebra.IsProhibited(sig)
}

// store is gpvStore with (dest, neighbor) keying: the slot's new candidate
// replaces its old one, BGP's implicit withdraw.
func (n *Node) store(env simnet.Env, e *entry, s int32, rt *route) {
	e.slots[s].cand = rt
	n.reselect(env, e)
}

func (n *Node) dropCandidate(env simnet.Env, e *entry, s int32) {
	if e != nil && e.slots[s].cand != nil {
		e.slots[s].cand = nil
		n.reselect(env, e)
	}
}

// reselect implements gpvSelect: recompute the most preferred candidate,
// folding the slots in ascending NodeID order. Ties (equally preferred or
// unordered signatures) break deterministically toward the shorter path,
// then the lexicographically smaller one — the stand-in for BGP's final
// tie-breakers, which the algebra leaves open. A new candidate equal to the
// selection (one signature, one path) is no change.
func (n *Node) reselect(env simnet.Env, e *entry) {
	var best *route
	for _, s := range n.fold {
		if c := e.slots[s].cand; c != nil && (best == nil || better(n.cfg.Algebra, c, best)) {
			best = c
		}
	}
	switch {
	case best == nil && e.best == nil:
		return
	case best != nil && e.best != nil && sameRoute(e.best, best):
		return
	}
	e.best = best
	n.changes++
	n.markDirty(env, e)
}

// markDirty queues the destination for the next flush.
func (n *Node) markDirty(env simnet.Env, e *entry) {
	if !e.dirty {
		e.dirty = true
		n.dirty = append(n.dirty, e)
	}
	n.scheduleFlush(env)
}

// better reports whether a should replace b as the selection.
func better(alg algebra.Algebra, a, b *route) bool {
	ab := alg.Prefer(a.sig, b.sig)
	ba := alg.Prefer(b.sig, a.sig)
	switch {
	case ab && !ba:
		return true
	case ba && !ab:
		return false
	default:
		// Equally preferred or unordered: deterministic tie-break.
		if a.n != b.n {
			return a.n < b.n
		}
		return comparePaths(a, b) < 0
	}
}

// scheduleFlush arranges a batched gpvSend. With batching, at most one
// flush timer is outstanding; without, the flush runs on the next event.
// The batch timer is jittered by up to 50% in the manner of BGP MRAI
// timer (RFC 4271 §9.2.1.1): without it, symmetric gadgets such as DISAGREE
// stay in deterministic lockstep and never settle into a stable state.
func (n *Node) scheduleFlush(env simnet.Env) {
	if n.flushScheduled {
		return
	}
	n.flushScheduled = true
	d := n.cfg.BatchInterval
	if d > 0 {
		d += time.Duration(env.Rand().Int63n(int64(d)/2 + 1))
	}
	env.Schedule(d, n.flushFn)
}

// flush implements gpvSend: advertise every dirty destination, in
// ascending order, to every neighbor admitted by the export filter, and
// withdraw from neighbors that previously received a route we can no longer
// offer them. A neighbor already holding this route is skipped; the others
// are all sent the selected record itself.
func (n *Node) flush(env simnet.Env) {
	slices.SortFunc(n.dirty, func(a, b *entry) int { return cmp.Compare(a.dest, b.dest) })
	for _, e := range n.dirty {
		e.dirty = false
		best := e.best
		for s, nb := range n.ids[:n.selfSlot()] {
			if n.cfg.SelfOriginate && nb == e.dest {
				continue // never advertise a node to itself
			}
			st := &e.slots[s]
			// Originations skip ⊕E; the receiver derives the signature (§V-B step 4).
			if best == nil || !(best.orig || n.cfg.Algebra.Export(n.label(int32(s)), best.sig)) {
				if st.sent != nil {
					if e.withdraw == nil {
						e.withdraw = Withdraw{Dest: e.dest}
					}
					env.Send(s, e.withdraw, Withdraw{}.WireSize())
					n.withdrawsSent++
					st.sent = nil
				}
				continue
			}
			if st.sent != nil && sameRoute(st.sent, best) {
				continue
			}
			env.Send(s, best, best.WireSize())
			n.advertsSent++
			st.sent = best
		}
	}
	n.dirty = n.dirty[:0]
}
