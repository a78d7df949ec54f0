// Package pathvector implements the Generalized Path Vector protocol of
// §V-A natively in Go: a path-vector mechanism parameterized by a routing
// algebra. It is the compiled counterpart of the NDlog GPV program — the
// engine package executes the same four rules interpretively; this package
// executes them directly, and the equivalence of the two is tested.
//
// A Node runs any algebra.Algebra. SPP nodes (BuildSPP) run the instance's
// execution table, spp.NewTable, which also decodes adverts' signatures: no
// string-keyed Tabular or SigCodec sits on their loop, and signatures still
// travel as their renderings (Advert.SigKey).
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
// State lives on the node's neighbour slots, resolved once from
// env.Neighbors() (slot = position, plus one for the node's own
// originations). A destination is one record: per slot the candidate learned
// from it and what it was last sent, then the selection and a dirty flag. In
// steady state a received advert allocates its path and a flush one boxed
// Advert per dirty destination: duplicates are suppressed by comparing
// (signature, path) by value, labels are looked up once per slot, and the
// dirty list and the timer callback are reused.
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
	"maps"
	"slices"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
)

// Advert is a route advertisement: dest D reachable via Path with signature
// Sig. Origination announcements carry Origination=true and no signature —
// the receiver derives the one-hop signature from the algebra's origination
// set (§V-B step 4).
type Advert struct {
	Dest        simnet.NodeID
	Path        []simnet.NodeID
	SigKey      string // rendered signature (wire form)
	Origination bool
}

// Withdraw revokes the sender's advertisement for Dest.
type Withdraw struct {
	Dest simnet.NodeID
}

// WireSize estimates the on-the-wire size of an advert: a fixed header plus
// four bytes per path element, the granularity the bandwidth figures need.
func (a Advert) WireSize() int { return 20 + 4*len(a.Path) }

// WireSize of a withdraw: header only.
func (w Withdraw) WireSize() int { return 24 }

func init() {
	simnet.RegisterPayload(Advert{})
	simnet.RegisterPayload(Withdraw{})
}

// Route is a stored candidate route.
type Route struct {
	Dest simnet.NodeID
	Path []simnet.NodeID
	Sig  algebra.Sig
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
	// SigFromKey recovers a signature from its wire rendering. Required
	// because signatures travel as strings; the default understands the
	// renderings of the built-in algebras via SigCodec.
	SigFromKey func(key string) (algebra.Sig, bool)
}

// Node is a GPV protocol instance attached to one simnet node. Create with
// NewNode; one Node per network node.
type Node struct {
	cfg Config
	// The neighbour slots (see the package comment), resolved by bind.
	self    simnet.NodeID
	ids     []simnet.NodeID          // slot → node: env.Neighbors(), then self
	slotOf  map[simnet.NodeID]int32  // node → slot
	fold    []int32                  // the slots in ascending NodeID order
	labels  []algebra.Label          // label(self→ids[slot]), filled on first use
	flushFn func()                   // the batch-timer callback
	dests   map[simnet.NodeID]*entry // per-destination state
	dirty   []*entry                 // destinations changed since the last flush
	// flushScheduled guards the batch timer.
	flushScheduled bool
	started        bool
	// origsOff withholds Config.Originations (the mid-run policy-change
	// fault; see SetOriginationsEnabled in churn.go).
	origsOff bool
	// changes counts selection changes across all destinations, cumulative
	// across restarts; lastChange is the instant of the most recent one.
	// Campaign drivers use them to spot oscillating nodes under churn.
	changes    int64
	lastChange time.Duration
	// Traffic counters since the last FlushObs (obs.go).
	advertsSent, withdrawsSent, loopRejects, filterRejects, flushedChanges int64
}

// entry is everything the node knows about one destination.
type entry struct {
	dest    simnet.NodeID
	slots   []slot // by neighbour slot
	best    Route  // the current selection, when hasBest
	hasBest bool
	dirty   bool // queued in Node.dirty
}

// slot is a destination's state toward one neighbour (or the node itself):
// the candidate learned from it and what it was last sent.
type slot struct {
	cand, sent       Route // sent: implicit-withdraw bookkeeping (Adj-RIB-Out)
	hasCand, hasSent bool
}

var _ simnet.Handler = (*Node)(nil)

// NewNode builds a GPV node from the configuration.
func NewNode(cfg Config) *Node {
	if cfg.SigFromKey == nil {
		codec := NewSigCodec(cfg.Algebra)
		cfg.SigFromKey = codec.FromKey
	}
	return &Node{cfg: cfg, dests: map[simnet.NodeID]*entry{}}
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
	n.slotOf = make(map[simnet.NodeID]int32, len(n.ids))
	n.fold = make([]int32, len(n.ids))
	n.labels = make([]algebra.Label, len(n.ids))
	for s, id := range n.ids {
		n.slotOf[id], n.fold[s] = int32(s), int32(s)
	}
	slices.SortFunc(n.fold, func(a, b int32) int { return cmp.Compare(n.ids[a], n.ids[b]) })
	n.flushFn = func() {
		n.flushScheduled = false
		n.flush(env)
	}
}

// selfSlot is the slot holding the node's own originations.
func (n *Node) selfSlot() int32 { return int32(len(n.ids) - 1) }

// slotFor resolves a node to its slot; only neighbours (and self) have one.
func (n *Node) slotFor(id simnet.NodeID) int32 {
	s, ok := n.slotOf[id]
	if !ok {
		panic(fmt.Sprintf("pathvector: %s is not a neighbor of %s", id, n.self))
	}
	return s
}

// label returns the label of the link to a neighbour slot — the one place
// Config.Label is consulted, once per slot.
func (n *Node) label(s int32) algebra.Label {
	if n.labels[s] == nil {
		n.labels[s] = n.cfg.Label(n.self, n.ids[s])
	}
	return n.labels[s]
}

// entryFor returns the destination's record, creating it on first use.
func (n *Node) entryFor(dest simnet.NodeID) *entry {
	e := n.dests[dest]
	if e == nil {
		e = &entry{dest: dest, slots: make([]slot, len(n.ids))}
		n.dests[dest] = e
	}
	return e
}

// Best returns the node's current selection for dest.
func (n *Node) Best(dest simnet.NodeID) (Route, bool) {
	if e := n.dests[dest]; e != nil && e.hasBest {
		return e.best, true
	}
	return Route{}, false
}

// Routes returns the number of destinations with a selected route.
func (n *Node) Routes() int {
	c := 0
	for _, e := range n.dests {
		if e.hasBest {
			c++
		}
	}
	return c
}

// Start implements simnet.Handler: inject originations and self-origination.
func (n *Node) Start(env simnet.Env) {
	n.bind(env)
	start := func() {
		n.started = true
		if !n.origsOff {
			for _, rt := range n.cfg.Originations {
				// Injection replaces the destination's whole candidate set, so
				// a staggered start forgets what it heard before starting.
				e := n.entryFor(rt.Dest)
				for s := range e.slots {
					e.slots[s].hasCand = false
				}
				n.store(env, e, n.selfSlot(), rt)
			}
		}
		if n.cfg.SelfOriginate {
			e := n.entryFor(n.self)
			e.best, e.hasBest = Route{Dest: n.self, Path: []simnet.NodeID{n.self}}, true
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

// Receive implements simnet.Handler: the gpvRecv rule.
func (n *Node) Receive(env simnet.Env, from simnet.NodeID, payload any) {
	n.bind(env)
	switch m := payload.(type) {
	case Advert:
		n.receiveAdvert(env, n.slotFor(from), m)
	case Withdraw:
		n.dropCandidate(env, n.dests[m.Dest], n.slotFor(from))
	default:
		panic(fmt.Sprintf("pathvector: unexpected payload %T", payload))
	}
}

// receiveAdvert stores the advertised route as the slot's candidate, or —
// on every reject — retracts the slot's previous one: each UPDATE replaces
// the neighbour's prior announcement, whether or not it is usable.
func (n *Node) receiveAdvert(env simnet.Env, from int32, adv Advert) {
	e := n.dests[adv.Dest]
	// Path-vector loop prevention: reject adverts already containing us.
	if slices.Contains(adv.Path, n.self) {
		n.loopRejects++
		n.dropCandidate(env, e, from)
		return
	}
	sig, ok := n.importSig(from, adv)
	if !ok || (n.cfg.MaxPathLen > 0 && len(adv.Path)+1 > n.cfg.MaxPathLen) {
		n.filterRejects++
		n.dropCandidate(env, e, from)
		return
	}
	path := append(append(make([]simnet.NodeID, 0, len(adv.Path)+1), n.self), adv.Path...)
	rt := Route{Dest: adv.Dest, Path: path, Sig: sig}
	if n.cfg.OnAdvert != nil {
		n.cfg.OnAdvert(n.self, rt)
	}
	n.store(env, n.entryFor(adv.Dest), from, rt)
}

// importSig is gpvRecv's policy half, over the receiver-side label of the
// link U→V: the import filter ⊕I, then signature generation with ⊕P (from
// the origination set for a one-hop route, §V-B step 4). ok is false when
// the route is filtered, prohibited, or its signature is unknown.
func (n *Node) importSig(from int32, adv Advert) (sig algebra.Sig, ok bool) {
	l := n.label(from)
	if adv.Origination {
		sig = n.cfg.Algebra.Origin(l)
	} else {
		prev, known := n.cfg.SigFromKey(adv.SigKey)
		if !known || !n.cfg.Algebra.Import(l, prev) {
			return nil, false
		}
		sig = n.cfg.Algebra.Concat(l, prev)
	}
	return sig, !algebra.IsProhibited(sig)
}

// store is gpvStore with (dest, neighbor) keying: the slot's new candidate
// replaces its old one, BGP's implicit withdraw.
func (n *Node) store(env simnet.Env, e *entry, s int32, rt Route) {
	e.slots[s].cand, e.slots[s].hasCand = rt, true
	n.reselect(env, e)
}

func (n *Node) dropCandidate(env simnet.Env, e *entry, s int32) {
	if e != nil && e.slots[s].hasCand {
		e.slots[s].hasCand = false
		n.reselect(env, e)
	}
}

// reselect implements gpvSelect: recompute the most preferred candidate,
// folding the slots in ascending NodeID order. Ties (equally preferred or
// unordered signatures) break deterministically toward the shorter path,
// then the lexicographically smaller one — the stand-in for BGP's final
// tie-breakers, which the algebra leaves open.
func (n *Node) reselect(env simnet.Env, e *entry) {
	var best *Route
	for _, s := range n.fold {
		if c := &e.slots[s]; c.hasCand && (best == nil || better(n.cfg.Algebra, c.cand, *best)) {
			best = &c.cand
		}
	}
	switch {
	case best == nil && !e.hasBest:
		return
	case best != nil && e.hasBest && e.best.Sig == best.Sig && pathEqual(e.best.Path, best.Path):
		return
	case best != nil:
		e.best, e.hasBest = *best, true
	default:
		e.best, e.hasBest = Route{}, false
	}
	n.changes++
	n.lastChange = env.Now()
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
func better(alg algebra.Algebra, a, b Route) bool {
	ab := alg.Prefer(a.Sig, b.Sig)
	ba := alg.Prefer(b.Sig, a.Sig)
	switch {
	case ab && !ba:
		return true
	case ba && !ab:
		return false
	default:
		// Equally preferred or unordered: deterministic tie-break.
		if len(a.Path) != len(b.Path) {
			return len(a.Path) < len(b.Path)
		}
		return slices.Compare(a.Path, b.Path) < 0
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
// offer them. A neighbor already holding exactly this (signature, path) is
// skipped; the others share one boxed Advert per destination.
func (n *Node) flush(env simnet.Env) {
	slices.SortFunc(n.dirty, func(a, b *entry) int { return cmp.Compare(a.dest, b.dest) })
	for _, e := range n.dirty {
		e.dirty = false
		// Originations skip ⊕E; the receiver derives the signature (§V-B step 4).
		origin := n.cfg.SelfOriginate && e.dest == n.self
		adv := Advert{Dest: e.dest, Path: e.best.Path, SigKey: sigKey(e.best.Sig), Origination: origin}
		var boxed any // adv as a payload, boxed at the first send
		for s, nb := range n.ids[:n.selfSlot()] {
			if n.cfg.SelfOriginate && nb == e.dest {
				continue // never advertise a node to itself
			}
			st := &e.slots[s]
			if !e.hasBest || !(origin || n.cfg.Algebra.Export(n.label(int32(s)), e.best.Sig)) {
				if st.hasSent {
					w := Withdraw{Dest: e.dest}
					env.Send(nb, w, w.WireSize())
					n.withdrawsSent++
					st.hasSent = false
				}
				continue
			}
			if st.hasSent && st.sent.Sig == e.best.Sig && pathEqual(st.sent.Path, e.best.Path) {
				continue
			}
			if boxed == nil {
				boxed = adv
			}
			env.Send(nb, boxed, adv.WireSize())
			n.advertsSent++
			st.sent, st.hasSent = e.best, true
		}
	}
	n.dirty = n.dirty[:0]
}

func sigKey(s algebra.Sig) string {
	if s == nil {
		return ""
	}
	return s.String()
}

func pathEqual(a, b []simnet.NodeID) bool { return slices.Equal(a, b) }

// sortedNeighbors returns map keys in sorted order for deterministic
// iteration.
func sortedNeighbors[V any](m map[simnet.NodeID]V) []simnet.NodeID {
	return slices.Sorted(maps.Keys(m))
}
