// Package simnet is the execution platform substituting for the paper's
// RapidNet/ns-3 stack: a deterministic discrete-event network simulator
// (simulation mode) and a real-socket loopback runtime (deployment mode,
// tcp.go), both driving the same protocol code through the Env/Handler
// interfaces. Links model latency, jitter, bandwidth serialization and FIFO
// queueing; all traffic is accounted into a trace.Collector so experiments
// can plot the paper's bandwidth figures, and a run's RunResult carries its
// convergence time.
//
// The simulator's hot loop is allocation-free in steady state: events are
// typed value records (timer vs. delivery vs. start) living in a slot arena
// recycled through a free list, ordered by a hand-rolled index heap —
// no per-event heap pointer, no per-delivery closure, no interface boxing.
// Message delivery resolves links through dense per-node adjacency instead
// of a global map keyed by node-ID pairs, and only a send touches the
// collector. AddNode draws the node's seed from the network generator, but
// the generator itself is built on the first Env.Rand call: protocols that
// neither batch nor stagger never pay for it, and seeded runs see the same
// streams either way.
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fsr/internal/trace"
)

// NodeID names a node (a router or an AS).
type NodeID string

// Env is the interface protocol code uses to interact with its platform.
// Both the discrete-event simulator and the TCP deployment runtime
// implement it, mirroring RapidNet's simulation/deployment duality (§VI).
// Env methods must only be called from within Handler callbacks (protocol
// code is single-threaded per node on both platforms).
type Env interface {
	// Self returns the node this environment belongs to.
	Self() NodeID
	// Now returns the current time: virtual in simulation mode, wall-clock
	// elapsed in deployment mode.
	Now() time.Duration
	// Neighbors returns the node's neighbors in a stable order. The
	// returned slice is shared and read-only: callers must not modify it.
	Neighbors() []NodeID
	// Send transmits a payload of the given wire size to a neighbor.
	// Sending to a non-neighbor is a programming error and panics.
	Send(to NodeID, payload any, size int)
	// Schedule runs fn on this node after d (a protocol timer, e.g. the
	// 1-second route batching of §VI-A).
	Schedule(d time.Duration, fn func())
	// Rand returns the node's deterministic random source (seeded per node
	// in simulation mode).
	Rand() *rand.Rand
}

// Handler is the protocol logic attached to a node.
type Handler interface {
	// Start is invoked once before any message is delivered.
	Start(env Env)
	// Receive is invoked for each delivered payload.
	Receive(env Env, from NodeID, payload any)
}

// LinkConfig models one direction of a link, with the parameters the
// paper's experiments set (100 Mbps bandwidth, 10 ms latency, up to 3 ms
// jitter).
type LinkConfig struct {
	Latency   time.Duration
	Jitter    time.Duration // uniform in [0, Jitter)
	Bandwidth int64         // bits per second; 0 means infinite
	// Loss is the per-message drop probability in [0, 1]: each transmission
	// is independently lost with this probability (drawn from the network's
	// seeded rng, so runs stay deterministic). Lost messages are counted in
	// RunResult.Dropped.
	Loss float64
}

// Validate rejects configurations no physical link can have.
func (c LinkConfig) Validate() error {
	switch {
	case c.Latency < 0:
		return fmt.Errorf("simnet: negative latency %v", c.Latency)
	case c.Jitter < 0:
		return fmt.Errorf("simnet: negative jitter %v", c.Jitter)
	case c.Bandwidth < 0:
		return fmt.Errorf("simnet: negative bandwidth %d", c.Bandwidth)
	case c.Loss < 0 || c.Loss > 1 || c.Loss != c.Loss:
		return fmt.Errorf("simnet: loss probability %v outside [0, 1]", c.Loss)
	}
	return nil
}

// DefaultLink reproduces the paper's standard link: 100 Mbps, 10 ms, no
// jitter.
func DefaultLink() LinkConfig {
	return LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: 100e6}
}

// Event kinds. Typed records replace the closure-per-event design: the two
// hot kinds (delivery, timer) carry their payload inline, so scheduling a
// message allocates nothing once the arena is warm.
const (
	evStart    = iota // invoke handler.Start on node
	evTimer           // run fn (protocol timer)
	evDeliver         // deliver payload from → node
	evLinkDown        // fault: take the node↔from link down
	evLinkUp          // fault: bring the node↔from link back up
	evRestart         // fault: clear node's handler state and re-Start it
)

// event is one scheduled occurrence, stored by value in the arena.
type event struct {
	at      time.Duration
	seq     int64 // tie-break for determinism
	kind    uint8
	node    int32  // target node index (start/restart target, delivery receiver, fault endpoint a)
	from    int32  // delivery sender index; fault endpoint b
	li      int32  // delivery: index of the sender's outgoing link
	epoch   uint32 // delivery: the link epoch the message was sent under
	payload any
	fn      func()
}

// link is one directed link with its serialization queue state and dynamic
// up/down fault state.
type link struct {
	cfg       LinkConfig
	busyUntil time.Duration // FIFO serialization: next transmission start
	dst       int32         // receiver node index
	down      bool          // fault state: messages are dropped while down
	epoch     uint32        // incremented on every down transition; in-flight
	// deliveries carry the epoch they were sent under and are dropped on
	// mismatch — a downed link loses what was on the wire.
}

// node is a simulated node.
type node struct {
	id        NodeID
	idx       int32
	handler   Handler
	neighbors []NodeID
	links     []link           // parallel to neighbors: the outgoing link per neighbor
	neighIdx  map[NodeID]int32 // neighbor ID → index into neighbors/links
	seed      int64            // drawn from the network generator at AddNode
	rng       *rand.Rand       // built from seed on the first Env.Rand call
	env       *simEnv
}

// Network is the discrete-event simulator. All scheduling is deterministic
// given the seed; runs are reproducible byte-for-byte.
type Network struct {
	nodes map[NodeID]*node
	order []NodeID
	byIdx []*node

	events []event // slot arena; recycled through free
	free   []int32 // vacant arena slots
	heap   []int32 // index heap over events, ordered by (at, seq)

	now       time.Duration
	seq       int64
	rng       *rand.Rand
	collector *trace.Collector
	delivered int64

	// Fault accounting (see fault.go). The flushed* shadows track what has
	// already been pushed to the obs counters, so flushObs adds deltas.
	faults          int64         // fault events processed (link down/up, restarts)
	restarts        int64         // node restarts processed
	dropped         int64         // messages dropped by faults or probabilistic loss
	lastFault       time.Duration // instant of the last processed fault event
	flushedFaults   int64
	flushedRestarts int64
	flushedDropped  int64
}

// New creates an empty simulated network with the given seed and metric
// collector (nil for an unmonitored run).
func New(seed int64, c *trace.Collector) *Network {
	if c == nil {
		c = trace.NewCollector(10 * time.Millisecond)
	}
	return &Network{
		nodes:     map[NodeID]*node{},
		rng:       rand.New(rand.NewSource(seed)),
		collector: c,
	}
}

// Collector returns the attached metric collector.
func (n *Network) Collector() *trace.Collector { return n.collector }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// AddNode attaches a handler as a new node. Node IDs must be unique.
func (n *Network) AddNode(id NodeID, h Handler) error {
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("simnet: duplicate node %s", id)
	}
	nd := &node{
		id:       id,
		idx:      int32(len(n.byIdx)),
		handler:  h,
		neighIdx: map[NodeID]int32{},
		seed:     n.rng.Int63(),
	}
	nd.env = &simEnv{net: n, node: nd}
	n.nodes[id] = nd
	n.order = append(n.order, id)
	n.byIdx = append(n.byIdx, nd)
	return nil
}

// Connect creates a bidirectional link between two existing nodes with the
// same configuration in both directions. Self-links, duplicate links, and
// physically impossible configurations (negative latency/jitter/bandwidth,
// loss outside [0, 1]) are rejected.
func (n *Network) Connect(a, b NodeID, cfg LinkConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w (link %s–%s)", err, a, b)
	}
	if a == b {
		return fmt.Errorf("simnet: self-link %s–%s", a, b)
	}
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("simnet: connect %s–%s: unknown node", a, b)
	}
	if _, dup := na.neighIdx[b]; dup {
		return fmt.Errorf("simnet: duplicate link %s–%s", a, b)
	}
	na.neighIdx[b] = int32(len(na.neighbors))
	na.neighbors = append(na.neighbors, b)
	na.links = append(na.links, link{cfg: cfg, dst: nb.idx})
	nb.neighIdx[a] = int32(len(nb.neighbors))
	nb.neighbors = append(nb.neighbors, a)
	nb.links = append(nb.links, link{cfg: cfg, dst: na.idx})
	return nil
}

// scheduleEvent stamps the event with the next sequence number and enqueues
// it, reusing a free arena slot when one exists.
func (n *Network) scheduleEvent(ev event) {
	n.seq++
	ev.seq = n.seq
	var idx int32
	if last := len(n.free) - 1; last >= 0 {
		idx = n.free[last]
		n.free = n.free[:last]
		n.events[idx] = ev
	} else {
		idx = int32(len(n.events))
		n.events = append(n.events, ev)
	}
	n.heapPush(idx)
}

// schedule enqueues fn at time at (the timer path; kept for tests).
func (n *Network) schedule(at time.Duration, fn func()) {
	n.scheduleEvent(event{at: at, kind: evTimer, fn: fn})
}

// eventLess orders arena slots by (at, seq).
func (n *Network) eventLess(a, b int32) bool {
	ea, eb := &n.events[a], &n.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush inserts an arena index into the event heap.
func (n *Network) heapPush(idx int32) {
	h := append(n.heap, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !n.eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	n.heap = h
}

// heapPop removes and returns the arena index of the earliest event.
func (n *Network) heapPop() int32 {
	h := n.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && n.eventLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && n.eventLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	n.heap = h
	return top
}

// RunResult summarizes a simulation run.
type RunResult struct {
	// Converged reports whether the event queue drained before the horizon
	// (protocol quiescence: no pending messages or timers).
	Converged bool
	// Time is the instant of the last processed event when converged, or
	// the horizon otherwise.
	Time time.Duration
	// Events is the number of processed events.
	Events int64
	// Delivered is the number of delivered protocol messages.
	Delivered int64
	// Dropped counts messages lost to faults: sent on (or in flight over) a
	// downed link, lost to probabilistic link loss, or voided by a node
	// restart.
	Dropped int64
	// Faults counts processed fault events (link down/up, node restarts).
	Faults int64
	// LastFault is the instant of the last processed fault event (zero when
	// Faults is zero). Time − LastFault is the re-convergence time under
	// churn when Converged.
	LastFault time.Duration
}

// Run starts every handler and processes events until quiescence or until
// the horizon. An oscillating protocol (BADGADGET) never quiesces and runs
// to the horizon; a convergent one drains the queue, and the drain time is
// its convergence time.
func (n *Network) Run(horizon time.Duration) RunResult {
	res, _ := n.RunContext(context.Background(), horizon)
	return res
}

// RunContext is Run with cancellation: the context is polled every event
// batch, so cancelling mid-simulation aborts a long (or never-converging)
// run with ctx.Err() and the partial result processed so far.
func (n *Network) RunContext(ctx context.Context, horizon time.Duration) (RunResult, error) {
	for _, id := range n.order {
		n.scheduleEvent(event{at: 0, kind: evStart, node: n.nodes[id].idx})
	}
	return n.resume(ctx, horizon)
}

// ctxCheckInterval is how many events are processed between context polls:
// frequent enough that cancellation lands within microseconds, rare enough
// that the atomic load cost is invisible.
const ctxCheckInterval = 64

// result assembles a RunResult from the loop state.
func (n *Network) result(converged bool, t time.Duration, processed int64) RunResult {
	return RunResult{
		Converged: converged, Time: t, Events: processed,
		Delivered: n.delivered, Dropped: n.dropped,
		Faults: n.faults, LastFault: n.lastFault,
	}
}

// resume continues processing (used by Run and by tests that inject events).
func (n *Network) resume(ctx context.Context, horizon time.Duration) (RunResult, error) {
	var processed int64
	var lastEvent time.Duration
	for len(n.heap) > 0 {
		if processed%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				n.flushObs(processed)
				return n.result(false, n.now, processed), err
			}
		}
		if n.events[n.heap[0]].at > horizon {
			n.now = horizon
			n.flushObs(processed)
			return n.result(false, horizon, processed), nil
		}
		idx := n.heapPop()
		ev := n.events[idx]     // copy out: dispatch below may grow the arena
		n.events[idx] = event{} // clear the slot so payload/fn don't leak
		n.free = append(n.free, idx)
		if ev.at > n.now {
			n.now = ev.at
		}
		lastEvent = n.now
		switch ev.kind {
		case evStart:
			nd := n.byIdx[ev.node]
			nd.handler.Start(nd.env)
		case evTimer:
			ev.fn()
		case evDeliver:
			from := n.byIdx[ev.from]
			l := &from.links[ev.li]
			if l.down || l.epoch != ev.epoch {
				// The link went down while the message was on the wire (or is
				// still down): the delivery is lost.
				n.dropped++
				break
			}
			dst := n.byIdx[ev.node]
			n.delivered++
			dst.handler.Receive(dst.env, from.id, ev.payload)
		case evLinkDown:
			n.applyLinkState(ev.node, ev.from, false)
		case evLinkUp:
			n.applyLinkState(ev.node, ev.from, true)
		case evRestart:
			n.applyRestart(ev.node)
		}
		processed++
	}
	n.flushObs(processed)
	return n.result(true, lastEvent, processed), nil
}

// deliver models the link: FIFO serialization at the sender, then
// propagation latency plus jitter. The receive itself is a typed event
// record, not a closure, so the send path allocates nothing in steady
// state.
func (n *Network) deliver(from *node, to NodeID, payload any, size int) {
	li, ok := from.neighIdx[to]
	if !ok {
		panic(fmt.Sprintf("simnet: %s sent to non-neighbor %s", from.id, to))
	}
	l := &from.links[li]
	n.collector.RecordSend(size, n.now)
	if l.down {
		// The sender doesn't know the link is down (no control plane in the
		// simulator): the transmission is silently lost, like a frame sent
		// into a dead cable.
		n.dropped++
		return
	}
	if l.cfg.Loss > 0 && n.rng.Float64() < l.cfg.Loss {
		n.dropped++
		return
	}
	txStart := n.now
	if l.busyUntil > txStart {
		txStart = l.busyUntil
	}
	var ser time.Duration
	if l.cfg.Bandwidth > 0 {
		ser = time.Duration(float64(size*8) / float64(l.cfg.Bandwidth) * float64(time.Second))
	}
	txEnd := txStart + ser
	l.busyUntil = txEnd
	prop := l.cfg.Latency
	if l.cfg.Jitter > 0 {
		prop += time.Duration(n.rng.Int63n(int64(l.cfg.Jitter)))
	}
	n.scheduleEvent(event{
		at:      txEnd + prop,
		kind:    evDeliver,
		node:    l.dst,
		from:    from.idx,
		li:      li,
		epoch:   l.epoch,
		payload: payload,
	})
}

// simEnv implements Env for a simulated node.
type simEnv struct {
	net  *Network
	node *node
}

func (e *simEnv) Self() NodeID       { return e.node.id }
func (e *simEnv) Now() time.Duration { return e.net.now }

// Rand builds the node's generator on first use: seeding one costs more
// than a short run's whole event loop, and unbatched, unstaggered protocols
// never draw. The seed was fixed at AddNode, so the stream is the same.
func (e *simEnv) Rand() *rand.Rand {
	if e.node.rng == nil {
		e.node.rng = rand.New(rand.NewSource(e.node.seed))
	}
	return e.node.rng
}

// Neighbors returns the node's cached adjacency; the slice is shared and
// must not be modified by the caller.
func (e *simEnv) Neighbors() []NodeID { return e.node.neighbors }

func (e *simEnv) Send(to NodeID, payload any, size int) {
	e.net.deliver(e.node, to, payload, size)
}

func (e *simEnv) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.net.scheduleEvent(event{at: e.net.now + d, kind: evTimer, fn: fn})
}
