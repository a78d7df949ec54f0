package simnet

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/trace"
)

// This file implements deployment mode: the same Handler protocol code runs
// unmodified over real TCP sockets on the loopback interface, mirroring the
// paper's RapidNet deployment mode ("simulation and deployment modes use
// the same compiled code base, with a configuration flag indicating running
// the network stack in simulation or using actual sockets", §VI-A).
//
// Each node owns a listener and one outbound TCP connection per neighbor;
// payloads travel as gob-encoded envelopes (a WireFormer as its wire form).
// A connection opens with the dialer's name, which the reader resolves to
// the dialer's position once; every envelope on it is received from that
// position.
// Protocol payload types must be registered with gob by the protocol package
// (see RegisterPayload).
// Convergence is detected by global quiescence: no in-flight messages, no
// pending timers, and no activity for an idle window.

// RegisterPayload registers a payload type for deployment-mode transport.
func RegisterPayload(v any) { gob.Register(v) }

// WireFormer is implemented by a payload whose simulated form is shared by
// reference (see Env.Send) and so is not what goes on a socket: deployment
// mode gob-encodes WireForm()'s value instead, and that value is what the
// receiving handler gets.
type WireFormer interface {
	WireForm() any
}

// envelope is the wire format.
type envelope struct {
	Payload any
}

// Deployment runs a set of handlers over loopback TCP.
type Deployment struct {
	collector *trace.Collector
	nodes     map[NodeID]*tcpNode
	order     []NodeID
	links     map[[2]NodeID]bool
	start     time.Time

	pending      atomic.Int64 // in-flight messages + scheduled timers
	lastActivity atomic.Int64 // nanoseconds since start
	stopped      atomic.Bool
	wg           sync.WaitGroup
}

// tcpNode is one deployment-mode node.
type tcpNode struct {
	dep       *Deployment
	id        NodeID
	handler   Handler
	env       *tcpEnv
	neighbors []NodeID
	listener  net.Listener
	// conns is parallel to neighbors: the outbound connection per position.
	// Run fills it before any handler runs, so Send reads it unlocked.
	conns    []*gob.Encoder
	connMu   sync.Mutex // guards rawConns, which acceptLoop appends to
	rawConns []net.Conn
	exec     chan func()
	rng      *rand.Rand
}

// NewDeployment creates an empty deployment with the given metric collector.
func NewDeployment(c *trace.Collector) *Deployment {
	if c == nil {
		c = trace.NewCollector(10 * time.Millisecond)
	}
	return &Deployment{
		collector: c,
		nodes:     map[NodeID]*tcpNode{},
		links:     map[[2]NodeID]bool{},
	}
}

// Collector returns the attached metric collector.
func (d *Deployment) Collector() *trace.Collector { return d.collector }

// AddNode attaches a handler as a new node.
func (d *Deployment) AddNode(id NodeID, h Handler) error {
	if _, dup := d.nodes[id]; dup {
		return fmt.Errorf("simnet: duplicate node %s", id)
	}
	nd := &tcpNode{
		dep:     d,
		id:      id,
		handler: h,
		exec:    make(chan func(), 4096),
		rng:     rand.New(rand.NewSource(int64(len(d.nodes)) + 1)),
	}
	nd.env = &tcpEnv{node: nd}
	d.nodes[id] = nd
	d.order = append(d.order, id)
	return nil
}

// Connect declares a bidirectional adjacency. Deployment links carry no
// artificial latency or bandwidth shaping: timing reflects the real network
// stack, as on the paper's testbed.
func (d *Deployment) Connect(a, b NodeID) error {
	na, nb := d.nodes[a], d.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("simnet: connect %s–%s: unknown node", a, b)
	}
	if d.links[[2]NodeID{a, b}] {
		return fmt.Errorf("simnet: duplicate link %s–%s", a, b)
	}
	d.links[[2]NodeID{a, b}] = true
	d.links[[2]NodeID{b, a}] = true
	na.neighbors = append(na.neighbors, b)
	nb.neighbors = append(nb.neighbors, a)
	return nil
}

// Run starts listeners, dials the mesh, runs every handler, and waits for
// quiescence (no in-flight work for idleWindow) or the horizon. It returns
// the convergence result measured in wall-clock time since start.
func (d *Deployment) Run(horizon, idleWindow time.Duration) (RunResult, error) {
	return d.RunContext(context.Background(), horizon, idleWindow)
}

// RunContext is Run with cancellation: a cancelled context tears the
// deployment down and returns ctx.Err() together with the partial result.
func (d *Deployment) RunContext(ctx context.Context, horizon, idleWindow time.Duration) (RunResult, error) {
	if idleWindow <= 0 {
		idleWindow = 200 * time.Millisecond
	}
	// Phase 1: listeners.
	for _, id := range d.order {
		nd := d.nodes[id]
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.shutdown()
			return RunResult{}, fmt.Errorf("simnet: listen for %s: %w", id, err)
		}
		nd.listener = l
	}
	// Phase 2: dial one outbound connection per directed adjacency. The
	// first byte stream element identifies the dialer.
	for _, id := range d.order {
		nd := d.nodes[id]
		nd.conns = make([]*gob.Encoder, len(nd.neighbors))
		for i, nb := range nd.neighbors {
			peer := d.nodes[nb]
			conn, err := net.Dial("tcp", peer.listener.Addr().String())
			if err != nil {
				d.shutdown()
				return RunResult{}, fmt.Errorf("simnet: dial %s→%s: %w", id, nb, err)
			}
			enc := gob.NewEncoder(conn)
			if err := enc.Encode(id); err != nil {
				d.shutdown()
				return RunResult{}, fmt.Errorf("simnet: handshake %s→%s: %w", id, nb, err)
			}
			nd.conns[i] = enc
			nd.connMu.Lock()
			nd.rawConns = append(nd.rawConns, conn)
			nd.connMu.Unlock()
		}
	}
	d.start = time.Now()
	d.touch()
	// Phase 3: executors, acceptors, handlers.
	for _, id := range d.order {
		nd := d.nodes[id]
		d.wg.Add(1)
		go nd.executor()
		go nd.acceptLoop()
	}
	for _, id := range d.order {
		nd := d.nodes[id]
		d.pending.Add(1)
		nd.exec <- func() {
			defer d.pending.Add(-1)
			nd.handler.Start(nd.env)
		}
	}
	// Phase 4: quiescence detection.
	deadline := time.Now().Add(horizon)
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			d.shutdown()
			return RunResult{Converged: false, Time: time.Since(d.start)}, ctx.Err()
		case <-ticker.C:
		}
		if time.Now().After(deadline) {
			d.shutdown()
			return RunResult{Converged: false, Time: horizon}, nil
		}
		last := time.Duration(d.lastActivity.Load())
		if d.pending.Load() == 0 && time.Since(d.start)-last >= idleWindow {
			d.shutdown()
			return RunResult{Converged: true, Time: last}, nil
		}
	}
}

func (d *Deployment) touch() {
	d.lastActivity.Store(int64(time.Since(d.start)))
}

// shutdown closes sockets and executors.
func (d *Deployment) shutdown() {
	if !d.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, nd := range d.nodes {
		if nd.listener != nil {
			nd.listener.Close()
		}
		nd.connMu.Lock()
		for _, c := range nd.rawConns {
			c.Close()
		}
		nd.connMu.Unlock()
		close(nd.exec)
	}
	d.wg.Wait()
}

// executor runs the node's callbacks single-threaded, preserving the
// protocol-code concurrency model of simulation mode.
func (nd *tcpNode) executor() {
	defer nd.dep.wg.Done()
	for fn := range nd.exec {
		fn()
	}
}

// post schedules fn on the executor, tolerating shutdown races.
func (nd *tcpNode) post(fn func()) {
	defer func() { recover() }() // send on closed channel during shutdown
	nd.exec <- fn
}

// acceptLoop accepts inbound connections and spawns readers.
func (nd *tcpNode) acceptLoop() {
	for {
		conn, err := nd.listener.Accept()
		if err != nil {
			return
		}
		nd.connMu.Lock()
		nd.rawConns = append(nd.rawConns, conn)
		nd.connMu.Unlock()
		go nd.readLoop(conn)
	}
}

// readLoop decodes envelopes from one inbound connection and posts them to
// the executor, from the dialer's position, resolved once from its
// handshake.
func (nd *tcpNode) readLoop(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	var id NodeID
	if err := dec.Decode(&id); err != nil {
		return
	}
	from := slices.Index(nd.neighbors, id)
	if from < 0 {
		return
	}
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		d := nd.dep
		if d.stopped.Load() {
			return
		}
		d.touch()
		payload := env.Payload
		nd.post(func() {
			defer d.pending.Add(-1)
			nd.handler.Receive(nd.env, from, payload)
			d.touch()
		})
	}
}

// tcpEnv implements Env over the deployment runtime.
type tcpEnv struct {
	node *tcpNode
}

func (e *tcpEnv) Self() NodeID       { return e.node.id }
func (e *tcpEnv) Now() time.Duration { return time.Since(e.node.dep.start) }
func (e *tcpEnv) Rand() *rand.Rand   { return e.node.rng }

func (e *tcpEnv) Neighbors() []NodeID { return e.node.neighbors }

func (e *tcpEnv) Send(to int, payload any, size int) {
	nd := e.node
	d := nd.dep
	enc := nd.conns[to]
	d.pending.Add(1)
	d.collector.RecordSend(size, e.Now())
	d.touch()
	if w, ok := payload.(WireFormer); ok {
		payload = w.WireForm()
	}
	if err := enc.Encode(envelope{Payload: payload}); err != nil {
		// Connection torn down during shutdown: drop and rebalance.
		d.pending.Add(-1)
	}
}

func (e *tcpEnv) Schedule(d time.Duration, fn func()) {
	dep := e.node.dep
	nd := e.node
	dep.pending.Add(1)
	time.AfterFunc(d, func() {
		if dep.stopped.Load() {
			dep.pending.Add(-1)
			return
		}
		nd.post(func() {
			defer dep.pending.Add(-1)
			fn()
			dep.touch()
		})
	})
}
