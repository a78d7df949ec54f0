package simnet

import (
	"math/rand"
	"testing"
	"time"

	"fsr/internal/trace"
)

// echoHandler replies to every ping with a pong, n times.
type echoHandler struct {
	initiator bool
	remaining int
	got       []string
}

func (h *echoHandler) Start(env Env) {
	if h.initiator {
		for _, nb := range env.Neighbors() {
			env.Send(nb, "ping", 100)
		}
	}
}

func (h *echoHandler) Receive(env Env, from NodeID, payload any) {
	h.got = append(h.got, payload.(string))
	if h.remaining > 0 {
		h.remaining--
		env.Send(from, "pong", 100)
	}
}

func init() { RegisterPayload("") }

// TestDeliveryAndLatency: messages arrive after the configured latency.
func TestDeliveryAndLatency(t *testing.T) {
	net := New(1, nil)
	a := &echoHandler{initiator: true}
	b := &echoHandler{remaining: 1}
	net.AddNode("a", a)
	net.AddNode("b", b)
	net.Connect("a", "b", LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: 100e6})
	res := net.Run(time.Second)
	if !res.Converged {
		t.Fatalf("should quiesce")
	}
	if len(b.got) != 1 || b.got[0] != "ping" {
		t.Errorf("b received %v", b.got)
	}
	if len(a.got) != 1 || a.got[0] != "pong" {
		t.Errorf("a received %v", a.got)
	}
	// One RTT: 2 × (latency + serialization of 100 B at 100 Mbps ≈ 8 µs).
	if res.Time < 20*time.Millisecond || res.Time > 21*time.Millisecond {
		t.Errorf("round trip took %v, want ≈20 ms", res.Time)
	}
}

// sharer sends one pointer payload at start and keeps whatever it receives.
type sharer struct {
	send *[]NodeID
	got  any
}

func (h *sharer) Start(env Env) {
	if h.send != nil {
		env.Send(env.Neighbors()[0], h.send, 8)
	}
}

func (h *sharer) Receive(env Env, from NodeID, payload any) { h.got = payload }

// TestPayloadIsShared pins Env.Send's contract in simulation: the receiver
// gets the very value that was sent — a pointer payload arrives as the same
// pointer, not a copy — which is what lets a protocol send a shared,
// immutable record instead of building a message per neighbour.
func TestPayloadIsShared(t *testing.T) {
	net := New(1, nil)
	payload := &[]NodeID{"a", "b"}
	a, b := &sharer{send: payload}, &sharer{}
	net.AddNode("a", a)
	net.AddNode("b", b)
	net.Connect("a", "b", DefaultLink())
	if res := net.Run(time.Second); !res.Converged || res.Delivered != 1 {
		t.Fatalf("one delivery expected: %+v", res)
	}
	if got, ok := b.got.(*[]NodeID); !ok || got != payload {
		t.Errorf("b received %p (%T), sent %p", b.got, b.got, payload)
	}
}

// TestBandwidthSerialization: a large message takes size*8/bandwidth to
// serialize before the latency applies.
func TestBandwidthSerialization(t *testing.T) {
	net := New(1, nil)
	net.AddNode("a", &echoHandler{initiator: true})
	net.AddNode("b", &echoHandler{})
	// 1 Mbps: 100 bytes take 800 µs.
	net.Connect("a", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 1e6})
	res := net.Run(time.Second)
	want := 800*time.Microsecond + time.Millisecond
	if res.Time != want {
		t.Errorf("delivery at %v, want %v", res.Time, want)
	}
}

// TestHorizonStopsOscillation: a ping-pong pair that never stops runs to
// the horizon and is reported unconverged.
func TestHorizonStopsOscillation(t *testing.T) {
	net := New(1, nil)
	net.AddNode("a", &echoHandler{initiator: true, remaining: 1 << 30})
	net.AddNode("b", &echoHandler{remaining: 1 << 30})
	net.Connect("a", "b", DefaultLink())
	res := net.Run(200 * time.Millisecond)
	if res.Converged {
		t.Fatalf("endless ping-pong should not converge")
	}
	if res.Time != 200*time.Millisecond {
		t.Errorf("should stop at the horizon, got %v", res.Time)
	}
}

// TestDeterminism: identical seeds yield identical runs.
func TestDeterminism(t *testing.T) {
	run := func() RunResult {
		net := New(42, nil)
		net.AddNode("a", &echoHandler{initiator: true})
		net.AddNode("b", &echoHandler{remaining: 3})
		net.Connect("a", "b", LinkConfig{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 1e8})
		return net.Run(time.Second)
	}
	r1, r2 := run(), run()
	if r1.Time != r2.Time || r1.Events != r2.Events {
		t.Errorf("runs differ: %v/%d vs %v/%d", r1.Time, r1.Events, r2.Time, r2.Events)
	}
}

// TestNodeGeneratorsKeepTheirStream: a node's generator is built on its
// first Rand call, but its seed was drawn from the network generator at
// AddNode — so the stream does not depend on who draws first, or on whether
// anyone else draws at all, and it is the stream an eagerly seeded
// generator would have produced.
func TestNodeGeneratorsKeepTheirStream(t *testing.T) {
	net := New(7, nil)
	ids := []NodeID{"a", "b", "c"}
	for _, id := range ids {
		if err := net.AddNode(id, &echoHandler{}); err != nil {
			t.Fatal(err)
		}
	}
	ref := rand.New(rand.NewSource(7))
	want := map[NodeID]int64{}
	for _, id := range ids {
		want[id] = rand.New(rand.NewSource(ref.Int63())).Int63()
	}
	for _, id := range []NodeID{"c", "a"} { // reverse order; b never draws
		if got := net.nodes[id].env.Rand().Int63(); got != want[id] {
			t.Errorf("node %s: first draw %d, want %d", id, got, want[id])
		}
	}
	if net.nodes["b"].rng != nil {
		t.Errorf("node b never drew, yet its generator was built")
	}
	// The network generator itself moved only by the three seeds.
	if got, want := net.rng.Int63(), ref.Int63(); got != want {
		t.Errorf("network generator: next draw %d, want %d", got, want)
	}
}

// TestErrors: duplicate nodes/links and unknown endpoints are rejected.
func TestErrors(t *testing.T) {
	net := New(1, nil)
	if err := net.AddNode("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode("a", &echoHandler{}); err == nil {
		t.Errorf("duplicate node should fail")
	}
	if err := net.Connect("a", "zz", DefaultLink()); err == nil {
		t.Errorf("unknown endpoint should fail")
	}
	net.AddNode("b", &echoHandler{})
	if err := net.Connect("a", "b", DefaultLink()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect("a", "b", DefaultLink()); err == nil {
		t.Errorf("duplicate link should fail")
	}
}

// TestCollectorAccounting: traffic lands in the collector.
func TestCollectorAccounting(t *testing.T) {
	col := trace.NewCollector(10 * time.Millisecond)
	net := New(1, col)
	net.AddNode("a", &echoHandler{initiator: true})
	net.AddNode("b", &echoHandler{remaining: 1})
	net.Connect("a", "b", DefaultLink())
	net.Run(time.Second)
	msgs, bytes := col.Totals()
	if msgs != 2 || bytes != 200 {
		t.Errorf("want 2 messages / 200 bytes, got %d / %d", msgs, bytes)
	}
}

// TestSchedule: timers fire in order at the requested offsets.
type timerHandler struct {
	fired []time.Duration
}

func (h *timerHandler) Start(env Env) {
	env.Schedule(30*time.Millisecond, func() { h.fired = append(h.fired, env.Now()) })
	env.Schedule(10*time.Millisecond, func() { h.fired = append(h.fired, env.Now()) })
}
func (h *timerHandler) Receive(Env, NodeID, any) {}

func TestSchedule(t *testing.T) {
	net := New(1, nil)
	h := &timerHandler{}
	net.AddNode("a", h)
	net.Run(time.Second)
	if len(h.fired) != 2 || h.fired[0] != 10*time.Millisecond || h.fired[1] != 30*time.Millisecond {
		t.Errorf("timers fired at %v", h.fired)
	}
}

// TestDeploymentEcho: the TCP runtime delivers the same protocol semantics.
func TestDeploymentEcho(t *testing.T) {
	col := trace.NewCollector(10 * time.Millisecond)
	dep := NewDeployment(col)
	a := &echoHandler{initiator: true}
	b := &echoHandler{remaining: 2}
	if err := dep.AddNode("a", a); err != nil {
		t.Fatal(err)
	}
	if err := dep.AddNode("b", b); err != nil {
		t.Fatal(err)
	}
	if err := dep.Connect("a", "b"); err != nil {
		t.Fatal(err)
	}
	res, err := dep.Run(5*time.Second, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("deployment should quiesce")
	}
	if len(b.got) != 1 || len(a.got) != 1 {
		t.Errorf("echo exchange incomplete: a=%v b=%v", a.got, b.got)
	}
	msgs, _ := col.Totals()
	if msgs != 2 {
		t.Errorf("want 2 messages accounted, got %d", msgs)
	}
}
