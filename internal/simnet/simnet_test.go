package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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
		for nb := range env.Neighbors() {
			env.Send(nb, "ping", 100)
		}
	}
}

func (h *echoHandler) Receive(env Env, from int, payload any) {
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
		env.Send(0, h.send, 8)
	}
}

func (h *sharer) Receive(env Env, from int, payload any) { h.got = payload }

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
func (h *timerHandler) Receive(Env, int, any) {}

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

// namer sends its own name to every neighbour at start and checks that
// each receive's from is the sender's position in Neighbors().
type namer struct {
	got, wrong []string
}

func (h *namer) Start(env Env) {
	for nb := range env.Neighbors() {
		env.Send(nb, string(env.Self()), 8)
	}
}

func (h *namer) Receive(env Env, from int, payload any) {
	h.got = append(h.got, payload.(string))
	if nbrs := env.Neighbors(); from < 0 || from >= len(nbrs) || string(nbrs[from]) != payload {
		h.wrong = append(h.wrong, fmt.Sprintf("%s from position %d of %v", payload, from, nbrs))
	}
}

// TestReceiveFromIsThePosition: on both platforms a handler is told who
// sent a message by the sender's position in its Neighbors(), on a graph
// where the positions differ from node to node.
func TestReceiveFromIsThePosition(t *testing.T) {
	ids := []NodeID{"a", "b", "c", "d"}
	links := [][2]NodeID{{"a", "b"}, {"c", "a"}, {"b", "c"}, {"d", "b"}, {"a", "d"}}
	degree := map[NodeID]int{}
	for _, l := range links {
		degree[l[0]]++
		degree[l[1]]++
	}
	check := func(t *testing.T, hs map[NodeID]*namer) {
		for _, id := range ids {
			h := hs[id]
			if len(h.got) != degree[id] || len(h.wrong) != 0 {
				t.Errorf("%s: received %v (degree %d); misaddressed: %v", id, h.got, degree[id], h.wrong)
			}
		}
	}
	t.Run("simnet", func(t *testing.T) {
		net := New(3, nil)
		hs := map[NodeID]*namer{}
		for _, id := range ids {
			hs[id] = &namer{}
			net.AddNode(id, hs[id])
		}
		for _, l := range links {
			if err := net.Connect(l[0], l[1], DefaultLink()); err != nil {
				t.Fatal(err)
			}
		}
		if res := net.Run(time.Second); !res.Converged {
			t.Fatalf("should quiesce")
		}
		check(t, hs)
	})
	t.Run("tcp", func(t *testing.T) {
		dep := NewDeployment(nil)
		hs := map[NodeID]*namer{}
		for _, id := range ids {
			hs[id] = &namer{}
			dep.AddNode(id, hs[id])
		}
		for _, l := range links {
			if err := dep.Connect(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := dep.Run(5*time.Second, 100*time.Millisecond)
		if err != nil || !res.Converged {
			t.Fatalf("deployment should quiesce: %+v, %v", res, err)
		}
		check(t, hs)
	})
}

// chatter answers every message to its sender and to its next neighbour
// while its budget lasts, with varying sizes, and records each send into
// its own collector through RecordSend. cancel, when set, is called at the
// cancelAt-th receive.
type chatter struct {
	remaining, received, cancelAt int
	cancel                        func()
	ref                           *trace.Collector
}

func (h *chatter) send(env Env, to, size int) {
	env.Send(to, "m", size)
	h.ref.RecordSend(size, env.Now())
}

func (h *chatter) Start(env Env) {
	for nb := range env.Neighbors() {
		h.send(env, nb, 100+nb)
	}
}

func (h *chatter) Receive(env Env, from int, payload any) {
	h.received++
	if h.cancel != nil && h.received == h.cancelAt {
		h.cancel()
	}
	if h.remaining > 0 {
		h.remaining--
		h.send(env, from, 40+h.remaining%200)
		h.send(env, (from+1)%len(env.Neighbors()), 1000+h.remaining%3000)
	}
}

// TestCollectorParity: a simulated run counts its sends into its own tally
// and merges it into the Collector when the event loop returns — so
// whether the run drained, stopped at the horizon or was cancelled, the
// Collector's totals and bandwidth series equal the sends the handlers
// recorded, lossy links and jitter included.
func TestCollectorParity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		budget   int
		cancelAt int
		wantErr  bool
		wantConv bool
	}{
		{name: "drained", budget: 40, wantConv: true},
		{name: "horizon", budget: 1 << 30},
		{name: "cancelled", budget: 1 << 30, cancelAt: 20, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const horizon = 400 * time.Millisecond
			col, ref := trace.NewCollector(10*time.Millisecond), trace.NewCollector(10*time.Millisecond)
			net := New(5, col)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ids := []NodeID{"a", "b", "c"}
			for _, id := range ids {
				h := &chatter{remaining: tc.budget, ref: ref}
				if tc.cancelAt > 0 {
					h.cancel, h.cancelAt = cancel, tc.cancelAt
				}
				net.AddNode(id, h)
			}
			link := LinkConfig{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 1e6, Loss: 0.1}
			for i, a := range ids {
				if err := net.Connect(a, ids[(i+1)%len(ids)], link); err != nil {
					t.Fatal(err)
				}
			}
			res, err := net.RunContext(ctx, horizon)
			if (err != nil) != tc.wantErr || res.Converged != tc.wantConv {
				t.Fatalf("converged=%v err=%v; want converged=%v, error=%v", res.Converged, err, tc.wantConv, tc.wantErr)
			}
			if stopped := res.Time == horizon; stopped != (tc.name == "horizon") {
				t.Fatalf("stopped at %v (horizon %v)", res.Time, horizon)
			}
			gotMsgs, gotBytes := col.Totals()
			wantMsgs, wantBytes := ref.Totals()
			if wantMsgs == 0 || gotMsgs != wantMsgs || gotBytes != wantBytes {
				t.Errorf("collector %d messages / %d bytes, handlers sent %d / %d", gotMsgs, gotBytes, wantMsgs, wantBytes)
			}
			for _, upTo := range []time.Duration{0, horizon} {
				got, want := col.BandwidthSeries(len(ids), upTo), ref.BandwidthSeries(len(ids), upTo)
				if !slices.Equal(got, want) {
					t.Errorf("bandwidth series up to %v: collector %v, handlers %v", upTo, got, want)
				}
			}
		})
	}
}
