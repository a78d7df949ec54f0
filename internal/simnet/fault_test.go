package simnet

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

// recorder logs its lifecycle and fault callbacks in order.
type recorder struct {
	sendOnStart bool
	log         []string
	got         []string
}

func (h *recorder) Start(env Env) {
	h.log = append(h.log, "start")
	if h.sendOnStart {
		for nb := range env.Neighbors() {
			env.Send(nb, "ping", 100)
		}
	}
}

func (h *recorder) Receive(env Env, from int, payload any) {
	h.got = append(h.got, payload.(string))
	h.log = append(h.log, fmt.Sprintf("recv %s from %s", payload, env.Neighbors()[from]))
}

func (h *recorder) LinkDown(env Env, nb int) {
	h.log = append(h.log, fmt.Sprintf("link-down %s", env.Neighbors()[nb]))
}

func (h *recorder) LinkUp(env Env, nb int) {
	h.log = append(h.log, fmt.Sprintf("link-up %s", env.Neighbors()[nb]))
}

func (h *recorder) Reset() {
	h.log = append(h.log, "reset")
	h.got = nil
}

// pair builds a two-node a–b network with 10 ms latency.
func pair(t *testing.T, a, b Handler) *Network {
	t.Helper()
	net := New(7, nil)
	if err := net.AddNode("a", a); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode("b", b); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect("a", "b", DefaultLink()); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLinkConfigValidate: physically impossible configs are rejected, both
// directly and through Connect.
func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{Latency: -time.Millisecond},
		{Jitter: -time.Millisecond},
		{Bandwidth: -1},
		{Loss: -0.01},
		{Loss: 1.01},
		{Loss: math.NaN()},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	good := []LinkConfig{{}, DefaultLink(), {Loss: 1}, {Loss: 0.5, Latency: time.Millisecond}}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", cfg, err)
		}
	}
	net := New(1, nil)
	net.AddNode("a", &recorder{})
	net.AddNode("b", &recorder{})
	if err := net.Connect("a", "b", LinkConfig{Latency: -1}); err == nil {
		t.Errorf("Connect accepted negative latency")
	}
	if err := net.Connect("a", "a", DefaultLink()); err == nil {
		t.Errorf("Connect accepted self-link")
	}
}

// TestLinkDownDropsSend: a message sent while the link is down is lost and
// counted.
func TestLinkDownDropsSend(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	net := pair(t, a, b)
	if err := net.ScheduleFault(time.Millisecond, FaultEvent{Kind: FaultLinkDown, A: "a", B: "b"}); err != nil {
		t.Fatal(err)
	}
	net.ScheduleCall(2*time.Millisecond, "a", func(env Env) { env.Send(0, "ping", 100) })
	res := net.Run(time.Second)
	if !res.Converged {
		t.Fatalf("should quiesce")
	}
	if res.Dropped != 1 || len(b.got) != 0 {
		t.Errorf("want 1 dropped / 0 delivered, got %d dropped, b.got=%v", res.Dropped, b.got)
	}
	if res.Faults != 1 || res.LastFault != time.Millisecond {
		t.Errorf("fault accounting: %d faults, last at %v", res.Faults, res.LastFault)
	}
	if up, err := net.LinkState("a", "b"); err != nil || up {
		t.Errorf("link should be down (up=%v err=%v)", up, err)
	}
}

// TestLinkDownDropsInFlight: a message already on the wire when the link
// goes down never arrives (epoch mismatch), even after the link recovers.
func TestLinkDownDropsInFlight(t *testing.T) {
	a, b := &recorder{sendOnStart: true}, &recorder{}
	net := pair(t, a, b)
	// Sent at t=0, delivery due ≈10 ms; the link flaps at 5/6 ms.
	net.ScheduleFault(5*time.Millisecond, FaultEvent{Kind: FaultLinkDown, A: "a", B: "b"})
	net.ScheduleFault(6*time.Millisecond, FaultEvent{Kind: FaultLinkUp, A: "a", B: "b"})
	res := net.Run(time.Second)
	if res.Dropped != 1 || len(b.got) != 0 {
		t.Errorf("in-flight message should drop: %d dropped, b.got=%v", res.Dropped, b.got)
	}
	// Both endpoints observed the flap, in order.
	wantB := []string{"start", "link-down a", "link-up a"}
	if fmt.Sprint(b.log) != fmt.Sprint(wantB) {
		t.Errorf("b.log = %v, want %v", b.log, wantB)
	}
	if up, err := net.LinkState("a", "b"); err != nil || !up {
		t.Errorf("link should be back up (up=%v err=%v)", up, err)
	}
}

// TestRestart: the node's state is reset, Start runs again, neighbors see
// the adjacency bounce, and in-flight traffic is voided.
func TestRestart(t *testing.T) {
	a, b := &recorder{sendOnStart: true}, &recorder{}
	net := pair(t, a, b)
	// The start-time ping is in flight (due ≈10 ms) when a restarts at 5 ms;
	// the restarted a re-sends, and only that copy arrives.
	net.ScheduleFault(5*time.Millisecond, FaultEvent{Kind: FaultRestart, A: "a"})
	res := net.Run(time.Second)
	if res.Dropped != 1 {
		t.Errorf("in-flight ping should be voided by the restart, dropped=%d", res.Dropped)
	}
	if len(b.got) != 1 || b.got[0] != "ping" {
		t.Errorf("b should get exactly the re-sent ping, got %v", b.got)
	}
	wantA := []string{"start", "reset", "start"}
	if fmt.Sprint(a.log) != fmt.Sprint(wantA) {
		t.Errorf("a.log = %v, want %v", a.log, wantA)
	}
	wantB := []string{"start", "link-down a", "link-up a", "recv ping from a"}
	if fmt.Sprint(b.log) != fmt.Sprint(wantB) {
		t.Errorf("b.log = %v, want %v", b.log, wantB)
	}
	if res.Faults != 1 {
		t.Errorf("restart should count as one fault, got %d", res.Faults)
	}
}

// TestProbabilisticLoss: Loss=1 drops everything; a fractional loss rate is
// deterministic across identically seeded runs.
func TestProbabilisticLoss(t *testing.T) {
	a := &recorder{sendOnStart: true}
	b := &recorder{}
	net := New(3, nil)
	net.AddNode("a", a)
	net.AddNode("b", b)
	if err := net.Connect("a", "b", LinkConfig{Latency: time.Millisecond, Loss: 1}); err != nil {
		t.Fatal(err)
	}
	res := net.Run(time.Second)
	if res.Dropped != 1 || len(b.got) != 0 {
		t.Errorf("Loss=1 should drop the ping: dropped=%d b.got=%v", res.Dropped, b.got)
	}

	run := func() RunResult {
		net := New(11, nil)
		net.AddNode("a", &recorder{})
		net.AddNode("b", &recorder{})
		net.Connect("a", "b", LinkConfig{Latency: time.Millisecond, Loss: 0.5})
		for i := 0; i < 40; i++ {
			net.ScheduleCall(time.Duration(i)*time.Millisecond, "a",
				func(env Env) { env.Send(0, "ping", 100) })
		}
		return net.Run(time.Second)
	}
	r1, r2 := run(), run()
	if r1.Dropped == 0 || r1.Dropped == 40 {
		t.Errorf("Loss=0.5 over 40 sends should drop some but not all, dropped=%d", r1.Dropped)
	}
	if r1 != r2 {
		t.Errorf("seeded loss runs differ:\n%+v\n%+v", r1, r2)
	}
}

// TestScheduleFaultErrors: bad fault references are rejected up front.
func TestScheduleFaultErrors(t *testing.T) {
	net := pair(t, &recorder{}, &recorder{})
	net.AddNode("c", &recorder{}) // exists but unlinked
	cases := []FaultEvent{
		{Kind: FaultLinkDown, A: "zz", B: "b"},
		{Kind: FaultLinkDown, A: "a", B: "zz"},
		{Kind: FaultLinkDown, A: "a", B: "c"}, // no such link
		{Kind: FaultRestart, A: "zz"},
		{Kind: FaultKind(99), A: "a", B: "b"},
	}
	for _, f := range cases {
		if err := net.ScheduleFault(time.Millisecond, f); err == nil {
			t.Errorf("ScheduleFault accepted %+v", f)
		}
	}
	if err := net.ScheduleFault(-time.Millisecond, FaultEvent{Kind: FaultRestart, A: "a"}); err == nil {
		t.Errorf("ScheduleFault accepted a past instant")
	}
	if err := net.ScheduleCall(time.Millisecond, "zz", func(Env) {}); err == nil {
		t.Errorf("ScheduleCall accepted an unknown node")
	}
}

// TestChurnDeterminism: an identical seed and fault schedule yields a
// bit-identical result, including fault and drop accounting.
func TestChurnDeterminism(t *testing.T) {
	run := func() RunResult {
		net := New(42, nil)
		for _, id := range []NodeID{"a", "b", "c"} {
			net.AddNode(id, &recorder{sendOnStart: true})
		}
		net.Connect("a", "b", LinkConfig{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.1})
		net.Connect("b", "c", LinkConfig{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.1})
		net.ScheduleFault(3*time.Millisecond, FaultEvent{Kind: FaultLinkDown, A: "a", B: "b"})
		net.ScheduleFault(8*time.Millisecond, FaultEvent{Kind: FaultLinkUp, A: "a", B: "b"})
		net.ScheduleFault(9*time.Millisecond, FaultEvent{Kind: FaultRestart, A: "c"})
		return net.Run(time.Second)
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Errorf("churn runs differ:\n%+v\n%+v", r1, r2)
	}
	if r1.Faults != 3 {
		t.Errorf("want 3 faults, got %d", r1.Faults)
	}
}

// tickerHandler sends to every neighbor on a periodic timer forever, so the
// event queue never drains even when link faults kill in-flight traffic.
type tickerHandler struct{}

func (h *tickerHandler) Start(env Env) { h.tick(env) }
func (h *tickerHandler) tick(env Env) {
	for nb := range env.Neighbors() {
		env.Send(nb, "ping", 100)
	}
	env.Schedule(time.Millisecond, func() { h.tick(env) })
}
func (h *tickerHandler) Receive(Env, int, any) {}

// TestCancelDuringChurn exercises RunContext cancellation racing the fault
// machinery under -race: an endless ping-pong with scheduled flaps is
// cancelled from another goroutine mid-run.
func TestCancelDuringChurn(t *testing.T) {
	net := New(5, nil)
	net.AddNode("a", &tickerHandler{})
	net.AddNode("b", &tickerHandler{})
	net.Connect("a", "b", DefaultLink())
	for i := 1; i < 1000; i += 2 {
		net.ScheduleFault(time.Duration(i)*time.Second, FaultEvent{Kind: FaultLinkDown, A: "a", B: "b"})
		net.ScheduleFault(time.Duration(i+1)*time.Second, FaultEvent{Kind: FaultLinkUp, A: "a", B: "b"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan RunResult, 1)
	go func() {
		res, err := net.RunContext(ctx, time.Hour)
		if err != context.Canceled {
			t.Errorf("want context.Canceled, got %v", err)
		}
		done <- res
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	res := <-done
	if res.Converged {
		t.Errorf("cancelled run must not report convergence")
	}
}
