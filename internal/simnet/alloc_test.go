package simnet

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// bouncer returns every received payload to its sender until its budget is
// exhausted, allocating nothing itself.
type bouncer struct{ remaining int }

func (b *bouncer) Start(env Env) {}
func (b *bouncer) Receive(env Env, from int, payload any) {
	if b.remaining > 0 {
		b.remaining--
		env.Send(from, payload, 64)
	}
}

// TestSimulationAllocationBudget pins the event hot path to its allocation
// budget: once the arena, heap, and collector are warm, a 1000-event
// exchange must run allocation-free (the budget of 8 covers incidental
// growth only). This is the regression guard for the value-based event
// arena — a per-event closure or heap pointer would blow it immediately.
func TestSimulationAllocationBudget(t *testing.T) {
	ha, hb := &bouncer{}, &bouncer{}
	net := New(1, nil)
	if err := net.AddNode("a", ha); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode("b", hb); err != nil {
		t.Fatal(err)
	}
	// Ideal link: zero latency keeps virtual time pinned, so the collector's
	// time buckets don't grow across runs and the measurement isolates the
	// scheduler itself.
	if err := net.Connect("a", "b", LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	payload := &struct{ n int }{42}
	na := net.nodes["a"]
	kick := func() { na.env.Send(0, payload, 64) }
	ctx := context.Background()
	const bounces = 1000
	run := func() {
		ha.remaining, hb.remaining = bounces/2, bounces/2
		net.scheduleTimer(net.now, kick)
		res, err := net.resume(ctx, net.now+time.Hour)
		if err != nil || !res.Converged {
			t.Fatalf("run: converged=%v err=%v", res.Converged, err)
		}
	}
	run() // warm the arena, heap, and collector
	if got := testing.AllocsPerRun(5, run); got > 8 {
		t.Errorf("1000-event run allocates %.1f objects, budget is 8", got)
	}
	// The arena must not retain payloads or closures after the events fire
	// (the slice-retention leak of the old pointer heap). They live in the
	// payload array beside the pointer-free keys.
	for i := range net.carries {
		if net.carries[i].payload != nil || net.carries[i].fn != nil {
			t.Fatalf("arena slot %d retains payload/closure after processing", i)
		}
	}
}

// TestEventKeyHoldsNoPointer: the arena's key type is plain memory, so
// copying events in and out of it needs no GC write barrier; payloads and
// closures live in the carry array beside it.
func TestEventKeyHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("event.%s is a %s; the arena key must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestDeterminismWithArena re-checks byte-for-byte reproducibility across
// two networks driven identically: the index-heap scheduler must order
// equal-time events by sequence exactly as the old pointer heap did.
func TestDeterminismWithArena(t *testing.T) {
	runOnce := func() (time.Duration, int64) {
		ha, hb := &bouncer{remaining: 50}, &bouncer{remaining: 50}
		net := New(7, nil)
		_ = net.AddNode("a", ha)
		_ = net.AddNode("b", hb)
		_ = net.Connect("a", "b", LinkConfig{Latency: 3 * time.Millisecond, Jitter: time.Millisecond, Bandwidth: 1e6})
		na := net.nodes["a"]
		net.scheduleTimer(0, func() { na.env.Send(0, 1, 100) })
		res := net.Run(time.Minute)
		return res.Time, res.Delivered
	}
	t1, d1 := runOnce()
	t2, d2 := runOnce()
	if t1 != t2 || d1 != d2 {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", t1, d1, t2, d2)
	}
	if d1 != 101 {
		t.Fatalf("want 101 deliveries, got %d", d1)
	}
}
