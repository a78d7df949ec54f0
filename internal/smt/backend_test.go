package smt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// unsatChain builds x < y, y < x — unsat with a two-element core.
func unsatChain() []Assertion {
	return []Assertion{
		{Rel: Lt, A: V("x"), B: V("y"), Origin: "first"},
		{Rel: Lt, A: V("y"), B: V("x"), Origin: "second"},
	}
}

// TestBackendsAgree: the native engine and the Reference oracle return
// identical verdicts and cores on sat and unsat inputs, with provenance.
func TestBackendsAgree(t *testing.T) {
	sat := []Assertion{
		{Rel: Lt, A: V("a"), B: V("b"), Origin: "pref"},
		{Rel: Le, A: V("b"), B: V("c"), Origin: "mono"},
	}
	for _, backend := range []Solver{Native{}, Reference{}} {
		res, err := backend.Solve(context.Background(), sat)
		if err != nil || !res.Sat {
			t.Fatalf("%s: sat input: sat=%v err=%v", backend.Name(), res.Sat, err)
		}
		res, err = backend.Solve(context.Background(), unsatChain())
		if err != nil || res.Sat {
			t.Fatalf("%s: unsat input: sat=%v err=%v", backend.Name(), res.Sat, err)
		}
		if len(res.Core) != 2 {
			t.Errorf("%s: core size %d, want 2", backend.Name(), len(res.Core))
		}
		for _, a := range res.Core {
			if a.Origin != "first" && a.Origin != "second" {
				t.Errorf("%s: core lost provenance: %q", backend.Name(), a.Origin)
			}
		}
	}
}

// TestBackendCancellation: a cancelled context aborts both implementations.
func TestBackendCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []Solver{Native{}, Reference{}} {
		if _, err := backend.Solve(ctx, unsatChain()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled solve returned %v, want context.Canceled", backend.Name(), err)
		}
	}
}

// TestEnginePoolIsOneList: an engine released on one goroutine is the one a
// solve on another goroutine takes next, whichever P each ran on, and the
// collector empties the pool of engines nobody takes: after a few
// collections neither list holds one.
func TestEnginePoolIsOneList(t *testing.T) {
	e := newEngine()
	e.release()
	got := make(chan *dlEngine)
	go func() { got <- newEngine() }()
	if g := <-got; g != e {
		t.Fatal("a solve on another goroutine did not take the released engine")
	}
	newEngine().release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		enginePool.Lock()
		held := len(enginePool.free) + len(enginePool.aged)
		enginePool.Unlock()
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the pool still holds %d engines after 5 s of collections", held)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
