package spp_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fsr/internal/scenario"
	"fsr/internal/spp"
)

// TestDeltaTransactionsGenerated runs the random-transaction driver of
// TestDeltaTransactions over the scenario generators' instances: Gao-Rexford
// policies and iBGP route-reflection configurations, with and without the
// violations the generators inject, plus spliced gadget cores. (External
// test package: the generators import spp.)
func TestDeltaTransactionsGenerated(t *testing.T) {
	rolledBack := 0
	for _, kind := range []scenario.Kind{scenario.GaoRexford, scenario.IBGP, scenario.GadgetSplice} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s-%d", kind, seed), func(t *testing.T) {
				sc, err := scenario.Generate(kind, seed)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				r, _, _ := spp.DriveTransactions(t, sc.Instance, seed, 12)
				rolledBack += r
			})
		}
	}
	if rolledBack == 0 {
		t.Fatal("no transaction was rolled back")
	}
}

// TestDiscardedWhatIfsLeaveNoResidue: a query must not grow the resident
// verifier. 5 000 rolled-back re-ranks on internet:2000, each onto a path
// over an origin token nobody has seen — a new origin declaration, a new
// solver variable, new entries in every name table while it is applied —
// leave the origin list, the solver's variable count and the live heap
// where they were, and the verifier still answers what VerifyFull answers.
func TestDiscardedWhatIfsLeaveNoResidue(t *testing.T) {
	ctx := context.Background()
	in := internetInstance(2000, 1)
	v, err := spp.NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	var ranked []spp.Node
	for _, n := range in.Nodes {
		if len(in.Permitted[n]) >= 2 {
			ranked = append(ranked, n)
		}
	}
	// variables is the solver's variable count as a committed swap (and its
	// inverse) on the first ranked node sees it: both are delta solves.
	variables := func() int {
		t.Helper()
		paths := in.Permitted[ranked[0]]
		var vars int
		for _, order := range [][]spp.Path{append([]spp.Path{paths[1], paths[0]}, paths[2:]...), paths} {
			if err := v.ReRank(ranked[0], order...); err != nil {
				t.Fatal(err)
			}
			res, _, err := v.Verify(ctx)
			if err != nil || !res.Sat {
				t.Fatalf("swap on %s: sat=%v err=%v", ranked[0], res.Sat, err)
			}
			vars = res.Stats.Variables
		}
		return vars
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	if res, _, err := v.Verify(ctx); err != nil || !res.Sat {
		t.Fatalf("internet:2000: sat=%v err=%v", res.Sat, err)
	}
	discard := func(i int) {
		n := ranked[i%len(ranked)]
		token := spp.Node(fmt.Sprintf("rx_never_%d", i))
		v.Begin()
		if err := v.ReRank(n, append([]spp.Path{{n, token}}, in.Permitted[n]...)...); err != nil {
			t.Fatal(err)
		}
		res, _, err := v.Verify(ctx)
		if err != nil || !res.Sat {
			t.Fatalf("what-if %d on %s: sat=%v err=%v", i, n, res.Sat, err)
		}
		v.Rollback()
	}
	discard(0) // grow the journal's own buffers before the baseline
	origins, vars, heap := len(v.Snapshot().Origins), variables(), liveHeap()
	for i := 1; i <= 5000; i++ {
		discard(i)
	}
	if got := len(v.Snapshot().Origins); got != origins {
		t.Errorf("%d origin tokens after 5000 discarded what-ifs, %d before", got, origins)
	}
	if got := variables(); got != vars {
		t.Errorf("%d solver variables after 5000 discarded what-ifs, %d before", got, vars)
	}
	if got := liveHeap(); float64(got) > 1.05*float64(heap) {
		t.Errorf("live heap %d B after 5000 discarded what-ifs, %d B before (+%.1f%%)", got, heap, 100*(float64(got)/float64(heap)-1))
	}

	spp.RequireVerifyParity(t, "after the what-ifs", v)
}
