package spp_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/spp/spptest"
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

// TestDiscardedWhatIfCostsItsEdit is the shape guard on the daemon's pure
// query, at the verifier: Begin, a top-two swap ReRank, Verify, Rollback
// allocates at most 12 objects and 1 KiB, the same at internet:5000 as at
// internet:20000 (twins of one shape and reach). The names it touches are
// looked up, not rendered again: before the seam passed ids the same query
// allocated 51 objects and 2 280 B, 38 of them names.
func TestDiscardedWhatIfCostsItsEdit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	if testing.Short() {
		t.Skip("internet:20000 instance")
	}
	ctx := context.Background()
	sizes := [2]int{5000, 20000}
	var reach [2]*spptest.Reach
	for i, n := range sizes {
		reach[i] = spptest.NewReach(internetInstance(n, 1))
	}
	nodes := [2][]spp.Node{}
	nodes[0], nodes[1] = spptest.Twins(reach[0], reach[1], (*spptest.Reach).Swappable)
	if nodes[0] == nil {
		t.Fatal("internet:5000 and internet:20000 share no swappable node of one shape and reach")
	}
	var allocs, bytes [2]float64
	for i, n := range sizes {
		in, node := reach[i].In, nodes[i][0]
		v, err := spp.NewDeltaVerifier(in)
		if err != nil {
			t.Fatal(err)
		}
		if res, _, err := v.Verify(ctx); err != nil || !res.Sat {
			t.Fatalf("internet:%d: sat=%v err=%v", n, res.Sat, err)
		}
		paths := in.Permitted[node]
		swapped := append([]spp.Path{paths[1], paths[0]}, paths[2:]...)
		discard := func() {
			v.Begin()
			if err := v.ReRank(node, swapped...); err != nil {
				t.Fatal(err)
			}
			if res, _, err := v.Verify(ctx); err != nil || !res.Sat {
				t.Fatalf("swap on %s: sat=%v err=%v", node, res.Sat, err)
			}
			v.Rollback()
		}
		discard() // grow the journals and scratch buffers
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[i] = testing.AllocsPerRun(runs, discard)
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("internet:%d, node %s (%d paths): %.1f objects, %.0f B per discarded swap", n, node, len(paths), allocs[i], bytes[i])
		if allocs[i] > 12 || bytes[i] > 1<<10 {
			t.Errorf("internet:%d: %.1f objects and %.0f B per discarded swap, want at most 12 and 1 KiB", n, allocs[i], bytes[i])
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("%.1f objects per discarded swap at internet:5000, %.1f at internet:20000, want equal", allocs[0], allocs[1])
	}
}
