package scenario

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsr/internal/obs"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// TestVerifyFullN5000 puts the full-pipeline oracle to work at the size the
// daemon actually holds: on internet:5000, safe and then with a planted
// DISAGREE pair over fresh origin tokens, the delta path must reproduce
// VerifyFull's verdict, model, core and suspects. The oracle's two runs
// get a 5 s budget: they take ~0.2 s, and one quadratic layer anywhere in
// Validate, ToAlgebra or ConcatTable takes tens of seconds at this size.
func TestVerifyFullN5000(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5000 instance")
	}
	g := topology.GenerateInternet(1, topology.InternetParams{N: 5000})
	in := InternetSPP("internet:5000", g, 3)
	v, err := spp.NewDeltaVerifier(in)
	if err != nil {
		t.Fatalf("NewDeltaVerifier: %v", err)
	}
	requireDeltaParity(t, "safe", v)

	// The first session whose two ends both hold a ranking.
	var a, b spp.Node
	for _, l := range in.Links {
		if len(in.Permitted[l.From]) > 0 && len(in.Permitted[l.To]) > 0 {
			a, b = l.From, l.To
			break
		}
	}
	if err := v.ReRank(a, spp.Path{a, b, "rx_b"}, spp.Path{a, "rx_a"}); err != nil {
		t.Fatalf("rerank %s: %v", a, err)
	}
	if err := v.ReRank(b, spp.Path{b, a, "rx_a"}, spp.Path{b, "rx_b"}); err != nil {
		t.Fatalf("rerank %s: %v", b, err)
	}
	requireDeltaParity(t, "planted disagree", v)
	res, suspects, err := v.Verify(context.Background())
	if err != nil || res.Sat || len(res.Core) != 4 || fmt.Sprint(suspects) != fmt.Sprint(sortedPair(a, b)) {
		t.Fatalf("planted pair %s↔%s: sat=%v core=%d suspects=%v err=%v", a, b, res.Sat, len(res.Core), suspects, err)
	}

	start := time.Now()
	for i := 0; i < 2; i++ {
		if _, _, err := v.VerifyFull(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("two VerifyFull runs at n=5000 took %v, budget 5s", d)
	} else {
		t.Logf("two VerifyFull runs at n=5000: %v", d)
	}
}

// TestDegradedVerifyStaysOffTheAlgebra: one sanitization collision on a
// resident n=5000 instance degrades the verifier, and every Verify from then
// on is a from-scratch analysis. It must be the emitter's (counted on
// fsr_spp_scale_path_total), not a compiled algebra's, answer the oracle's
// with the suffixed names, and hand back to the delta path once an edit
// removes the clash.
func TestDegradedVerifyStaysOffTheAlgebra(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5000 instance")
	}
	g := topology.GenerateInternet(1, topology.InternetParams{N: 5000})
	in := InternetSPP("internet:5000", g, 3)
	v, err := spp.NewDeltaVerifier(in)
	if err != nil {
		t.Fatalf("NewDeltaVerifier: %v", err)
	}
	a, b := in.Links[0].From, in.Links[0].To
	original := in.Permitted[a]
	if err := v.ReRank(a, spp.Path{a, "x.y"}); err != nil {
		t.Fatal(err)
	}
	if err := v.ReRank(b, spp.Path{b, "x_y"}, spp.Path{b, a, "x.y"}); err != nil {
		t.Fatal(err)
	}
	if !v.Degraded() {
		t.Fatal("x.y beside x_y did not degrade the verifier")
	}
	routes := obs.Default().CounterVec("fsr_spp_scale_path_total", "", "path")
	dense, solves := routes.Value("dense"), v.DeltaStats().Checks
	requireDeltaParity(t, "degraded", v)
	res, _, err := v.Verify(context.Background())
	if model := v.Model(); err != nil || !res.Sat || model["x_y"] == 0 || model["x_y_2"] == 0 {
		t.Fatalf("degraded verify: sat=%v x_y=%d x_y_2=%d err=%v", res.Sat, model["x_y"], model["x_y_2"], err)
	}
	if got := routes.Value("dense") - dense; got != 2 {
		t.Fatalf("two degraded verifies took the emitter's dense route %v times", got)
	}
	if got := v.DeltaStats().Checks; got != solves {
		t.Fatalf("degraded verifies reached the delta context (%d → %d checks)", solves, got)
	}
	if err := v.ReRank(a, original...); err != nil {
		t.Fatal(err)
	}
	if v.Degraded() {
		t.Fatal("removing x.y did not end degraded mode")
	}
	requireDeltaParity(t, "recovered", v)
	if got := routes.Value("dense") - dense; got != 2 {
		t.Fatalf("recovered verify still analysed from scratch (%v dense routes)", got)
	}
}

func sortedPair(a, b spp.Node) []spp.Node {
	if b < a {
		a, b = b, a
	}
	return []spp.Node{a, b}
}
