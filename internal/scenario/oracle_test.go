package scenario

import (
	"context"
	"fmt"
	"testing"
	"time"

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

func sortedPair(a, b spp.Node) []spp.Node {
	if b < a {
		a, b = b, a
	}
	return []spp.Node{a, b}
}
