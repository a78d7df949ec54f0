package fsr

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/smt"
	"fsr/internal/spp"
)

// requireSessionParity fails unless Session.AnalyzeSPP and the untouched
// oracle — ToAlgebra, analysis.CheckWith, SuspectNodes — both reject the
// instance with the same message, or agree on verdict, model, core (elements
// and positions), constraint counts and suspects. It returns the session's
// result.
func requireSessionParity(t *testing.T, in *spp.Instance) analysis.Result {
	t.Helper()
	ctx := context.Background()
	var (
		want         analysis.Result
		wantSuspects []spp.Node
	)
	conv, wantErr := in.ToAlgebra()
	if wantErr == nil {
		want, wantErr = analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		wantSuspects = conv.SuspectNodes(want.Core)
	}
	got, suspects, err := NewSession().AnalyzeSPP(ctx, in)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, oracle %v", in.Name, err, wantErr)
		}
		return got
	}
	g, w := got, want
	g.Stats, w.Stats = smt.Stats{}, smt.Stats{}
	if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(suspects, wantSuspects) {
		t.Fatalf("%s: diverges from the oracle:\n%+v %v\nvs\n%+v %v", in.Name, g, suspects, w, wantSuspects)
	}
	return got
}

// plantDisagree makes the instance unsafe: the two ends of its first session
// each prefer the route through the other, over the given origin tokens.
func plantDisagree(in *spp.Instance, ta, tb spp.Node) *spp.Instance {
	in.Name += "-unsat"
	a, b := in.Links[0].From, in.Links[0].To
	in.Rank(a, spp.Path{a, b, tb}, spp.Path{a, ta})
	in.Rank(b, spp.Path{b, a, ta}, spp.Path{b, tb})
	return in
}

// TestSessionScalePath: AnalyzeSPP takes the one emitter at every size, and
// nothing observable distinguishes it from the algebra pipeline: every shipped gadget, chains and power-law instances
// from 40 to 700 nodes, safe and with a planted dispute (the core minimised
// on dense ids, its members' provenance and the suspect set).
func TestSessionScalePath(t *testing.T) {
	var instances []*spp.Instance
	for _, name := range append(GadgetNames(), "chain:40", "chain:400", "internet:200", "internet:700:3") {
		for _, plant := range []bool{false, true} {
			in, err := Gadget(name)
			if err != nil {
				t.Fatal(err)
			}
			if plant {
				if !strings.Contains(name, ":") {
					continue
				}
				plantDisagree(in, "rx_a", "rx_b")
			}
			instances = append(instances, in)
		}
	}
	for _, in := range instances {
		if got := requireSessionParity(t, in); got.Sat && got.Stats.Components == 0 {
			t.Fatalf("%s: dense solve not taken (no condensation stats)", in.Name)
		}
	}
}

// collisionInstances are instances whose path renderings sanitize to one
// solver-variable name, where the algebra pipeline appends _2, _3, … in
// global path order: the x.y / x_y pair, a three-way clash, and one where a
// natural name (x_y_2) already equals the suffix a clash would take.
func collisionInstances() []*spp.Instance {
	build := func(name string, tokens ...spp.Node) *spp.Instance {
		in := spp.NewInstance(name)
		nodes := make([]spp.Node, len(tokens))
		for i := range tokens {
			nodes[i] = spp.Node(fmt.Sprintf("n%d", i))
			if i > 0 {
				in.AddSession(nodes[i-1], nodes[i], 0)
			}
		}
		for i, tok := range tokens {
			paths := []spp.Path{{nodes[i], tok}}
			if i > 0 {
				paths = append(paths, spp.Path{nodes[i], nodes[i-1], tokens[i-1]})
			}
			in.Rank(nodes[i], paths...)
		}
		return in
	}
	return []*spp.Instance{
		build("pair", "x.y", "x_y"),
		build("three-way", "x.y", "x_y", "x-y"),
		build("suffix-taken", "x_y_2", "x.y", "x_y", "x-y"),
		plantDisagree(build("pair", "x.y", "x_y"), "x.y", "x_y"),
	}
}

// TestSessionNameCollisions: collision instances through AnalyzeSPP, and through a DeltaVerifier that is edited into and out of
// degraded mode — each answer the oracle's, suffixed names included.
func TestSessionNameCollisions(t *testing.T) {
	ctx := context.Background()
	for _, in := range collisionInstances() {
		requireSessionParity(t, in)
		requireVerifier := func(label string, v *DeltaVerifier, degraded bool) {
			t.Helper()
			if v.Degraded() != degraded {
				t.Fatalf("%s %s: Degraded() = %v, want %v", in.Name, label, v.Degraded(), degraded)
			}
			got, suspects, err := v.Verify(ctx)
			got.Model = v.Model() // Verify leaves the witness to Model
			want, wantSuspects, wantErr := v.VerifyFull(ctx)
			if err != nil || wantErr != nil {
				t.Fatalf("%s %s: errors %v, oracle %v", in.Name, label, err, wantErr)
			}
			if got.Sat != want.Sat || !reflect.DeepEqual(got.Model, want.Model) || !reflect.DeepEqual(got.Core, want.Core) ||
				!reflect.DeepEqual(suspects, wantSuspects) {
				t.Fatalf("%s %s: verifier diverges from VerifyFull:\n%v %v\nvs\n%v %v", in.Name, label, got, suspects, want, wantSuspects)
			}
		}
		v, err := NewSession().OpenDeltaVerifier(in)
		if err != nil {
			t.Fatal(err)
		}
		requireVerifier("loaded", v, true)
		// Retire every clashing token but the first node's: degraded mode
		// must end, and the delta path take over.
		saved := v.Snapshot()
		for i, n := range saved.Nodes[1:] {
			if err := v.ReRank(n, spp.Path{n, spp.Node(fmt.Sprintf("ok%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		requireVerifier("clash edited away", v, false)
		// And back in.
		for _, n := range saved.Nodes[1:] {
			if err := v.ReRank(n, saved.Permitted[n]...); err != nil {
				t.Fatal(err)
			}
		}
		requireVerifier("clash restored", v, true)
	}
	res, _, err := NewSession().AnalyzeSPP(ctx, collisionInstances()[2])
	if err != nil || !res.Sat {
		t.Fatalf("suffix-taken: %v, err %v", res, err)
	}
	for _, name := range []string{"x_y_2", "x_y", "x_y_3", "x_y_4"} {
		if res.Model[name] == 0 {
			t.Fatalf("suffix-taken: model %v lacks %s", res.Model, name)
		}
	}
}

// scalePathCount reads one series of fsr_spp_scale_path_total.
func scalePathCount(path string) float64 {
	return obs.Default().CounterVec("fsr_spp_scale_path_total", "", "path").Value(path)
}

// TestScaleEligibility: the one emitter's output is decided on dense ids —
// a model counted as "dense", a minimal core as "resolve".
func TestScaleEligibility(t *testing.T) {
	ctx := context.Background()
	for in, route := range map[*spp.Instance]string{spp.GoodGadget(): "dense", spp.BadGadget(): "resolve"} {
		before := map[string]float64{}
		for _, r := range []string{"dense", "resolve"} {
			before[r] = scalePathCount(r)
		}
		if _, _, err := NewSession().AnalyzeSPP(ctx, in); err != nil {
			t.Fatal(err)
		}
		for r, n := range before {
			want := n
			if r == route {
				want++
			}
			if got := scalePathCount(r); got != want {
				t.Errorf("%s: route %q counted %v, want %v", in.Name, r, got, want)
			}
		}
	}
}

// TestEmitParseRoundTrip: the §IV-C text loses no constraint and no term.
// For every shipped gadget and two power-law instances, safe and with a
// planted dispute, smt.Parse(smt.Emit(ctx)) gives back the same assertions,
// and checking them gives the original's verdict, model and core positions.
func TestEmitParseRoundTrip(t *testing.T) {
	for _, name := range append(GadgetNames(), "internet:200", "internet:700:3") {
		for _, plant := range []bool{false, true} {
			in, err := Gadget(name)
			if err != nil {
				t.Fatal(err)
			}
			if plant {
				plantDisagree(in, "rx_a", "rx_b")
			}
			conv, err := in.ToAlgebra()
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			cons, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			orig := smt.NewContext()
			for _, c := range cons {
				orig.Assert(c.Assertion)
			}
			parsed, err := smt.Parse(smt.Emit(orig))
			if err != nil {
				t.Fatalf("%s: parse of emitted text: %v", in.Name, err)
			}
			if parsed.Len() != orig.Len() {
				t.Fatalf("%s: emitted %d assertions, parsed %d", in.Name, orig.Len(), parsed.Len())
			}
			back := parsed.Assertions()
			for i, a := range orig.Assertions() {
				a.Origin = "" // provenance travels as a comment, which Parse drops
				if back[i] != a {
					t.Fatalf("%s: assertion %d emitted as %v, parsed back as %v", in.Name, i, a, back[i])
				}
			}
			want, err := orig.Check()
			if err != nil {
				t.Fatal(err)
			}
			got, err := parsed.Check()
			if err != nil {
				t.Fatal(err)
			}
			if got.Sat != want.Sat ||
				!reflect.DeepEqual(got.Model, want.Model) || !reflect.DeepEqual(got.CoreIdx, want.CoreIdx) {
				t.Fatalf("%s: re-parsed check differs from the original: sat %v/%v, core %v/%v, models equal %v",
					in.Name, got.Sat, want.Sat, got.CoreIdx, want.CoreIdx, reflect.DeepEqual(got.Model, want.Model))
			}
		}
	}
}

// TestAnalyzeAllParallelSpeedup asserts the batch fan-out actually scales:
// parallelism=4 must beat serial by >1.5× on the constraint-generation-
// bound batch. Timing-sensitive, so it only runs when FSR_SPEEDUP_TEST is
// set (the CI bench job exports it on a multi-core runner); plain test
// runs and single-core hosts skip.
func TestAnalyzeAllParallelSpeedup(t *testing.T) {
	if os.Getenv("FSR_SPEEDUP_TEST") == "" {
		t.Skip("set FSR_SPEEDUP_TEST=1 to run the timing assertion")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs ≥4 CPUs, have %d", runtime.GOMAXPROCS(0))
	}
	ctx := context.Background()
	batch := analyzeAllBatch(t)
	measure := func(par int) time.Duration {
		sess := NewSession(WithParallelism(par))
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := sess.AnalyzeAll(ctx, batch...); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	measure(1) // warm caches and pools
	serial := measure(1)
	par := measure(4)
	speedup := float64(serial) / float64(par)
	t.Logf("AnalyzeAll batch: serial %v, parallelism=4 %v, speedup %.2fx", serial, par, speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel fan-out speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serial, par)
	}
}

// TestShardedEmissionSpeedup asserts the parallel paths inside an analysis
// pay: spp.Analyze on internet:50000, where every emission pass is above the
// shard floor and the proof pass and naming run beside the solve, must run
// at least 1.1× faster at the machine's GOMAXPROCS than at GOMAXPROCS=1.
// Gated like TestAnalyzeAllParallelSpeedup.
func TestShardedEmissionSpeedup(t *testing.T) {
	if os.Getenv("FSR_SPEEDUP_TEST") == "" {
		t.Skip("set FSR_SPEEDUP_TEST=1 to run the timing assertion")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("needs ≥2 CPUs, have %d", procs)
	}
	ctx := context.Background()
	in := GenerateInternetSPP("internet:50000", 50000, 1)
	measure := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if res, _, err := spp.Analyze(ctx, in); err != nil || !res.Sat {
				t.Fatalf("internet:50000: sat=%v err=%v", res.Sat, err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	measure(1) // warm caches and pools
	serial := measure(1)
	sharded := measure(procs)
	speedup := float64(serial) / float64(sharded)
	t.Logf("spp.Analyze internet:50000: GOMAXPROCS=1 %v, GOMAXPROCS=%d %v, speedup %.2fx", serial, procs, sharded, speedup)
	if speedup < 1.1 {
		t.Fatalf("sharded emission speedup %.2fx < 1.1x (serial %v, sharded %v)", speedup, serial, sharded)
	}
}
