// Differential tests for the §IV-B emitter: its constraint buffers and
// spp.Analyze must be indistinguishable from the ToAlgebra pipeline (the
// oracle, untouched by the emitter) on everything that pipeline decides —
// element-wise constraint buffers, verdicts, models, minimized cores, §VI-B
// suspect sets, and the error text where the instance has no algebra.
//
// External test package: the scenario generators used as a corpus import
// spp, so an internal test file would create an import cycle.
package spp_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// shardCorpus collects the named gadgets and a spread of seeded scenarios
// (both verdicts) for the differential tests.
func shardCorpus(t *testing.T) map[string]*spp.Instance {
	t.Helper()
	corpus := map[string]*spp.Instance{
		"figure3-ibgp":       spp.Figure3IBGP(),
		"figure3-ibgp-fixed": spp.Figure3IBGPFixed(),
		"disagree":           spp.Disagree(),
		"bad-gadget":         spp.BadGadget(),
		"good-gadget":        spp.GoodGadget(),
		"chain-64":           spp.ChainGadget(64),
	}
	for _, kind := range []scenario.Kind{
		scenario.GadgetSplice, scenario.GaoRexford, scenario.IBGP,
		scenario.GaoRexfordInternet, scenario.LexicalProduct,
	} {
		for seed := int64(1); seed <= 6; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			corpus[fmt.Sprintf("%s-%d", kind, seed)] = sc.Instance
		}
	}
	// One mid-size power-law instance, beyond campaign scale but still
	// cheap enough for the classic pipeline to cross-check.
	g := topology.GenerateInternet(42, topology.InternetParams{N: 600})
	corpus["internet-600"] = scenario.InternetSPP("internet-600", g, 3)
	return corpus
}

// TestShardedConstraintsMatchClassic: the sharded generator's buffer is
// element-for-element identical — assertion, origin, kind, provenance —
// to analysis.Constraints over the converted algebra.
func TestShardedConstraintsMatchClassic(t *testing.T) {
	for name, in := range shardCorpus(t) {
		conv, err := in.ToAlgebra()
		if err != nil {
			t.Fatalf("%s: ToAlgebra: %v", name, err)
		}
		want, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
		if err != nil {
			t.Fatalf("%s: Constraints: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			got, ok, err := spp.ShardedConstraints(in, workers)
			if err != nil || !ok {
				t.Fatalf("%s w=%d: sharded gen: ok=%v err=%v", name, workers, ok, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s w=%d: %d constraints, classic %d", name, workers, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s w=%d: constraint %d differs:\n%+v\nvs\n%+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAnalyzeScaleMatchesClassic: the dense fast path reproduces the full
// pipeline's Result (verdict, model, minimized core, core indices, counts)
// and suspect set bit-identically on every corpus instance.
func TestAnalyzeScaleMatchesClassic(t *testing.T) {
	ctx := context.Background()
	for name, in := range shardCorpus(t) {
		conv, err := in.ToAlgebra()
		if err != nil {
			t.Fatalf("%s: ToAlgebra: %v", name, err)
		}
		want, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		if err != nil {
			t.Fatalf("%s: classic check: %v", name, err)
		}
		wantSuspects := conv.SuspectNodes(want.Core)
		for _, workers := range []int{1, 4} {
			got, suspects, ok, err := spp.AnalyzeScale(ctx, in, workers)
			if err != nil || !ok {
				t.Fatalf("%s w=%d: AnalyzeScale: ok=%v err=%v", name, workers, ok, err)
			}
			if got.Sat != want.Sat {
				t.Fatalf("%s w=%d: sat %v, classic %v", name, workers, got.Sat, want.Sat)
			}
			if got.Algebra != want.Algebra || got.Condition != want.Condition {
				t.Fatalf("%s w=%d: identity (%s,%s) vs (%s,%s)", name, workers, got.Algebra, got.Condition, want.Algebra, want.Condition)
			}
			if !reflect.DeepEqual(got.Model, want.Model) {
				t.Fatalf("%s w=%d: model differs:\n%v\nvs\n%v", name, workers, got.Model, want.Model)
			}
			if !reflect.DeepEqual(got.Core, want.Core) {
				t.Fatalf("%s w=%d: core differs:\n%+v\nvs\n%+v", name, workers, got.Core, want.Core)
			}
			if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
				t.Fatalf("%s w=%d: counts (%d,%d) vs (%d,%d)", name, workers,
					got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
			}
			if got.Stats.Variables != want.Stats.Variables || got.Stats.Edges != want.Stats.Edges {
				t.Fatalf("%s w=%d: stats vars/edges (%d,%d) vs (%d,%d)", name, workers,
					got.Stats.Variables, got.Stats.Edges, want.Stats.Variables, want.Stats.Edges)
			}
			if !reflect.DeepEqual(suspects, wantSuspects) {
				t.Fatalf("%s w=%d: suspects %v, classic %v", name, workers, suspects, wantSuspects)
			}
		}
	}
}

// requireOracleParity fails unless spp.Analyze and the algebra pipeline on
// the same solver both reject the instance with the same message, or agree
// on verdict, model, core (elements and positions), counts and suspects.
func requireOracleParity(t *testing.T, in *spp.Instance, solver smt.Solver) {
	t.Helper()
	ctx := context.Background()
	var (
		want        analysis.Result
		wantSuspect []spp.Node
	)
	conv, wantErr := in.ToAlgebra()
	if wantErr == nil {
		want, wantErr = analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, solver)
		wantSuspect = conv.SuspectNodes(want.Core)
	}
	got, suspects, err := spp.Analyze(ctx, in, solver, 2)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s on %s: error %v, oracle %v", in.Name, solver.Name(), err, wantErr)
		}
		return
	}
	got.Stats, want.Stats = smt.Stats{}, smt.Stats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %s: result differs:\n%+v\nvs oracle\n%+v", in.Name, solver.Name(), got, want)
	}
	if !reflect.DeepEqual(suspects, wantSuspect) {
		t.Fatalf("%s on %s: suspects %v, oracle %v", in.Name, solver.Name(), suspects, wantSuspect)
	}
}

// TestShardedFallback: the instances the natural naming does not fit are
// decided by the emitter itself, as the algebra pipeline decides them —
// duplicate renderings, duplicate links and degenerate shapes with
// ToAlgebra's error, sanitization collisions with newSigVars' suffixes.
func TestShardedFallback(t *testing.T) {
	// Two egress nodes ranking the bare origin path produce the same
	// rendering ("r1") for distinct permitted paths.
	dup := spp.NewInstance("dup-rendering")
	dup.AddOrigin("r1")
	dup.AddSession("a", "b", 0)
	dup.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
	dup.Rank("b", spp.Path{"b", "r1"})

	// Sanitization collisions: "x.y" and "x_y" render differently but map
	// to the same solver variable; the second becomes x_y_2.
	san := spp.NewInstance("sanitize-collision")
	san.AddSession("a", "b", 0)
	san.Rank("a", spp.Path{"a", "x.y"}, spp.Path{"a", "b", "x_y"})
	san.Rank("b", spp.Path{"b", "x_y"}, spp.Path{"b", "a", "x.y"})

	// Degenerate: no links at all; links but no permitted paths.
	empty := spp.NewInstance("no-links")
	empty.AddOrigin("r1")
	empty.AddNode("a")
	unranked := spp.NewInstance("no-paths")
	unranked.AddSession("a", "b", 0)

	// The same session twice, and two sessions whose labels concatenate
	// alike (l_ab·c = l_a·bc).
	twice := spp.ChainGadget(3)
	twice.AddSession("n0", "n1", 0)
	glued := spp.ChainGadget(3)
	glued.AddSession("ab", "c", 0)
	glued.AddSession("a", "bc", 0)

	wantErr := map[*spp.Instance]string{
		dup: "duplicate permitted path br1", san: "", empty: "no labels declared",
		unranked: "no signatures declared", twice: "duplicate link n0→n1", glued: "duplicate link a→bc",
	}
	for in, want := range wantErr {
		for _, solver := range []smt.Solver{smt.Native{}, smt.YicesText{}} {
			requireOracleParity(t, in, solver)
		}
		cons, ok, err := spp.ShardedConstraints(in, 2)
		_, _, okScale, errScale := spp.AnalyzeScale(context.Background(), in, 2)
		if ok != (err == nil) || okScale != (errScale == nil) {
			t.Fatalf("%s: ok must mean err == nil: sharded (%v, %v), scale (%v, %v)", in.Name, ok, err, okScale, errScale)
		}
		if want == "" {
			if err != nil || errScale != nil || len(cons) == 0 {
				t.Fatalf("%s: want an analysis, got %d constraints, err %v / %v", in.Name, len(cons), err, errScale)
			}
			continue
		}
		if err == nil || !strings.HasSuffix(err.Error(), want) || errScale == nil || errScale.Error() != err.Error() {
			t.Fatalf("%s: want error ending %q, got sharded %v, scale %v", in.Name, want, err, errScale)
		}
	}
	res, _, err := spp.Analyze(context.Background(), san, smt.Native{}, 2)
	if err != nil || !res.Sat || res.Model["x_y"] == 0 || res.Model["x_y_2"] == 0 {
		t.Fatalf("sanitize-collision: want a model over x_y and x_y_2, got %v (err %v)", res.Model, err)
	}
}

// TestShardedValidation: a structural validation failure comes back from
// the emitter's entry points directly, as the error Validate reports.
func TestShardedValidation(t *testing.T) {
	in := spp.NewInstance("invalid")
	in.AddOrigin("r1")
	in.AddSession("a", "b", 0)
	in.Rank("a", spp.Path{"a", "c", "r1"}) // missing link a→c
	want := in.Validate()
	if want == nil {
		t.Fatal("instance with a missing link validates")
	}
	if _, ok, err := spp.ShardedConstraints(in, 2); ok || err == nil || err.Error() != want.Error() {
		t.Fatalf("ShardedConstraints: ok=%v err=%v, want %v", ok, err, want)
	}
	if _, _, ok, err := spp.AnalyzeScale(context.Background(), in, 2); ok || err == nil || err.Error() != want.Error() {
		t.Fatalf("AnalyzeScale: ok=%v err=%v, want %v", ok, err, want)
	}
	requireOracleParity(t, in, smt.Native{})
}
