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
	"maps"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/obs"
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
		got, ok, err := spp.ShardedConstraints(in, 0)
		if err != nil || !ok {
			t.Fatalf("%s: sharded gen: ok=%v err=%v", name, ok, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d constraints, classic %d", name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: constraint %d differs:\n%+v\nvs\n%+v", name, i, got[i], want[i])
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
		got, suspects, ok, err := spp.AnalyzeScale(ctx, in, 0)
		if err != nil || !ok {
			t.Fatalf("%s: AnalyzeScale: ok=%v err=%v", name, ok, err)
		}
		if got.Sat != want.Sat {
			t.Fatalf("%s: sat %v, classic %v", name, got.Sat, want.Sat)
		}
		if got.Algebra != want.Algebra || got.Condition != want.Condition {
			t.Fatalf("%s: identity (%s,%s) vs (%s,%s)", name, got.Algebra, got.Condition, want.Algebra, want.Condition)
		}
		if !reflect.DeepEqual(got.Model, want.Model) {
			t.Fatalf("%s: model differs:\n%v\nvs\n%v", name, got.Model, want.Model)
		}
		if !reflect.DeepEqual(got.Core, want.Core) {
			t.Fatalf("%s: core differs:\n%+v\nvs\n%+v", name, got.Core, want.Core)
		}
		if got.NumPreference != want.NumPreference || got.NumMonotonicity != want.NumMonotonicity {
			t.Fatalf("%s: counts (%d,%d) vs (%d,%d)", name,
				got.NumPreference, got.NumMonotonicity, want.NumPreference, want.NumMonotonicity)
		}
		if got.Stats.Variables != want.Stats.Variables || got.Stats.Edges != want.Stats.Edges {
			t.Fatalf("%s: stats vars/edges (%d,%d) vs (%d,%d)", name,
				got.Stats.Variables, got.Stats.Edges, want.Stats.Variables, want.Stats.Edges)
		}
		if !reflect.DeepEqual(suspects, wantSuspects) {
			t.Fatalf("%s: suspects %v, classic %v", name, suspects, wantSuspects)
		}
	}
}

// TestShardsMatchOneShard: above the shard floor the emitter forks, and
// nothing it produces may depend on that. At GOMAXPROCS=4 every pass over
// internet:12000 runs as two or more shards; the provenance buffer (element
// for element) and Analyze's answers, safe and with a planted pair, must be
// the ones GOMAXPROCS=1 gives.
func TestShardsMatchOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("n=12000 instance")
	}
	ctx := context.Background()
	safe := internetInstance(12000, 1)
	unsafe := safe.Clone()
	plantPair(unsafe, unsafe.Links[0].From, unsafe.Links[0].To, "rx_a", "rx_b")
	type answers struct {
		cons     []analysis.Constraint
		res      [2]analysis.Result
		suspects [2][]spp.Node
	}
	at := func(procs int) (a answers) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var err error
		if a.cons, _, err = spp.ShardedConstraints(safe, 0); err != nil {
			t.Fatal(err)
		}
		for i, in := range []*spp.Instance{safe, unsafe} {
			if a.res[i], a.suspects[i], err = spp.Analyze(ctx, in); err != nil {
				t.Fatal(err)
			}
			a.res[i].Stats.Duration, a.res[i].Stats.TarjanDuration = 0, 0
		}
		return a
	}
	one, four := at(1), at(4)
	if len(one.cons) != len(four.cons) || !one.res[0].Sat || one.res[1].Sat {
		t.Fatalf("one shard: %d constraints, sat %v/%v; four: %d constraints", len(one.cons), one.res[0].Sat, one.res[1].Sat, len(four.cons))
	}
	for i := range one.cons {
		if !reflect.DeepEqual(one.cons[i], four.cons[i]) {
			t.Fatalf("constraint %d: %+v at GOMAXPROCS=1, %+v at 4", i, one.cons[i], four.cons[i])
		}
	}
	for i := range one.res {
		if !reflect.DeepEqual(one.res[i], four.res[i]) || !reflect.DeepEqual(one.suspects[i], four.suspects[i]) {
			t.Fatalf("analysis %d differs:\n%+v %v\nvs\n%+v %v", i, one.res[i], one.suspects[i], four.res[i], four.suspects[i])
		}
	}
}

// TestPooledAnalysesAnswerLikeFresh: Analyze borrows its scratch from a pool,
// and no answer may depend on which analysis used the scratch last, nor keep
// a piece of it. Four goroutines interleave, for three rounds, analyses that
// take different shard counts and routes — internet:12000 safe and planted
// (several shards at GOMAXPROCS ≥ 2), chain:40 and Figure 3 (one shard), the
// duplicate-rendering and sanitize-collision fallbacks, a structurally
// invalid instance — and every answer must be the one computed before the
// loop at GOMAXPROCS=1. The round-1 answers must also still equal deep copies
// taken when they returned, which fails if a result aliases pooled memory a
// later analysis overwrote.
func TestPooledAnalysesAnswerLikeFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("n=12000 instance")
	}
	ctx := context.Background()
	safe := internetInstance(12000, 1)
	unsafe := safe.Clone()
	unsafe.Name += "-planted"
	plantPair(unsafe, unsafe.Links[0].From, unsafe.Links[0].To, "rx_a", "rx_b")
	dup := spp.NewInstance("dup-rendering")
	dup.AddOrigin("r1")
	dup.AddSession("a", "b", 0)
	dup.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
	dup.Rank("b", spp.Path{"b", "r1"})
	san := spp.NewInstance("sanitize-collision")
	san.AddSession("a", "b", 0)
	san.Rank("a", spp.Path{"a", "x.y"}, spp.Path{"a", "b", "x_y"})
	san.Rank("b", spp.Path{"b", "x_y"}, spp.Path{"b", "a", "x.y"})
	invalid := spp.NewInstance("invalid")
	invalid.AddOrigin("r1")
	invalid.AddSession("a", "b", 0)
	invalid.Rank("a", spp.Path{"a", "c", "r1"}) // missing link a→c
	mix := []*spp.Instance{safe, unsafe, spp.ChainGadget(40), spp.Figure3IBGP(), dup, san, invalid}

	type answer struct {
		res      analysis.Result
		suspects []spp.Node
		err      string
	}
	analyze := func(in *spp.Instance) answer {
		res, suspects, err := spp.Analyze(ctx, in)
		a := answer{res: res, suspects: suspects}
		if err != nil {
			a.err = err.Error()
		}
		a.res.Stats.Duration, a.res.Stats.TarjanDuration = 0, 0
		return a
	}
	deepCopy := func(a answer) answer {
		a.res.Model = maps.Clone(a.res.Model)
		a.res.Core = slices.Clone(a.res.Core)
		a.res.CoreIdx = slices.Clone(a.res.CoreIdx)
		a.suspects = slices.Clone(a.suspects)
		return a
	}
	want := make([]answer, len(mix))
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i, in := range mix {
			want[i] = analyze(in)
		}
	}()
	if !want[0].res.Sat || want[1].res.Sat || len(want[1].suspects) != 2 || want[4].err == "" || want[5].err != "" || want[6].err == "" {
		t.Fatalf("reference answers: safe %v, planted %v %v, errors %q %q %q",
			want[0].res.Sat, want[1].res.Sat, want[1].suspects, want[4].err, want[5].err, want[6].err)
	}

	const workers, rounds = 4, 3
	first := make([][]answer, workers)  // round-1 answers as returned
	copies := make([][]answer, workers) // and as they were then
	for round := range rounds {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]answer, len(mix))
				for k := range mix {
					i := (w + k) % len(mix) // each worker starts elsewhere in the mix
					got[i] = analyze(mix[i])
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("round %d, worker %d: %s answers\n%+v\nwant\n%+v", round+1, w, mix[i].Name, got[i], want[i])
					}
				}
				if round == 0 {
					first[w] = got
					copies[w] = make([]answer, len(got))
					for i := range got {
						copies[w][i] = deepCopy(got[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	for w := range first {
		for i := range mix {
			if !reflect.DeepEqual(first[w][i], copies[w][i]) {
				t.Errorf("worker %d: the round-1 answer for %s changed after later analyses:\n%+v\nwas\n%+v", w, mix[i].Name, first[w][i], copies[w][i])
			}
		}
	}
}

// requireOracleParity fails unless spp.Analyze and the algebra pipeline both
// reject the instance with the same message, or agree on verdict, model, core
// (elements and positions), counts and suspects.
func requireOracleParity(t *testing.T, in *spp.Instance) {
	t.Helper()
	ctx := context.Background()
	var (
		want        analysis.Result
		wantSuspect []spp.Node
	)
	conv, wantErr := in.ToAlgebra()
	if wantErr == nil {
		want, wantErr = analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		wantSuspect = conv.SuspectNodes(want.Core)
	}
	got, suspects, err := spp.Analyze(ctx, in)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, oracle %v", in.Name, err, wantErr)
		}
		return
	}
	got.Stats, want.Stats = smt.Stats{}, smt.Stats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs:\n%+v\nvs oracle\n%+v", in.Name, got, want)
	}
	if !reflect.DeepEqual(suspects, wantSuspect) {
		t.Fatalf("%s: suspects %v, oracle %v", in.Name, suspects, wantSuspect)
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
		requireOracleParity(t, in)
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
	res, _, err := spp.Analyze(context.Background(), san)
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
	requireOracleParity(t, in)
}

// internetInstance is the internet:n power-law instance at a topology seed.
func internetInstance(n int, seed int64) *spp.Instance {
	g := topology.GenerateInternet(seed, topology.InternetParams{N: n})
	return scenario.InternetSPP(fmt.Sprintf("internet-%d-%d", n, seed), g, 3)
}

// plantPair plants the two-node DISAGREE cycle on the session a–b: each end
// prefers the route through the other over its own token.
func plantPair(in *spp.Instance, a, b, ta, tb spp.Node) {
	in.Rank(a, spp.Path{a, b, tb}, spp.Path{a, ta})
	in.Rank(b, spp.Path{b, a, ta}, spp.Path{b, tb})
}

// multiCycleInstances are unsat instances with more than one negative cycle,
// where the deletion loop has witnesses to choose between — what the
// benchmark's single planted pair cannot exercise.
func multiCycleInstances(t *testing.T, seed int64) map[string]*spp.Instance {
	t.Helper()
	out := map[string]*spp.Instance{}
	tok := func(n spp.Node) spp.Node { return "rx_" + n }

	// (a) Three disjoint pairs, spread over the link list.
	in := internetInstance(700, seed)
	used := map[spp.Node]bool{}
	planted := 0
	for _, from := range []int{0, len(in.Links) / 3, 2 * len(in.Links) / 3} {
		for _, l := range in.Links[from:] {
			if !used[l.From] && !used[l.To] {
				used[l.From], used[l.To] = true, true
				plantPair(in, l.From, l.To, tok(l.From), tok(l.To))
				planted++
				break
			}
		}
	}
	if planted != 3 {
		t.Fatalf("seed %d: planted %d of 3 disjoint pairs", seed, planted)
	}
	out["three-pairs"] = in

	// (b) Two pairs sharing the node b: a–b and b–c, both through b's one
	// ranking, so the two cycles share a preference constraint.
	in = internetInstance(700, seed)
	shared := false
	for _, l := range in.Links {
		b, a := l.From, l.To
		for _, l2 := range in.Links {
			if c := l2.To; l2.From == b && c != a {
				in.Rank(a, spp.Path{a, b, tok(b)}, spp.Path{a, tok(a)})
				in.Rank(c, spp.Path{c, b, tok(b)}, spp.Path{c, tok(c)})
				in.Rank(b, spp.Path{b, a, tok(a)}, spp.Path{b, c, tok(c)}, spp.Path{b, tok(b)})
				shared = true
				break
			}
		}
		if shared {
			break
		}
	}
	if !shared {
		t.Fatalf("seed %d: no node with two sessions", seed)
	}
	out["shared-node"] = in

	// (c) A three-node BAD GADGET spliced onto the first session's tail,
	// next to a pair planted on the middle session.
	in = internetInstance(700, seed)
	g := []spp.Node{"g1", "g2", "g3"}
	in.AddSession(g[0], in.Links[0].From, 0)
	for i, n := range g {
		next := g[(i+1)%3]
		in.AddSession(n, next, 0)
		in.Rank(n, spp.Path{n, next, tok(next)}, spp.Path{n, tok(n)})
	}
	mid := in.Links[len(in.Links)/2]
	plantPair(in, mid.From, mid.To, tok(mid.From), tok(mid.To))
	out["bad-gadget"] = in

	// (d) A pair whose tokens sanitize to one solver variable: the core is
	// reported under the suffixed names.
	in = internetInstance(700, seed)
	plantPair(in, in.Links[0].From, in.Links[0].To, "x.y", "x_y")
	out["collision"] = in
	return out
}

// TestUnsatCoresMatchOracle: on instances with several negative cycles the
// dense minimization reports the untouched oracle's answer element for
// element — core constraints (origin, kind, provenance), positions, counts,
// suspects and the interned graph size.
func TestUnsatCoresMatchOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		for name, in := range multiCycleInstances(t, seed) {
			conv, err := in.ToAlgebra()
			if err != nil {
				t.Fatalf("%s seed %d: ToAlgebra: %v", name, seed, err)
			}
			want, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
			if err != nil || want.Sat {
				t.Fatalf("%s seed %d: oracle sat=%v err=%v, want unsat", name, seed, want.Sat, err)
			}
			wantSuspects := conv.SuspectNodes(want.Core)
			if name == "collision" {
				suffixed := false
				for _, c := range want.Core {
					suffixed = suffixed || strings.HasSuffix(string(c.Assertion.A.Var), "_2") || strings.HasSuffix(string(c.Assertion.B.Var), "_2")
				}
				if !suffixed {
					t.Fatalf("collision seed %d: no suffixed name in the oracle's core %v", seed, want.Core)
				}
			}
			got, suspects, err := spp.Analyze(ctx, in)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got.Stats.Variables != want.Stats.Variables || got.Stats.Edges != want.Stats.Edges {
				t.Fatalf("%s seed %d: stats vars/edges (%d,%d), oracle (%d,%d)", name, seed,
					got.Stats.Variables, got.Stats.Edges, want.Stats.Variables, want.Stats.Edges)
			}
			if got.Stats.Components == 0 || got.Stats.Levels == 0 || got.Stats.Probes < 3 {
				t.Fatalf("%s seed %d: condensation or probe stats missing: %+v", name, seed, got.Stats)
			}
			g, w := got, want
			g.Stats, w.Stats = smt.Stats{}, smt.Stats{}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s seed %d: result differs:\n%+v\nvs oracle\n%+v", name, seed, g, w)
			}
			if !reflect.DeepEqual(suspects, wantSuspects) {
				t.Fatalf("%s seed %d: suspects %v, oracle %v", name, seed, suspects, wantSuspects)
			}
		}
	}
}

// spanNames flattens a span forest into name → attrs of the last such span.
func spanNames(nodes []*obs.SpanNode, into map[string]map[string]string) map[string]map[string]string {
	for _, n := range nodes {
		into[n.Name] = n.Attrs
		spanNames(n.Children, into)
	}
	return into
}

// TestUnsafeCostsWhatSafeCosts is the structural guard on the unsat leg: an
// unsafe analysis allocates about as often as its safe twin (the parent of
// this guard rendered every signature and provenance constraint, ~11× the
// allocations at n=50000), never reaches the provenance emitter, and shows
// up in the span tree as minimize — as a string-door unsat solve does. Both
// legs show the answer's rendering as a materialize span: model entries when
// safe, core members when not.
func TestUnsafeCostsWhatSafeCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5000 instance")
	}
	ctx := context.Background()
	safe := internetInstance(5000, 1)
	unsafe := safe.Clone()
	a, b := unsafe.Links[0].From, unsafe.Links[0].To
	plantPair(unsafe, a, b, "rx_a", "rx_b")

	allocs := func(in *spp.Instance, wantSat bool) float64 {
		return testing.AllocsPerRun(3, func() {
			res, _, err := spp.Analyze(ctx, in)
			if err != nil || res.Sat != wantSat {
				t.Fatalf("%s: sat=%v err=%v", in.Name, res.Sat, err)
			}
		})
	}
	emit := obs.Default().HistogramVec("fsr_spp_shard_emit_seconds", "", "stage")
	routes := obs.Default().CounterVec("fsr_spp_scale_path_total", "", "path")
	stages := []string{"syms", "pref", "mono"}
	before := map[string]uint64{}
	for _, s := range stages {
		before[s] = emit.Count(s)
	}
	resolve := routes.Value("resolve")

	safeAllocs, unsafeAllocs := allocs(safe, true), allocs(unsafe, false)
	t.Logf("allocations per analysis at n=5000: safe %.0f, unsafe %.0f (%.2f×)", safeAllocs, unsafeAllocs, unsafeAllocs/safeAllocs)
	if unsafeAllocs > 1.25*safeAllocs {
		t.Fatalf("unsafe analysis allocates %.0f times, safe twin %.0f: more than 1.25×", unsafeAllocs, safeAllocs)
	}

	tr := obs.NewTracer()
	res, suspects, err := spp.Analyze(obs.WithTracer(ctx, tr), unsafe)
	pair := []spp.Node{a, b}
	slices.Sort(pair)
	if err != nil || res.Sat || len(res.Core) != 4 || !reflect.DeepEqual(suspects, pair) {
		t.Fatalf("planted pair: sat=%v core=%d suspects=%v err=%v", res.Sat, len(res.Core), suspects, err)
	}
	for _, s := range stages {
		if got := emit.Count(s); got != before[s] {
			t.Errorf("provenance emitter stage %q ran %d times on the dense route", s, got-before[s])
		}
	}
	if got := routes.Value("resolve") - resolve; got != 5 { // 1 warm-up + 3 measured + 1 traced
		t.Errorf("resolve route counted %v unsat analyses, want 5", got)
	}
	spans := spanNames(tr.SpanTree(), map[string]map[string]string{})
	md, ok := spans["minimize"]
	if !ok || md["core"] != "4" || md["probes"] != fmt.Sprint(res.Stats.Probes) {
		t.Errorf("minimize span %v (present=%v), want core=4 probes=%d", md, ok, res.Stats.Probes)
	}
	if mat, ok := spans["materialize"]; !ok || mat["core"] != "4" {
		t.Errorf("unsafe leg: materialize span %v (present=%v), want core=4", mat, ok)
	}
	tr = obs.NewTracer()
	if res, _, err = spp.Analyze(obs.WithTracer(ctx, tr), safe); err != nil || !res.Sat {
		t.Fatalf("safe twin: sat=%v err=%v", res.Sat, err)
	}
	mat, ok := spanNames(tr.SpanTree(), map[string]map[string]string{})["materialize"]
	if !ok || mat["entries"] != fmt.Sprint(len(res.Model)) {
		t.Errorf("safe leg: materialize span %v (present=%v), want entries=%d", mat, ok, len(res.Model))
	}
	tr = obs.NewTracer()
	sres, err := smt.Native{}.Solve(obs.WithTracer(ctx, tr), []smt.Assertion{
		{Rel: smt.Lt, A: smt.V("x"), B: smt.V("y")}, {Rel: smt.Lt, A: smt.V("y"), B: smt.V("x")}})
	md, ok = spanNames(tr.SpanTree(), map[string]map[string]string{})["minimize"]
	if err != nil || !ok || md["core"] != "2" || md["probes"] != fmt.Sprint(sres.Stats.Probes) {
		t.Errorf("string door: minimize span %v (present=%v, err=%v), want core=2 probes=%d", md, ok, err, sres.Stats.Probes)
	}
}

// TestAnalysisAllocatesItsAnswer is the counter-based guard on an analysis's
// scratch. After one warm-up, the bytes an Analyze of internet:12000
// allocates are its answer's — model map and variable names when safe, core
// and suspects when not — and the solver's: the emitter's node map, offsets,
// match list, validity bitmap, duplicate screen and dense constraints are
// borrowed from its pool. The parent of this guard allocated 6.11 MB safe and
// 6.45 MB planted per analysis here (TotalAlloc over 5 runs, GOMAXPROCS=1);
// each leg may take at most 40 % of that.
func TestAnalysisAllocatesItsAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("n=12000 instance")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	// One P: sync.Pool keeps what is put back on a P private to that P, so
	// with more, a Get on another P could miss the warm scratch. Two
	// collections empty the pools of what earlier tests left there, and none
	// runs during the count, which would charge a fresh scratch to it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	safe := internetInstance(12000, 1)
	unsafe := safe.Clone()
	plantPair(unsafe, unsafe.Links[0].From, unsafe.Links[0].To, "rx_a", "rx_b")
	perAnalysis := func(in *spp.Instance, wantSat bool) float64 {
		analyze := func() {
			if res, _, err := spp.Analyze(ctx, in); err != nil || res.Sat != wantSat {
				t.Fatalf("%s: sat=%v err=%v", in.Name, res.Sat, err)
			}
		}
		analyze()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			analyze()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 5
	}
	for _, leg := range []struct {
		name   string
		in     *spp.Instance
		sat    bool
		parent float64
	}{{"safe", safe, true, 6.11e6}, {"planted", unsafe, false, 6.45e6}} {
		got := perAnalysis(leg.in, leg.sat)
		t.Logf("%s: %.2f MB per analysis, %.0f %% of the parent's %.2f MB", leg.name, got/1e6, 100*got/leg.parent, leg.parent/1e6)
		if got > 0.4*leg.parent {
			t.Errorf("%s: an analysis allocates %.2f MB, more than 40 %% of the parent's %.2f MB", leg.name, got/1e6, leg.parent/1e6)
		}
	}
}

// hubInstance is one node ranking a path through each of k neighbours —
// a k-path preference chain beside k two-node monotonicity links — plus a
// DISAGREE pair on a session of its own. Built with direct appends: AddNode
// scans.
func hubInstance(k int) (in *spp.Instance, pair []spp.Node) {
	in = spp.NewInstance(fmt.Sprintf("hub-%d", k))
	in.Nodes = append(in.Nodes, "h")
	ranking := make([]spp.Path, k)
	for i := range ranking {
		n, d := spp.Node(fmt.Sprintf("n%d", i)), spp.Node(fmt.Sprintf("r%d", i))
		in.Nodes = append(in.Nodes, n)
		in.Origins = append(in.Origins, d)
		in.Links = append(in.Links, spp.Link{From: "h", To: n}, spp.Link{From: n, To: "h"})
		in.Permitted[n] = []spp.Path{{n, d}}
		ranking[i] = spp.Path{"h", n, d}
	}
	in.Permitted["h"] = ranking
	in.Nodes = append(in.Nodes, "p", "q")
	in.Origins = append(in.Origins, "rx_p", "rx_q")
	in.Links = append(in.Links, spp.Link{From: "p", To: "q"}, spp.Link{From: "q", To: "p"})
	in.Permitted["p"] = []spp.Path{{"p", "q", "rx_q"}, {"p", "rx_p"}}
	in.Permitted["q"] = []spp.Path{{"q", "p", "rx_p"}, {"q", "rx_q"}}
	return in, []spp.Node{"p", "q"}
}

// TestUnsatProbesStayInTheDispute is the structural guard on the unsat leg:
// naming a 4-constraint dispute beside a 4000-path ranking costs the
// dispute, on every door — the dense one, the string one and the resident
// verifier's. (Whole-graph probes read 64 M relaxations here: each of the
// minimization's re-solves paid for the hub's chain again.) At hub-150 the
// answer is the oracle's, element for element. At hub-4000 the algebra
// pipeline is out of reach — Builder.Chain holds a ranking's 8 M ordered
// pairs, smt.Reference's deletion loop re-solves 12 000 times — so
// Reference judges the answer instead: the core is unsatisfiable and the
// emitted system without any one member of it is not, which makes it the
// only minimal core there is.
func TestUnsatProbesStayInTheDispute(t *testing.T) {
	ctx := context.Background()
	doors := func(t *testing.T, in *spp.Instance, check func(door string, got analysis.Result, suspects []spp.Node)) {
		t.Helper()
		analyses := map[string]func() (analysis.Result, []spp.Node, error){
			"analyze": func() (analysis.Result, []spp.Node, error) { return spp.Analyze(ctx, in) },
			"delta-verifier": func() (analysis.Result, []spp.Node, error) {
				v, err := spp.NewDeltaVerifier(in)
				if err != nil {
					return analysis.Result{}, nil, err
				}
				return v.Verify(ctx)
			},
		}
		for door, analyze := range analyses {
			got, suspects, err := analyze()
			if err != nil || got.Sat || len(got.Core) != 4 {
				t.Fatalf("%s: sat=%v core=%v err=%v", door, got.Sat, got.Core, err)
			}
			if got.Stats.Relaxations > 1000 || got.Stats.Probes < 3 {
				t.Errorf("%s: %d relaxations over %d probes, want ≤ 1000 over ≥ 3", door, got.Stats.Relaxations, got.Stats.Probes)
			}
			check(door, got, suspects)
		}
	}

	t.Run("oracle/hub-150", func(t *testing.T) {
		in, pair := hubInstance(150)
		conv, err := in.ToAlgebra()
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Reference{})
		if err != nil || want.Sat || !reflect.DeepEqual(conv.SuspectNodes(want.Core), pair) {
			t.Fatalf("oracle: sat=%v suspects=%v err=%v", want.Sat, conv.SuspectNodes(want.Core), err)
		}
		doors(t, in, func(door string, got analysis.Result, suspects []spp.Node) {
			got.Stats = want.Stats
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(suspects, pair) {
				t.Errorf("%s: result differs (suspects %v):\n%+v\nvs oracle\n%+v", door, suspects, got, want)
			}
		})
	})

	t.Run("cost/hub-4000", func(t *testing.T) {
		in, pair := hubInstance(4000)
		cons, _, err := spp.ShardedConstraints(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		var coreIdx []int
		doors(t, in, func(door string, got analysis.Result, suspects []spp.Node) {
			for k, i := range got.CoreIdx {
				if !reflect.DeepEqual(got.Core[k], cons[i]) {
					t.Errorf("%s: core[%d] = %v, emitted constraint %d is %v", door, k, got.Core[k], i, cons[i])
				}
			}
			if !reflect.DeepEqual(suspects, pair) {
				t.Errorf("%s: suspects %v, want %v", door, suspects, pair)
			}
			if coreIdx == nil {
				coreIdx = got.CoreIdx
			} else if !reflect.DeepEqual(got.CoreIdx, coreIdx) {
				t.Errorf("%s: core at %v, the first door's at %v", door, got.CoreIdx, coreIdx)
			}
		})
		asserts := make([]smt.Assertion, len(cons))
		for i := range cons {
			asserts[i] = cons[i].Assertion
		}
		core := make([]smt.Assertion, len(coreIdx))
		for k, i := range coreIdx {
			core[k] = asserts[i]
		}
		if res, err := (smt.Reference{}).Solve(ctx, core); err != nil || res.Sat || len(res.Core) != len(core) {
			t.Fatalf("reference on the core alone: sat=%v core=%d err=%v", res.Sat, len(res.Core), err)
		}
		for _, i := range coreIdx {
			if res, err := (smt.Reference{}).Solve(ctx, slices.Delete(slices.Clone(asserts), i, i+1)); err != nil || !res.Sat {
				t.Fatalf("reference without core member %d: sat=%v err=%v, want sat", i, res.Sat, err)
			}
		}
	})
}

// TestValidatorFallbackCostIsThePaths: re-ranking one mid-graph node strips
// the ranked suffix off the paths routed through it, so extension
// propagation cannot prove them and the per-path validator runs. Its answer
// is Validate's and the oracle's, and what it allocates is set by those few
// paths: the same edit on a topology four times the size allocates no more
// (it used to build a set of every link).
func TestValidatorFallbackCostIsThePaths(t *testing.T) {
	fallback := map[int]float64{}
	for _, n := range []int{2000, 8000} {
		in := internetInstance(n, 1)
		through := map[spp.Node]int{}
		for _, nd := range in.Nodes {
			for _, q := range in.Permitted[nd] {
				for _, hop := range q[1 : len(q)-1] {
					through[hop]++
				}
			}
		}
		var m spp.Node
		for _, nd := range in.Nodes[n/2:] {
			if through[nd] == 3 {
				m = nd
				break
			}
		}
		if m == "" {
			t.Fatalf("internet:%d: no mid-graph node with three paths through it", n)
		}
		edited := in.Clone()
		edited.Name += "-reranked"
		edited.Rank(m, spp.Path{m, "rx"})
		if err := edited.Validate(); err != nil {
			t.Fatalf("internet:%d: edited instance: %v", n, err)
		}
		if n == 2000 {
			requireOracleParity(t, edited)
			// And an unproven path that is wrong: the validator's error,
			// first in (node, rank) order, is Validate's.
			broken := edited.Clone()
			for _, nd := range broken.Nodes {
				if q := broken.Permitted[nd]; len(q) > 0 && len(q[0]) > 3 && q[0][1] == m {
					bad := slices.Clone(q[0])
					bad[2] = "nowhere"
					broken.Permitted[nd] = append([]spp.Path{bad}, q[1:]...)
					break
				}
			}
			want := broken.Validate()
			if _, _, err := spp.Analyze(context.Background(), broken); want == nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("broken unproven path: Analyze %v, Validate %v", err, want)
			}
		}
		count := func(in *spp.Instance) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := spp.PrepAllocProbe(in); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The edit drops m's ranked paths (one interned variable each) and
		// adds one; the rest of the difference is the fallback.
		dropped := float64(len(in.Permitted[m]) - 1)
		fallback[n] = count(edited) - count(in) + dropped
		t.Logf("internet:%d (%d links): %s re-ranked, fallback allocations %.0f", n, len(in.Links), m, fallback[n])
	}
	if fallback[2000] <= 0 {
		t.Fatalf("fallback did not run: %v", fallback)
	}
	if fallback[8000] > fallback[2000]+4 {
		t.Fatalf("fallback allocations grow with the topology: %.0f at n=2000, %.0f at n=8000", fallback[2000], fallback[8000])
	}
}
