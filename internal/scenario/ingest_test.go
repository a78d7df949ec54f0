// Ingestion tests: DecodeInstance (the InstanceJSON front end of the one
// wire-form builder) and Instance.Validate against the slice-scanning
// implementations they replaced (kept here as the oracle), the
// FuzzDecodeInstance target — decode, then Session.AnalyzeSPP against the
// algebra pipeline — and the growth-rate guard that keeps first contact
// linear in the instance. The byte reader the daemon's upload path runs has
// its own differential tests in read_test.go.
//
// External test package so the fuzz target can drive fsr.Session, the
// public entry point an upload ends at.
package scenario_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fsr"
	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// naiveValidate is Instance.Validate as it stood before the hash index:
// one slice scan per membership question. Rankings are visited in the
// documented order (Nodes, then undeclared owners by name) so the first
// error is comparable.
func naiveValidate(in *spp.Instance) error {
	isReal := func(n spp.Node) bool { return slices.Contains(in.Nodes, n) }
	check := func(n spp.Node) error {
		for _, p := range in.Permitted[n] {
			if len(p) < 2 {
				return fmt.Errorf("spp %s: node %s: path %q too short", in.Name, n, p)
			}
			if p.Owner() != n {
				return fmt.Errorf("spp %s: node %s: path %s not owned by node", in.Name, n, p)
			}
			if !slices.Contains(in.Origins, p[len(p)-1]) {
				return fmt.Errorf("spp %s: node %s: path %s does not end in an origin token", in.Name, n, p)
			}
			for i := 0; i+2 < len(p); i++ {
				if !in.HasLink(p[i], p[i+1]) {
					return fmt.Errorf("spp %s: node %s: path %s uses missing link %s→%s", in.Name, n, p, p[i], p[i+1])
				}
			}
			for i := 1; i+1 < len(p); i++ {
				if !isReal(p[i]) {
					return fmt.Errorf("spp %s: node %s: path %s crosses undeclared node %s", in.Name, n, p, p[i])
				}
			}
		}
		return nil
	}
	for _, n := range in.Nodes {
		if err := check(n); err != nil {
			return err
		}
	}
	var undeclared []string
	for n := range in.Permitted {
		if !isReal(n) {
			undeclared = append(undeclared, string(n))
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("spp %s: ranking for undeclared node %s", in.Name, undeclared[0])
	}
	return nil
}

// naiveDecode is the wire form's rules written the slow way: the instance
// assembled through the scanning AddNode/AddSession/Rank mutators,
// unvalidated. Every node of the built instance is ranked — a node declared
// only through a session keeps its ranking — and a ranking keyed by anything
// else lands in Permitted as it is, for Validate to report.
func naiveDecode(j scenario.InstanceJSON) *spp.Instance {
	in := spp.NewInstance(j.Name)
	for _, n := range j.Nodes {
		in.AddNode(spp.Node(n))
	}
	for _, s := range j.Sessions {
		in.AddSession(spp.Node(s.A), spp.Node(s.B), s.Cost)
	}
	split := func(ranked []string) []spp.Path {
		var paths []spp.Path
		for _, ps := range ranked {
			parts := strings.Split(ps, ",")
			p := make(spp.Path, len(parts))
			for i, e := range parts {
				p[i] = spp.Node(e)
			}
			paths = append(paths, p)
		}
		return paths
	}
	for _, n := range slices.Clone(in.Nodes) {
		if paths := split(j.Rank[string(n)]); len(paths) > 0 {
			in.Rank(n, paths...)
		}
	}
	for key, ranked := range j.Rank {
		if !slices.Contains(in.Nodes, spp.Node(key)) {
			in.Permitted[spp.Node(key)] = split(ranked)
		}
	}
	if len(j.Origins) > 0 {
		in.Origins = in.Origins[:0]
		for _, o := range j.Origins {
			in.Origins = append(in.Origins, spp.Node(o))
		}
	}
	return in
}

func errText(err error) string {
	if err == nil {
		return "<accepted>"
	}
	return err.Error()
}

// requireIngestParity decodes the wire form both ways and fails unless the
// two agree on accept/reject, on the error message, and — when accepted —
// on the instance itself.
func requireIngestParity(t *testing.T, label string, j scenario.InstanceJSON) *spp.Instance {
	t.Helper()
	want := naiveDecode(j)
	wantErr := naiveValidate(want)
	if got := want.Validate(); errText(got) != errText(wantErr) {
		t.Fatalf("%s: Validate: %s, naive oracle: %s", label, errText(got), errText(wantErr))
	}
	got, gotErr := scenario.DecodeInstance(j)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: DecodeInstance: %s, naive oracle: %s", label, errText(gotErr), errText(wantErr))
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded instance differs from the naive build:\n%+v\nvs\n%+v", label, got, want)
	}
	return got
}

// malformedInstances breaks a small valid instance once per structural
// check, plus pairs of faults whose report order the old map-ranging
// Validate left to chance.
func malformedInstances() map[string]*spp.Instance {
	base := func(name string) *spp.Instance {
		in := spp.NewInstance(name)
		in.AddOrigin("r1")
		in.AddSession("a", "b", 0)
		in.AddSession("b", "c", 0)
		in.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
		in.Rank("b", spp.Path{"b", "r1"})
		in.Rank("c", spp.Path{"c", "b", "r1"})
		return in
	}
	out := map[string]*spp.Instance{"valid": base("valid")}
	add := func(name string, breakIt func(in *spp.Instance)) {
		in := base(name)
		breakIt(in)
		out[name] = in
	}
	add("missing-link", func(in *spp.Instance) { in.Rank("a", spp.Path{"a", "c", "r1"}) }) // shard_test's
	add("too-short", func(in *spp.Instance) { in.Permitted["b"] = []spp.Path{{"b"}} })
	add("empty-path", func(in *spp.Instance) { in.Permitted["b"] = []spp.Path{{}} })
	add("not-owned", func(in *spp.Instance) { in.Permitted["a"] = []spp.Path{{"b", "r1"}} })
	add("no-origin", func(in *spp.Instance) { in.Permitted["a"] = []spp.Path{{"a", "b"}} })
	add("undeclared-hop", func(in *spp.Instance) {
		in.Links = append(in.Links, spp.Link{From: "a", To: "z"}, spp.Link{From: "z", To: "b"})
		in.Permitted["a"] = []spp.Path{{"a", "z", "b", "r1"}}
	})
	add("undeclared-owner", func(in *spp.Instance) { in.Permitted["z"] = []spp.Path{{"z", "r1"}} })
	add("undeclared-owner-no-paths", func(in *spp.Instance) { in.Permitted["z"] = nil })
	add("two-undeclared-owners", func(in *spp.Instance) {
		in.Permitted["z2"] = []spp.Path{{"z2", "r1"}}
		in.Permitted["z1"] = []spp.Path{{"z1", "r1"}}
	})
	add("two-bad-paths", func(in *spp.Instance) {
		in.Permitted["c"] = []spp.Path{{"c", "a", "r1"}}
		in.Permitted["a"] = []spp.Path{{"a", "r9"}}
	})
	add("bad-path-and-undeclared-owner", func(in *spp.Instance) {
		in.Permitted["b"] = []spp.Path{{"b", "a"}}
		in.Permitted["0"] = []spp.Path{{"0", "r1"}}
	})
	add("duplicate-node", func(in *spp.Instance) { in.Nodes = append(in.Nodes, "a") })
	return out
}

// requireAnalysisParity runs the instance through Session.AnalyzeSPP — the
// one §IV-B emitter — and through the algebra pipeline, and fails unless
// both reject it with the same message or agree on verdict, model, core
// (elements and positions), counts and suspects. A deadline on either side
// settles nothing and is let through.
func requireAnalysisParity(t *testing.T, label string, in *spp.Instance) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var (
		want         analysis.Result
		wantSuspects []spp.Node
	)
	conv, wantErr := in.ToAlgebra()
	if wantErr == nil {
		want, wantErr = analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		wantSuspects = conv.SuspectNodes(want.Core)
	}
	got, suspects, err := fsr.NewSession().AnalyzeSPP(ctx, in)
	if ctx.Err() != nil {
		return
	}
	if err != nil || wantErr != nil {
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s: AnalyzeSPP: %s, algebra pipeline: %s", label, errText(err), errText(wantErr))
		}
		return
	}
	got.Stats, want.Stats = smt.Stats{}, smt.Stats{}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(suspects, wantSuspects) {
		t.Fatalf("%s: AnalyzeSPP diverges from the algebra pipeline:\n%+v %v\nvs\n%+v %v", label, got, suspects, want, wantSuspects)
	}
}

// TestMalformedInstancesRejectedAlike: on every malformed instance the
// emitter's error is, word for word, the one Validate reports — an invalid
// upload is validated once and that verdict is the answer.
func TestMalformedInstancesRejectedAlike(t *testing.T) {
	for name, in := range malformedInstances() {
		requireAnalysisParity(t, name, in)
		want := in.Validate()
		if want == nil {
			continue
		}
		if _, _, err := fsr.NewSession().AnalyzeSPP(context.Background(), in); errText(err) != errText(want) {
			t.Fatalf("%s: AnalyzeSPP: %s, Validate: %s", name, errText(err), errText(want))
		}
		if _, _, ok, err := spp.AnalyzeScale(context.Background(), in, 2); ok || errText(err) != errText(want) {
			t.Fatalf("%s: AnalyzeScale: ok=%v %s, Validate: %s", name, ok, errText(err), errText(want))
		}
	}
}

// TestValidateMatchesNaive: the set-backed validator and the scanning
// oracle agree — accept/reject and message — on every gadget and generator
// instance and on every malformed one, and the answer is the same on every
// call (the old validator ranged over the Permitted map).
func TestValidateMatchesNaive(t *testing.T) {
	corpus := malformedInstances()
	for name, ctor := range map[string]func() *spp.Instance{
		"fig3": spp.Figure3IBGP, "fig3-fixed": spp.Figure3IBGPFixed, "disagree": spp.Disagree,
		"badgadget": spp.BadGadget, "goodgadget": spp.GoodGadget,
		"chain-64": func() *spp.Instance { return spp.ChainGadget(64) },
	} {
		corpus[name] = ctor()
	}
	for _, kind := range scenario.Kinds() {
		for seed := int64(1); seed <= 4; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			corpus[fmt.Sprintf("%s-%d", kind, seed)] = sc.Instance
		}
	}
	for name, in := range corpus {
		want := errText(naiveValidate(in))
		for call := 0; call < 8; call++ {
			if got := errText(in.Validate()); got != want {
				t.Fatalf("%s (call %d): Validate: %s, naive oracle: %s", name, call, got, want)
			}
		}
		requireIngestParity(t, name, scenario.EncodeInstance(in))
	}
	if err := corpus["two-undeclared-owners"].Validate(); err == nil || !strings.HasSuffix(err.Error(), "undeclared node z1") {
		t.Fatalf("undeclared owners must be reported in name order, got %v", err)
	}
	if err := corpus["bad-path-and-undeclared-owner"].Validate(); err == nil || !strings.Contains(err.Error(), "node b:") {
		t.Fatalf("declared nodes must be checked before undeclared owners, got %v", err)
	}
}

// fuzzSeeds are wire forms worth starting from: valid gadgets, and one
// fault per validation branch and per DecodeInstance dedup rule.
func fuzzSeeds() [][]byte {
	var out [][]byte
	for _, in := range []*spp.Instance{spp.Figure3IBGP(), spp.Disagree(), spp.ChainGadget(5)} {
		data, _ := json.Marshal(scenario.EncodeInstance(in))
		out = append(out, data)
	}
	for _, s := range []string{
		`{}`,
		`{"name":"dup","nodes":["a","a","b"],"sessions":[{"a":"a","b":"b"},{"a":"a","b":"b"}],"rank":{"a":["a,r1","a,b,r1"],"b":["b,r1"]}}`,
		`{"name":"origins","nodes":["a"],"origins":["r2","r2"],"sessions":[{"a":"a","b":"c","cost":3}],"rank":{"a":["a,r1"]}}`,
		`{"name":"short","nodes":["a","b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a"],"b":[""]}}`,
		`{"name":"hop","nodes":["a","b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,c,r1"],"b":["b,a,b,r1","a,r1"]}}`,
		`{"name":"selfloop","nodes":["a"],"sessions":[{"a":"a","b":"a"}],"rank":{"a":["a,a,r1","a,r1"],"zz":["zz,r1"]}}`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDecodeInstance drives the upload path the daemon exposes — wire form
// → DecodeInstance (which validates) → Session.AnalyzeSPP — with arbitrary
// JSON. Nothing may panic, the set-backed decoder and validator must agree
// with the scanning oracle on every input, and the analysis must be the
// algebra pipeline's: small inputs collide on names and renderings freely,
// which is exactly where the emitter has rules of its own to get wrong.
func FuzzDecodeInstance(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j scenario.InstanceJSON
		if err := json.Unmarshal(data, &j); err != nil {
			return
		}
		if len(j.Nodes)+len(j.Sessions) > 64 {
			return // the oracle is quadratic; small inputs reach every branch
		}
		in := requireIngestParity(t, "fuzz input", j)
		if in == nil {
			return
		}
		requireAnalysisParity(t, "fuzz input", in)
	})
}

// firstContact is one instance as both first-contact layers take it: its
// size (nodes + links + path elements: a power-law topology's paths lengthen
// with n, so 4× the nodes is about 5× the instance), the instance itself
// and its upload body.
type firstContact struct {
	size int
	in   *spp.Instance
	body []byte
}

// firstContactLayer is one layer an upload crosses, run on one instance.
type firstContactLayer struct {
	name string
	run  func(firstContact)
}

// firstContactPair loads internet:2000 and internet:8000, the two sizes both
// growth guards compare, and returns the layers they run: the byte reader
// (body → validated instance) and ToAlgebra + analysis.Constraints (the
// oracle pipeline's emitter).
func firstContactPair(t *testing.T) (small, large firstContact, layers []firstContactLayer) {
	t.Helper()
	load := func(n int) firstContact {
		g := topology.GenerateInternet(1, topology.InternetParams{N: n})
		in := scenario.InternetSPP(fmt.Sprintf("internet-%d", n), g, 3)
		body, err := json.Marshal(scenario.EncodeInstance(in))
		if err != nil {
			t.Fatal(err)
		}
		x := firstContact{size: len(in.Nodes) + len(in.Links), in: in, body: body}
		for _, paths := range in.Permitted {
			for _, p := range paths {
				x.size += len(p)
			}
		}
		return x
	}
	layers = []firstContactLayer{
		{"ReadInstance", func(x firstContact) {
			if _, _, err := scenario.ReadInstance(x.body); err != nil {
				t.Fatal(err)
			}
		}},
		{"ToAlgebra+Constraints", func(x firstContact) {
			conv, err := x.in.ToAlgebra()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity); err != nil {
				t.Fatal(err)
			}
		}},
	}
	return load(2000), load(8000), layers
}

// TestFirstContactGrowthRate is the asymptotic guard on the two layers an
// upload crosses before the solver, on internet instances of n=2000 and
// n=8000: the work each does, counted as the objects and the bytes it
// allocates, may grow at most twice as fast as the instance itself. The
// counts grow 4.0–4.9× here for the instance's 5.2×; a per-node copy of a
// growing list, a dense ⊕ table or a set rebuilt per path grows
// quadratically, 15× or more. A scan that allocates nothing is not seen
// here; TestVerifyFullScansPerPath (internal/spp) counts the linear scans
// ToAlgebra makes per path. The timed version of this guard is
// TestFirstContactGrowthRateTimed.
func TestFirstContactGrowthRate(t *testing.T) {
	if testing.Short() {
		t.Skip("two internet instances up to n=8000")
	}
	small, large, layers := firstContactPair(t)
	// What one run allocates, after a warm-up run; the least of three, so a
	// background goroutine's allocation cannot be charged to it.
	count := func(run func(firstContact), x firstContact) (objects, bytes float64) {
		run(x)
		objects, bytes = math.Inf(1), math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(x)
			runtime.ReadMemStats(&after)
			objects = min(objects, float64(after.Mallocs-before.Mallocs))
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return objects, bytes
	}
	grown := float64(large.size) / float64(small.size)
	for _, layer := range layers {
		smallObjects, smallBytes := count(layer.run, small)
		largeObjects, largeBytes := count(layer.run, large)
		for _, c := range []struct {
			what         string
			small, large float64
		}{{"objects", smallObjects, largeObjects}, {"bytes", smallBytes, largeBytes}} {
			ratio := c.large / c.small
			t.Logf("%s: %.0f → %.0f %s, %.2f× for %.2f× the instance", layer.name, c.small, c.large, c.what, ratio, grown)
			if ratio > 2*grown {
				t.Errorf("%s allocated %.1f× the %s for %.1f× the instance (%.0f → %.0f): no longer linear",
					layer.name, ratio, c.what, grown, c.small, c.large)
			}
		}
	}
}

// minOfEach reports the fastest of n runs of fn on each of small and large,
// timed alternately so that a neighbour's burst (the other packages' tests
// share the cores) lands on both sizes, not on one. Each run starts on a
// collected heap whose free pages went back to the OS: one run's garbage is
// not charged to the next, and a small run does not ride on the pages a
// large one left behind, which would read as growth that is not there.
func minOfEach[T any](n int, fn func(T), small, large T) (bestSmall, bestLarge time.Duration) {
	timed := func(x T) time.Duration {
		debug.FreeOSMemory()
		start := time.Now()
		fn(x)
		return time.Since(start)
	}
	bestSmall, bestLarge = time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < n; i++ {
		bestSmall = min(bestSmall, timed(small))
		bestLarge = min(bestLarge, timed(large))
	}
	return bestSmall, bestLarge
}

// TestFirstContactGrowthRateTimed is TestFirstContactGrowthRate on a clock:
// each layer's time may grow at most twice as fast as the instance. Linear
// code reads 1.0–1.6× here, the excess being cache misses once the sets
// outgrow L2; the slice-scanning validator and the dense ⊕-table walk the
// guard exists to keep out read 4× or more (16–22× raw). A clock shares the
// cores with whatever else runs, so it only runs when FSR_SPEEDUP_TEST is
// set, like the speedup tests.
func TestFirstContactGrowthRateTimed(t *testing.T) {
	if os.Getenv("FSR_SPEEDUP_TEST") == "" {
		t.Skip("set FSR_SPEEDUP_TEST=1 to run the timing assertion")
	}
	small, large, layers := firstContactPair(t)
	// Milliseconds per run: enough of them that a neighbour's burst cannot
	// sit on all. And no collection inside a run of the reader: internet:2000
	// decodes within the 4 MB minimum heap and internet:8000 does not, a step
	// that is the collector's, not the reader's (7 MB of garbage per run at
	// most).
	gc := debug.SetGCPercent(-1)
	smallIngest, largeIngest := minOfEach(9, layers[0].run, small, large)
	debug.SetGCPercent(gc)
	smallEmit, largeEmit := minOfEach(3, layers[1].run, small, large)
	grown := float64(large.size) / float64(small.size)
	for _, layer := range []struct {
		name         string
		small, large time.Duration
	}{
		{layers[0].name, smallIngest, largeIngest},
		{layers[1].name, smallEmit, largeEmit},
	} {
		ratio := float64(layer.large) / float64(layer.small)
		t.Logf("%s: %v → %v, %.1f× for %.1f× the instance", layer.name, layer.small, layer.large, ratio, grown)
		if ratio > 2*grown {
			t.Errorf("%s grew %.1f× for %.1f× the instance (%v → %v): no longer linear",
				layer.name, ratio, grown, layer.small, layer.large)
		}
	}
}
