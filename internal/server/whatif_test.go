package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/spp/spptest"
	"fsr/internal/topology"
)

// TestWhatIfBatchIsAtomic: a committed batch whose second edit is rejected
// leaves nothing of its first behind — the instance reads back as it did,
// and the next verify is answered from the standing result. (A batch used
// to keep the edits that preceded the failing one.)
func TestWhatIfBatchIsAtomic(t *testing.T) {
	s, ts := newTestServer(t, true)
	call(t, "POST", ts.URL+"/v1/instances", map[string]any{"id": "x", "gadget": "fig3"}, nil)
	var before, after struct {
		Instance scenario.InstanceJSON `json:"instance"`
	}
	var first, again verdict
	call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &first)
	call(t, "GET", ts.URL+"/v1/instances/x", nil, &before)

	var errBody struct {
		Error string `json:"error"`
	}
	batch := map[string]any{"ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1", "a,b,e,r2"}},
		{"op": "rerank", "node": "b", "paths": []string{"b,z,r9"}}, // no session b↔z
	}}
	if code := call(t, "POST", ts.URL+"/v1/instances/x/whatif", batch, &errBody); code != http.StatusBadRequest {
		t.Fatalf("half-valid batch: status %d, want 400", code)
	}
	if !strings.Contains(errBody.Error, "what-if op 1 (rerank)") || !strings.Contains(errBody.Error, "instance unchanged") {
		t.Errorf("error %q names neither the failing op nor the instance's state", errBody.Error)
	}
	call(t, "GET", ts.URL+"/v1/instances/x", nil, &after)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("the failed batch's first edit stuck:\n%+v\nbefore:\n%+v", after.Instance, before.Instance)
	}
	call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &again)
	if again.Mode != "cached" || again.Safe != first.Safe || !slices.Equal(again.Core, first.Core) ||
		!slices.Equal(again.Suspects, first.Suspects) || again.OracleMismatch {
		t.Fatalf("verify after the failed batch: %+v\nbefore it: %+v", again, first)
	}
	if got := s.Metrics().AbortedBatches.Value(); got != 1 {
		t.Errorf("fsr_whatif_aborted_batches_total = %v, want 1", got)
	}
}

// TestWhatIfLeavesTheFixedPoint: a discarded what-if that turns the
// instance unsafe (exact core, oracle-checked while applied) costs the
// resident fixed point nothing — the verify after it is cached and the next
// what-if a delta solve — and the flight recorder keeps the transaction's
// phases as child spans of one whatif op.
func TestWhatIfLeavesTheFixedPoint(t *testing.T) {
	obs.Flight().SetSlowThreshold(time.Nanosecond) // retain every op's span tree
	defer obs.Flight().SetSlowThreshold(0)
	s, ts := newTestServer(t, true)
	call(t, "POST", ts.URL+"/v1/instances", map[string]any{"id": "x", "gadget": "fig3-fixed"}, nil)
	var v verdict
	if call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &v); !v.Safe || len(v.Model) == 0 {
		t.Fatalf("fig3-fixed: %+v", v)
	}
	model := v.Model

	// Figure 3's broken rankings, as a query.
	broken := map[string]any{"discard": true, "ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,b,e,r2", "a,d,r1"}},
		{"op": "rerank", "node": "b", "paths": []string{"b,c,f,r3", "b,e,r2"}},
		{"op": "rerank", "node": "c", "paths": []string{"c,a,d,r1", "c,f,r3"}},
	}}
	v = verdict{}
	call(t, "POST", ts.URL+"/v1/instances/x/whatif", broken, &v)
	if v.Safe || !v.Discarded || len(v.Core) != 6 || len(v.Suspects) != 3 || !v.OracleChecked || v.OracleMismatch {
		t.Fatalf("discarded break: %+v", v)
	}
	v = verdict{}
	if call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &v); !v.Safe || v.Mode != "cached" || !reflect.DeepEqual(v.Model, model) {
		t.Fatalf("verify after the discarded break: safe=%v mode=%q, model equal=%v", v.Safe, v.Mode, reflect.DeepEqual(v.Model, model))
	}
	trim := map[string]any{"discard": true, "ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1"}},
	}}
	v = verdict{}
	if call(t, "POST", ts.URL+"/v1/instances/x/whatif", trim, &v); !v.Safe || v.Mode != "delta" || len(v.Model) != 0 || v.OracleMismatch {
		t.Fatalf("discarded trim after the discarded break: %+v", v)
	}
	if got := s.Metrics().Rollbacks.Value(); got != 2 {
		t.Errorf("fsr_whatif_rollbacks_total = %v, want 2", got)
	}

	var fl obs.FlightSnapshot
	call(t, "GET", ts.URL+"/v1/flightrecorder", nil, &fl)
	var spans []*obs.SpanNode
	for _, op := range fl.Slow { // newest first: the trim
		if op.Kind == "whatif" && op.Detail == "x" {
			spans = op.Spans
			break
		}
	}
	if len(spans) != 1 || spans[0].Name != "whatif" {
		t.Fatalf("no whatif op with one root span in the flight recorder: %+v", fl.Slow)
	}
	var names []string
	attrs := map[string]string{}
	for _, c := range spans[0].Children {
		names = append(names, c.Name)
		for k, val := range c.Attrs {
			attrs[c.Name+"."+k] = val
		}
	}
	if fmt.Sprint(names) != "[apply verify rollback]" {
		t.Fatalf("whatif op's child spans: %v", names)
	}
	for _, key := range []string{"apply.splices", "verify.affected", "rollback.journal_entries"} {
		if attrs[key] == "" || attrs[key] == "0" {
			t.Errorf("span attribute %s = %q, want a positive count (have %v)", key, attrs[key], attrs)
		}
	}

	// The discarded break's core came from the region its edits disturbed:
	// its verify span has a region-core child, and both what-ifs fed the
	// region-size histogram.
	var core *obs.SpanNode
	for _, op := range fl.Slow {
		if op.Kind != "whatif" || len(op.Spans) != 1 {
			continue
		}
		for _, c := range op.Spans[0].Children {
			for _, g := range c.Children {
				if c.Name == "verify" && g.Name == "region-core" {
					core = g
				}
			}
		}
	}
	if core == nil {
		t.Fatalf("no verify span with a region-core child in the flight recorder: %+v", fl.Slow)
	}
	if core.Attrs["core"] != "6" || core.Attrs["nodes"] == "" || core.Attrs["edges"] == "" || core.Attrs["probes"] == "" {
		t.Errorf("region-core span attributes %v, want a core of 6 with nodes, edges and probes", core.Attrs)
	}
	if got := s.Metrics().RegionNodes.Count(); got != 2 {
		t.Errorf("fsr_smt_delta_region_nodes observed %d delta verifications, want 2", got)
	}
}

// whatIfProbe is a resident internet instance behind a handler, with one
// re-rankable node of a fixed local shape.
type whatIfProbe struct {
	h            http.Handler
	swap, unswap []byte
}

// internetInstance generates the resident instance of the cost guards.
func internetInstance(n int) *spp.Instance {
	return scenario.InternetSPP(fmt.Sprintf("internet:%d", n), topology.GenerateInternet(1, topology.InternetParams{N: n}), 3)
}

func rerankOp(n spp.Node, paths []spp.Path) whatIfOp {
	op := whatIfOp{Op: "rerank", Node: string(n)}
	for _, p := range paths {
		hops := make([]string, len(p))
		for i, h := range p {
			hops[i] = string(h)
		}
		op.Paths = append(op.Paths, strings.Join(hops, ","))
	}
	return op
}

func whatIfBody(t *testing.T, discard bool, ops ...whatIfOp) []byte {
	t.Helper()
	body, err := json.Marshal(whatIfRequest{Ops: ops, Discard: discard})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func rerankBody(t *testing.T, n spp.Node, paths []spp.Path, discard bool) []byte {
	return whatIfBody(t, discard, rerankOp(n, paths))
}

// post serves one what-if in process and returns the response body.
func (p *whatIfProbe) post(t testing.TB, body []byte) []byte {
	w := httptest.NewRecorder()
	p.h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/instances/net/whatif", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("what-if: status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// newResident loads the instance as "net" into a fresh server, verifies it
// safe, and returns the server with a probe on its handler.
func newResident(t *testing.T, in *spp.Instance) (*Server, *whatIfProbe) {
	t.Helper()
	s := New(Options{DiagInterval: time.Hour}) // no sampler tick inside a measurement
	t.Cleanup(s.Close)
	p := &whatIfProbe{h: s.Handler()}
	create, err := json.Marshal(map[string]any{"id": "net", "instance": scenario.EncodeInstance(in)})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	p.h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/instances", bytes.NewReader(create)))
	if w.Code != http.StatusCreated {
		t.Fatalf("create %s: status %d: %.200s", in.Name, w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	p.h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/instances/net/verify", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"safe":true`) {
		t.Fatalf("verify %s: status %d: %.200s", in.Name, w.Code, w.Body)
	}
	return s, p
}

// cost is what a sequence of what-ifs costs the process: allocations, bytes
// allocated, and the largest response body.
type cost struct{ allocs, bytes, body float64 }

// measure posts the bodies once — checking each answer, and warming every
// lazily grown buffer — and then counts what posting them again costs.
func (p *whatIfProbe) measure(t *testing.T, check func(i int, v verdict) bool, bodies ...[]byte) cost {
	t.Helper()
	var c cost
	for i, b := range bodies {
		c.body = max(c.body, p.postChecked(t, func(v verdict) bool { return check(i, v) }, b))
	}
	c.allocs = testing.AllocsPerRun(50, func() {
		for _, b := range bodies {
			p.post(t, b)
		}
	})
	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		for _, b := range bodies {
			p.post(t, b)
		}
	}
	runtime.ReadMemStats(&after)
	c.bytes = float64(after.TotalAlloc-before.TotalAlloc) / rounds
	return c
}

// postChecked posts one body, checks the answer — which, a what-if's, has no
// model — and returns its size.
func (p *whatIfProbe) postChecked(t *testing.T, check func(verdict) bool, body []byte) float64 {
	t.Helper()
	resp := p.post(t, body)
	var v verdict
	if err := json.Unmarshal(resp, &v); err != nil || v.Model != nil || !check(v) {
		t.Fatalf("what-if %s answered %s (err %v)", body, resp, err)
	}
	return float64(len(resp))
}

// within reports whether a and b are within the tolerance of each other.
func within(a, b, tol float64) bool { return a <= b*(1+tol) && b <= a*(1+tol) }

// TestWhatIfCostIsTheEdit is the structural guard on the daemon's reason
// to exist: a one-node top-two swap on a node of at most three sessions
// costs the same request — allocations, bytes allocated, response size — on
// a resident internet:2000 as on internet:8000, discarded or committed.
// (Clone-and-drop with a model in the response read ≈ 3 MB and 326 KB-class
// bodies at :2000 and four times that at :8000.)
func TestWhatIfCostIsTheEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("internet:8000 instance")
	}
	small, large := spptest.NewReach(internetInstance(2000)), spptest.NewReach(internetInstance(8000))
	// The first node of internet:2000 that has a twin in internet:8000.
	a, b := spptest.Twins(small, large, (*spptest.Reach).Swappable)
	if a == nil {
		t.Fatal("internet:2000 and internet:8000 share no re-rankable node shape")
	}

	safeDelta := func(_ int, v verdict) bool { return v.Safe && v.Mode == "delta" }
	var discarded, committed [2]cost
	for i, in := range []*spp.Instance{small.In, large.In} {
		node := [2]spp.Node{a[0], b[0]}[i]
		_, p := newResident(t, in)
		paths := in.Permitted[node]
		swapped := append([]spp.Path{paths[1], paths[0]}, paths[2:]...)
		discarded[i] = p.measure(t, safeDelta, rerankBody(t, node, swapped, true))
		committed[i] = p.measure(t, safeDelta, rerankBody(t, node, swapped, false), rerankBody(t, node, paths, false))
		t.Logf("%s, node %s (shape %s): discarded %+v, committed tweak+untweak %+v", in.Name, node, small.Shape(a[0]), discarded[i], committed[i])
	}
	for _, c := range []struct {
		name  string
		costs [2]cost
		reqs  float64
	}{{"discarded", discarded, 1}, {"committed tweak+untweak", committed, 2}} {
		small, large := c.costs[0], c.costs[1]
		// The race detector's sync.Pool hands back a random share of what it
		// was given: the two sizes then differ by what encoding/json and
		// net/http re-allocate, so only the absolute limits are held there.
		same := func(a, b, tol float64) bool { return raceEnabled || within(a, b, tol) }
		if !same(small.allocs, large.allocs, 0.05) {
			t.Errorf("%s: %v allocations at internet:2000, %v at internet:8000, want within 5%%", c.name, small.allocs, large.allocs)
		}
		if !same(small.bytes, large.bytes, 0.10) || large.bytes >= c.reqs*(64<<10) {
			t.Errorf("%s: %.0f B allocated at internet:2000, %.0f B at internet:8000, want within 10%% and under %v KB", c.name, small.bytes, large.bytes, c.reqs*64)
		}
		if small.body >= 1<<10 || large.body >= 1<<10 {
			t.Errorf("%s: response bodies of %v and %v bytes, want < 1 KB", c.name, small.body, large.body)
		}
	}
}

// TestUnsafeWhatIfCostIsTheDispute holds the unsafe path to the same
// standard: the operator's session — plant a two-node dispute, read its
// four-constraint core, put the rankings back, swap and unswap an ordinary
// node's top two — costs the solver the same steps and the process the same
// allocations and bytes on a resident internet:2000 as on internet:8000,
// committed or discarded, when the dispute pair and the swapped node have
// twins of the same shape and reach. Every answer is a delta solve that
// agrees with the full pipeline while its edits stand; the whole list is
// never solved again. (Before the region decided its own core, a break
// interned and condensed the whole list: 2.5 ms at internet:5000, 9 ms at
// :20000.)
func TestUnsafeWhatIfCostIsTheDispute(t *testing.T) {
	if testing.Short() {
		t.Skip("internet:8000 instance")
	}
	small, large := spptest.NewReach(internetInstance(2000)), spptest.NewReach(internetInstance(8000))
	var pairs, swaps [2][]spp.Node
	pairs[0], pairs[1] = spptest.Twins(small, large, (*spptest.Reach).DisputePairs)
	swaps[0], swaps[1] = spptest.Twins(small, large, func(r *spptest.Reach) (out [][]spp.Node) {
		for _, c := range r.Swappable() { // not an end of either pair
			if !slices.Contains(append(pairs[0], pairs[1]...), c[0]) {
				out = append(out, c)
			}
		}
		return out
	})
	if pairs[0] == nil || swaps[0] == nil {
		t.Fatalf("internet:2000 and internet:8000 share no dispute pair (%v) or no swappable node (%v) of one shape and reach", pairs[0], swaps[0])
	}

	type sessionCost struct {
		cost
		steps int
	}
	var committed, discarded [2]sessionCost
	for i, reach := range []*spptest.Reach{small, large} {
		in := reach.In
		u, v, w := pairs[i][0], pairs[i][1], swaps[i][0]
		ou, ov := spp.Node("rx_"+string(u)), spp.Node("rx_"+string(v))
		wp := in.Permitted[w]
		session := func(discard bool) [][]byte {
			return [][]byte{
				whatIfBody(t, discard, rerankOp(u, []spp.Path{{u, v, ov}, {u, ou}}), rerankOp(v, []spp.Path{{v, u, ou}, {v, ov}})),
				whatIfBody(t, discard, rerankOp(u, in.Permitted[u]), rerankOp(v, in.Permitted[v])),
				whatIfBody(t, discard, rerankOp(w, append([]spp.Path{wp[1], wp[0]}, wp[2:]...))),
				whatIfBody(t, discard, rerankOp(w, wp)),
			}
		}
		// The break is unsafe with the planted cycle as its core; every other
		// step is safe. Each is a delta solve, the oracle agreeing.
		suspects := []string{string(u), string(v)}
		slices.Sort(suspects)
		answer := func(unsafe bool) func(verdict) bool {
			return func(got verdict) bool {
				ok := got.Mode == "delta" && got.OracleChecked && !got.OracleMismatch && got.Safe != unsafe
				if unsafe {
					ok = ok && len(got.Core) == 4 && slices.Equal(got.Suspects, suspects)
				}
				return ok
			}
		}
		s, p := newResident(t, in)
		resident := s.instances["net"].v
		run := func(bodies [][]byte, unsafe func(i int) bool) (c sessionCost) {
			before := resident.DeltaStats()
			s.opts.CheckOracle = true
			for i, b := range bodies {
				p.postChecked(t, answer(unsafe(i)), b)
			}
			s.opts.CheckOracle = false
			steps := resident.DeltaStats().Steps
			for _, b := range bodies {
				p.post(t, b)
			}
			c.steps = resident.DeltaStats().Steps - steps
			c.cost = p.measure(t, func(i int, got verdict) bool { return got.Mode == "delta" && got.Safe != unsafe(i) }, bodies...)
			if after := resident.DeltaStats(); after.FullSolves != before.FullSolves || after.CacheHits != before.CacheHits {
				t.Errorf("%s: the sessions moved the solver from %+v to %+v: every step should be a delta solve", in.Name, before, after)
			}
			return c
		}
		all := session(false)
		committed[i] = run(all, func(i int) bool { return i == 0 })
		// Discarded, a repair or an unswap would find nothing to undo.
		query := session(true)
		discarded[i] = run([][]byte{query[0], query[2]}, func(i int) bool { return i == 0 })
		t.Logf("%s, pair %s↔%s (reach %v), swap %s (reach %v): committed %+v, discarded break+tweak %+v",
			in.Name, u, v, reach.Of(u, v), w, reach.Of(w), committed[i], discarded[i])
	}
	for _, c := range []struct {
		name  string
		costs [2]sessionCost
	}{{"committed session", committed}, {"discarded break+tweak", discarded}} {
		small, large := c.costs[0], c.costs[1]
		if !within(float64(small.steps), float64(large.steps), 0.10) {
			t.Errorf("%s: %d solver steps at internet:2000, %d at internet:8000, want within 10%%", c.name, small.steps, large.steps)
		}
		if raceEnabled { // see TestWhatIfCostIsTheEdit
			continue
		}
		if !within(small.allocs, large.allocs, 0.10) {
			t.Errorf("%s: %v allocations at internet:2000, %v at internet:8000, want within 10%%", c.name, small.allocs, large.allocs)
		}
		if !within(small.bytes, large.bytes, 0.10) {
			t.Errorf("%s: %.0f B allocated at internet:2000, %.0f B at internet:8000, want within 10%%", c.name, small.bytes, large.bytes)
		}
	}
}

// TestInfoCountsWithoutCopying: the summary every create and every entry of
// a listing carries reads the verifier's sizes; it used to deep-copy the
// instance — every path of it — to count its nodes.
func TestInfoCountsWithoutCopying(t *testing.T) {
	in := internetInstance(2000)
	s, _ := newResident(t, in)
	ent := s.instances["net"]
	if got := s.info(ent); got.Nodes != len(in.Nodes) || got.Sessions != len(in.Links)/2 || got.Name != in.Name || got.Degraded {
		t.Fatalf("info = %+v for %d nodes and %d sessions", got, len(in.Nodes), len(in.Links)/2)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.info(ent) }); allocs != 0 {
		t.Errorf("info allocates %v objects on a %d-node resident instance, want none", allocs, len(in.Nodes))
	}
}
