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
}

// whatIfProbe is a resident internet instance behind a handler, with one
// re-rankable node of a fixed local shape.
type whatIfProbe struct {
	h            http.Handler
	swap, unswap []byte
}

// nodeShape is what a re-rank's cost may depend on: the node's sessions and
// ranking, and the rankings its incident link segments are matched against.
func nodeShape(in *spp.Instance, degree map[spp.Node][]spp.Node, n spp.Node) string {
	var nbrs []int
	for _, m := range degree[n] {
		nbrs = append(nbrs, len(in.Permitted[m]))
	}
	slices.Sort(nbrs)
	var lens []int
	for _, p := range in.Permitted[n] {
		lens = append(lens, len(p))
	}
	return fmt.Sprint(len(degree[n]), lens, nbrs)
}

func neighbours(in *spp.Instance) map[spp.Node][]spp.Node {
	out := map[spp.Node][]spp.Node{}
	for _, l := range in.Links {
		out[l.From] = append(out[l.From], l.To)
	}
	return out
}

func rerankBody(t *testing.T, n spp.Node, paths []spp.Path, discard bool) []byte {
	t.Helper()
	op := whatIfOp{Op: "rerank", Node: string(n)}
	for _, p := range paths {
		hops := make([]string, len(p))
		for i, h := range p {
			hops[i] = string(h)
		}
		op.Paths = append(op.Paths, strings.Join(hops, ","))
	}
	body, err := json.Marshal(whatIfRequest{Ops: []whatIfOp{op}, Discard: discard})
	if err != nil {
		t.Fatal(err)
	}
	return body
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
	sizes := []int{2000, 8000}
	instances := make([]*spp.Instance, len(sizes))
	shapes := make([]map[string]spp.Node, len(sizes))
	for i, n := range sizes {
		in := scenario.InternetSPP(fmt.Sprintf("internet:%d", n), topology.GenerateInternet(1, topology.InternetParams{N: n}), 3)
		nbrs := neighbours(in)
		instances[i], shapes[i] = in, map[string]spp.Node{}
		for _, node := range in.Nodes {
			if d := len(nbrs[node]); d >= 1 && d <= 3 && len(in.Permitted[node]) >= 2 {
				if shape := nodeShape(in, nbrs, node); shapes[i][shape] == "" {
					shapes[i][shape] = node
				}
			}
		}
	}
	// The first node of internet:2000 whose local shape internet:8000 has too.
	var shape string
	nbrs := neighbours(instances[0])
	for _, node := range instances[0].Nodes {
		if s := nodeShape(instances[0], nbrs, node); shapes[0][s] == node && shapes[1][s] != "" {
			shape = s
			break
		}
	}
	if shape == "" {
		t.Fatal("internet:2000 and internet:8000 share no re-rankable node shape")
	}

	type cost struct{ allocs, bytes, body float64 }
	measure := func(p *whatIfProbe, bodies ...[]byte) cost {
		var c cost
		for _, b := range bodies {
			resp := p.post(t, b) // also warms every lazily grown buffer
			c.body = max(c.body, float64(len(resp)))
			var v verdict
			if err := json.Unmarshal(resp, &v); err != nil || !v.Safe || v.Mode != "delta" || v.Model != nil {
				t.Fatalf("what-if answered %s (err %v), want a safe delta verdict without a model", resp, err)
			}
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

	var discarded, committed [2]cost
	for i, in := range instances {
		node := shapes[i][shape]
		s := New(Options{DiagInterval: time.Hour}) // no sampler tick inside the measurement
		p := &whatIfProbe{h: s.Handler()}
		defer s.Close()
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
		paths := in.Permitted[node]
		swapped := append([]spp.Path{paths[1], paths[0]}, paths[2:]...)
		discarded[i] = measure(p, rerankBody(t, node, swapped, true))
		committed[i] = measure(p, rerankBody(t, node, swapped, false), rerankBody(t, node, paths, false))
		t.Logf("%s, node %s (shape %s): discarded %+v, committed tweak+untweak %+v", in.Name, node, shape, discarded[i], committed[i])
	}
	within := func(a, b, tol float64) bool { return a <= b*(1+tol) && b <= a*(1+tol) }
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
