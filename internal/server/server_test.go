package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"fsr/internal/scenario"
	"fsr/internal/spp"
)

// newTestServer wires the gadget resolver the public layer would inject.
func newTestServer(t *testing.T, checkOracle bool) (*Server, *httptest.Server) {
	t.Helper()
	gadgets := map[string]func() *spp.Instance{
		"fig3":       spp.Figure3IBGP,
		"fig3-fixed": spp.Figure3IBGPFixed,
		"disagree":   spp.Disagree,
	}
	s := New(Options{
		CheckOracle: checkOracle,
		Gadget: func(name string) (*spp.Instance, error) {
			if ctor, ok := gadgets[name]; ok {
				return ctor(), nil
			}
			return nil, fmt.Errorf("unknown gadget %q", name)
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// call performs one JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encoding request: %v", err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestServerLifecycle drives the full session the README documents: load
// fig3, verify (unsafe with suspects), what-if the repair (safe, by delta
// re-solving), inspect, and scrape metrics — with the differential oracle
// on throughout.
func TestServerLifecycle(t *testing.T) {
	s, ts := newTestServer(t, true)

	var created instanceInfo
	if code := call(t, "POST", ts.URL+"/v1/instances",
		map[string]any{"id": "demo", "gadget": "fig3"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.Nodes != 6 || created.Sessions != 8 {
		t.Fatalf("create: info %+v", created)
	}

	var v verdict
	if code := call(t, "POST", ts.URL+"/v1/instances/demo/verify", nil, &v); code != http.StatusOK {
		t.Fatalf("verify: status %d", code)
	}
	if v.Safe {
		t.Fatal("fig3 verified safe")
	}
	if len(v.Core) == 0 || len(v.Suspects) == 0 {
		t.Fatalf("unsafe verdict without core/suspects: %+v", v)
	}
	if !v.OracleChecked || v.OracleMismatch {
		t.Fatalf("oracle: checked=%v mismatch=%v", v.OracleChecked, v.OracleMismatch)
	}

	// The paper's fix: flip a, b, and c to prefer their direct routes. A
	// discarded what-if first (pure query), then the real edit.
	repair := map[string]any{"ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1", "a,b,e,r2"}},
		{"op": "rerank", "node": "b", "paths": []string{"b,e,r2", "b,c,f,r3"}},
		{"op": "rerank", "node": "c", "paths": []string{"c,f,r3", "c,a,d,r1"}},
	}}
	preview := map[string]any{"ops": repair["ops"], "discard": true}
	v = verdict{}
	if code := call(t, "POST", ts.URL+"/v1/instances/demo/whatif", preview, &v); code != http.StatusOK {
		t.Fatalf("discarded what-if: status %d", code)
	}
	if !v.Safe || !v.Discarded || v.Applied != 3 {
		t.Fatalf("discarded what-if: %+v", v)
	}

	// The resident instance is untouched: verify still answers unsafe.
	v = verdict{}
	if call(t, "POST", ts.URL+"/v1/instances/demo/verify", nil, &v); v.Safe {
		t.Fatal("discarded what-if mutated the resident instance")
	}

	v = verdict{}
	if code := call(t, "POST", ts.URL+"/v1/instances/demo/whatif", repair, &v); code != http.StatusOK {
		t.Fatalf("what-if: status %d", code)
	}
	if !v.Safe || v.Discarded {
		t.Fatalf("repair what-if: %+v", v)
	}
	if v.OracleMismatch {
		t.Fatal("delta result disagrees with the full-rebuild oracle")
	}
	// A what-if answers the verdict alone; the witness of the committed
	// repair is the next verify's, answered from the standing result.
	if len(v.Model) != 0 {
		t.Fatalf("what-if response carries a %d-entry model", len(v.Model))
	}
	v = verdict{}
	if call(t, "POST", ts.URL+"/v1/instances/demo/verify", nil, &v); !v.Safe || v.Mode != "cached" || len(v.Model) == 0 || v.OracleMismatch {
		t.Fatalf("verify after the repair: safe=%v mode=%q model=%d mismatch=%v, want a cached safe verdict with its witness",
			v.Safe, v.Mode, len(v.Model), v.OracleMismatch)
	}

	// A further edit from the standing sat state is where delta solving
	// pays off: trimming a's ranking keeps the instance safe, so the
	// solver re-probes only the touched region instead of rebuilding.
	trim := map[string]any{"ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1"}},
	}}
	v = verdict{}
	if code := call(t, "POST", ts.URL+"/v1/instances/demo/whatif", trim, &v); code != http.StatusOK {
		t.Fatalf("trim what-if: status %d", code)
	}
	if !v.Safe || v.Mode != "delta" {
		t.Fatalf("trim what-if: safe=%v mode=%q, want a delta solve", v.Safe, v.Mode)
	}
	if v.OracleMismatch {
		t.Fatal("delta result disagrees with the full-rebuild oracle")
	}

	var got struct {
		Instance scenario.InstanceJSON `json:"instance"`
		Verifies int                   `json:"verifies"`
		Solver   solverStats           `json:"solver"`
	}
	if code := call(t, "GET", ts.URL+"/v1/instances/demo", nil, &got); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if got.Verifies != 5 {
		t.Fatalf("verifies = %d, want 5", got.Verifies)
	}
	if want := []string{"a,d,r1"}; fmt.Sprint(got.Instance.Rank["a"]) != fmt.Sprint(want) {
		t.Fatalf("snapshot rank[a] = %v, want %v", got.Instance.Rank["a"], want)
	}
	if got.Solver.Checks == 0 {
		t.Fatalf("solver stats not reported: %+v", got.Solver)
	}

	if s.Metrics().DeltaSolves.Value() == 0 {
		t.Fatal("no delta solves recorded across the repair session")
	}
	if n := s.Metrics().OracleMismatches.Value(); n != 0 {
		t.Fatalf("oracle mismatches = %v", n)
	}

	// Metrics exposition: well-formed text format with the counters the
	// smoke job scrapes.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"# TYPE fsr_http_requests_total counter",
		`fsr_http_requests_total{endpoint="verify",code="200"}`,
		"# TYPE fsr_http_request_duration_seconds histogram",
		"fsr_instances_resident 1",
		"fsr_delta_solves_total ",
		"fsr_oracle_mismatches_total 0",
		"fsr_whatif_rollbacks_total 1",
		"fsr_whatif_aborted_batches_total 0",
		`fsr_verify_duration_seconds_bucket{mode="delta",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

// TestMetricsFamilyOrder pins /metrics' families, in order, after a
// scripted create → verify → what-if: the daemon's own instruments first, as
// they registered on the server's registry, then the process-global ones.
func TestMetricsFamilyOrder(t *testing.T) {
	_, ts := newTestServer(t, false)
	call(t, "POST", ts.URL+"/v1/instances", map[string]any{"id": "demo", "gadget": "fig3"}, nil)
	call(t, "POST", ts.URL+"/v1/instances/demo/verify", nil, nil)
	call(t, "POST", ts.URL+"/v1/instances/demo/whatif", map[string]any{"ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1"}},
	}}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, family)
		}
	}
	want := []string{
		"fsr_http_requests_total counter",
		"fsr_http_request_duration_seconds histogram",
		"fsr_instances_resident gauge",
		"fsr_delta_solves_total counter",
		"fsr_full_solves_total counter",
		"fsr_solver_cache_hits_total counter",
		"fsr_verify_duration_seconds histogram",
		"fsr_oracle_mismatches_total counter",
		"fsr_whatif_rollbacks_total counter",
		"fsr_whatif_aborted_batches_total counter",
		"fsr_request_decode_seconds histogram",
		"fsr_request_body_bytes histogram",
		"fsr_panics_total counter",
		"fsr_smt_delta_region_nodes histogram",
		"fsr_simnet_events_total counter",
		"fsr_simnet_arena_high_water gauge",
		"fsr_simnet_faults_injected_total counter",
		"fsr_simnet_msgs_dropped_total counter",
		"fsr_simnet_node_restarts_total counter",
		"fsr_smt_probes_total counter",
		"fsr_smt_relaxations_total counter",
		"fsr_smt_minimize_iterations_total counter",
		"fsr_smt_delta_splices_total counter",
		"fsr_smt_delta_solves_total counter",
		"fsr_smt_full_solves_total counter",
		"fsr_smt_cache_hits_total counter",
		"fsr_scc_solves_total counter",
		"fsr_scc_components_total counter",
		"fsr_scc_trivial_components_total counter",
		"fsr_scc_levels gauge",
		"fsr_scc_max_level_width gauge",
		"fsr_scc_tarjan_seconds histogram",
		"fsr_analysis_constraints_total counter",
		"fsr_analysis_stage_duration_seconds histogram",
		"fsr_spp_scale_path_total counter",
		"fsr_spp_shard_collisions_total counter",
		"fsr_spp_shard_emit_seconds histogram",
		"fsr_pathvector_adverts_sent_total counter",
		"fsr_pathvector_withdraws_sent_total counter",
		"fsr_pathvector_selection_changes_total counter",
		"fsr_pathvector_rejected_total counter",
		"fsr_campaign_scenarios_total counter",
		"fsr_campaign_scenarios_completed_total counter",
		"fsr_goroutines gauge",
		"fsr_heap_alloc_bytes gauge",
		"fsr_gc_pause_last_ns gauge",
		"fsr_gomaxprocs gauge",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("metric families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestServerInstanceUpload loads an instance by inline JSON rather than
// gadget name and verifies session edits against it.
func TestServerInstanceUpload(t *testing.T) {
	_, ts := newTestServer(t, true)
	enc := scenario.EncodeInstance(spp.Disagree())
	var created instanceInfo
	if code := call(t, "POST", ts.URL+"/v1/instances",
		map[string]any{"instance": enc}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID != "disagree" {
		t.Fatalf("default id %q, want the instance name", created.ID)
	}
	var v verdict
	call(t, "POST", ts.URL+"/v1/instances/disagree/verify", nil, &v)
	if v.Safe {
		t.Fatal("disagree verified safe")
	}
	// Cached repeat: the standing result answers without solving.
	call(t, "POST", ts.URL+"/v1/instances/disagree/verify", nil, &v)
	if v.Mode != "cached" {
		t.Fatalf("repeat verify mode %q, want cached", v.Mode)
	}
	// Breaking the only session leaves a degenerate instance the delta
	// path hands to the full pipeline, which rejects it ("no labels
	// declared") — the daemon surfaces the same error AnalyzeSPP would.
	var errBody struct {
		Error string `json:"error"`
	}
	drop := map[string]any{"ops": []map[string]any{{"op": "drop-session", "a": "1", "b": "2"}}}
	if code := call(t, "POST", ts.URL+"/v1/instances/disagree/whatif", drop, &errBody); code != http.StatusUnprocessableEntity {
		t.Fatalf("drop what-if: status %d, want 422", code)
	}
	if !strings.Contains(errBody.Error, "no labels") {
		t.Fatalf("degenerate-instance error %q", errBody.Error)
	}
}

// TestServerErrors covers the API's failure envelope.
func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, false)
	var errBody struct {
		Error string `json:"error"`
	}
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		code   int
	}{
		{"create without payload", "POST", "/v1/instances", map[string]any{}, http.StatusBadRequest},
		{"create unknown gadget", "POST", "/v1/instances", map[string]any{"gadget": "nope"}, http.StatusBadRequest},
		{"create bad id", "POST", "/v1/instances", map[string]any{"id": "a b", "gadget": "fig3"}, http.StatusBadRequest},
		{"verify missing instance", "POST", "/v1/instances/ghost/verify", nil, http.StatusNotFound},
		{"whatif missing instance", "POST", "/v1/instances/ghost/whatif",
			map[string]any{"ops": []map[string]any{{"op": "rerank"}}}, http.StatusNotFound},
		{"get missing instance", "GET", "/v1/instances/ghost", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		if code := call(t, c.method, ts.URL+c.path, c.body, &errBody); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
		if errBody.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// Duplicate load conflicts; bad ops and empty batches reject.
	call(t, "POST", ts.URL+"/v1/instances", map[string]any{"id": "x", "gadget": "fig3"}, nil)
	if code := call(t, "POST", ts.URL+"/v1/instances",
		map[string]any{"id": "x", "gadget": "disagree"}, &errBody); code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/instances/x/whatif",
		map[string]any{"ops": []map[string]any{}}, &errBody); code != http.StatusBadRequest {
		t.Errorf("empty what-if: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/instances/x/whatif",
		map[string]any{"ops": []map[string]any{{"op": "explode"}}}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d", code)
	}
	if code := call(t, "POST", ts.URL+"/v1/instances/x/whatif",
		map[string]any{"ops": []map[string]any{
			{"op": "rerank", "node": "a", "paths": []string{"a,z,r9"}},
		}}, &errBody); code != http.StatusBadRequest {
		t.Errorf("invalid rerank: status %d", code)
	}
	if !strings.Contains(errBody.Error, "what-if op 0 (rerank)") || !strings.Contains(errBody.Error, "instance unchanged") {
		t.Errorf("error names neither the failing op nor the instance's state: %q", errBody.Error)
	}

	var health struct {
		OK        bool `json:"ok"`
		Instances int  `json:"instances"`
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || !health.OK || health.Instances != 1 {
		t.Errorf("healthz: code %d body %+v", code, health)
	}
}

// TestServerPanicRecovery: a panicking handler answers 500, increments
// fsr_panics_total for its endpoint, and leaves the daemon serving — the
// next request on the same server succeeds.
func TestServerPanicRecovery(t *testing.T) {
	var logBuf strings.Builder
	s := New(Options{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.metrics.handler))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var errBody struct {
		Error string `json:"error"`
	}
	if code := call(t, "GET", ts.URL+"/boom", nil, &errBody); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", code)
	}
	if errBody.Error == "" {
		t.Error("panicking handler returned no error body")
	}
	if got := s.metrics.Panics.Value("boom"); got != 1 {
		t.Errorf("fsr_panics_total{endpoint=boom} = %v, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Error("panic value not logged")
	}

	// The daemon is still up, and the panic is visible on the scrape.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics after panic: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `fsr_panics_total{endpoint="boom"} 1`) {
		t.Error("fsr_panics_total missing from exposition")
	}

	// A panic after the header went out cannot rewrite the response; it is
	// still counted.
	mux.HandleFunc("GET /late", s.instrument("late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late kaboom")
	}))
	resp2, err := http.Get(ts.URL + "/late")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("late panic rewrote status to %d", resp2.StatusCode)
	}
	if got := s.metrics.Panics.Value("late"); got != 1 {
		t.Errorf("fsr_panics_total{endpoint=late} = %v, want 1", got)
	}
}
