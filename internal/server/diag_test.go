package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/spp"
)

// newDiagServer wires a Server with the analyze seam the public layer
// injects, against a stub analyzer the tests control.
func newDiagServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{
		Gadget: func(name string) (*spp.Instance, error) {
			return spp.Figure3IBGPFixed(), nil
		},
		Analyze: func(ctx context.Context, in *spp.Instance) (analysis.Result, []spp.Node, error) {
			res := analysis.Result{Sat: true, NumPreference: 3, NumMonotonicity: 4}
			res.Stats.Components = 7
			res.Stats.TrivialComponents = 5
			res.Stats.Levels = 2
			res.Stats.MaxLevelWidth = 4
			res.Stats.Probes = 100
			res.Stats.Relaxations = 20
			return res, nil, nil
		},
		DiagInterval: 10 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestServerAnalyze: POST /v1/analyze resolves the gadget, runs the
// injected analyzer, and reports verdict plus condensation shape.
func TestServerAnalyze(t *testing.T) {
	_, ts := newDiagServer(t)
	var resp struct {
		Name          string `json:"name"`
		Nodes         int    `json:"nodes"`
		Safe          bool   `json:"safe"`
		Components    int    `json:"components"`
		Levels        int    `json:"levels"`
		MaxLevelWidth int    `json:"max_level_width"`
		Probes        int    `json:"probes"`
	}
	code := call(t, "POST", ts.URL+"/v1/analyze",
		map[string]any{"gadget": "fig3-fixed"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if !resp.Safe || resp.Components != 7 || resp.Levels != 2 ||
		resp.MaxLevelWidth != 4 || resp.Probes != 100 {
		t.Errorf("analyze response wrong: %+v", resp)
	}
	if resp.Nodes == 0 || resp.Name == "" {
		t.Errorf("instance identity missing: %+v", resp)
	}
}

// TestServerAnalyzeUnmounted: a Server without the seam answers 404 — the
// route is simply absent, not half-wired.
func TestServerAnalyzeUnmounted(t *testing.T) {
	_, ts := newTestServer(t, false)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"gadget":"fig3"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmounted analyze: status %d, want 404", resp.StatusCode)
	}
}

// TestServerDiagnosticsEndpoints: every Server mounts the diagnosis
// surface — timeseries, flight recorder, dashboard — with live payloads, and
// after a session that solves both ways every series the dashboard looks up
// by name is one /v1/timeseries serves.
func TestServerDiagnosticsEndpoints(t *testing.T) {
	_, ts := newDiagServer(t)

	var tsPayload struct {
		IntervalMS int64             `json:"interval_ms"`
		WindowMS   int64             `json:"window_ms"`
		Series     []json.RawMessage `json:"series"`
	}
	if code := call(t, "GET", ts.URL+"/v1/timeseries", nil, &tsPayload); code != http.StatusOK {
		t.Fatalf("timeseries: status %d", code)
	}
	if tsPayload.IntervalMS <= 0 || tsPayload.WindowMS <= 0 {
		t.Errorf("timeseries config missing: %+v", tsPayload)
	}

	// Drive one op through the flight recorder so the snapshot is non-empty.
	// Handler() enabled the global recorder; record against it directly.
	_, op := obs.Flight().StartOp(context.Background(), "verify", "diag-test")
	op.SetVerdict("full/safe")
	op.Finish()
	var fl struct {
		Enabled bool   `json:"enabled"`
		Total   uint64 `json:"total"`
		Ops     []struct {
			Kind    string `json:"kind"`
			Verdict string `json:"verdict"`
		} `json:"ops"`
	}
	if code := call(t, "GET", ts.URL+"/v1/flightrecorder", nil, &fl); code != http.StatusOK {
		t.Fatalf("flightrecorder: status %d", code)
	}
	if !fl.Enabled || fl.Total == 0 || len(fl.Ops) == 0 {
		t.Errorf("flight snapshot empty: %+v", fl)
	}

	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard Content-Type = %q", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lookups []string
	for _, m := range regexp.MustCompile(`byName\["([^"]+)"\]`).FindAllStringSubmatch(string(page), -1) {
		lookups = append(lookups, m[1])
	}
	if len(lookups) == 0 {
		t.Fatal("the dashboard looks up no series by name")
	}

	// A full solve, then a delta one.
	call(t, "POST", ts.URL+"/v1/instances", map[string]any{"id": "x", "gadget": "fig3-fixed"}, nil)
	var v verdict
	if call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &v); v.Mode != "full" {
		t.Fatalf("first verify: %+v", v)
	}
	trim := map[string]any{"discard": true, "ops": []map[string]any{
		{"op": "rerank", "node": "a", "paths": []string{"a,d,r1"}},
	}}
	if call(t, "POST", ts.URL+"/v1/instances/x/whatif", trim, &v); v.Mode != "delta" {
		t.Fatalf("what-if: %+v", v)
	}
	var missing []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var payload struct {
			Series []struct {
				Name string `json:"name"`
			} `json:"series"`
		}
		call(t, "GET", ts.URL+"/v1/timeseries", nil, &payload)
		served := map[string]bool{}
		for _, s := range payload.Series {
			served[s.Name] = true
		}
		missing = missing[:0]
		for _, name := range lookups {
			if !served[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(missing) > 0 {
		t.Errorf("the dashboard looks up %v, which /v1/timeseries never served", missing)
	}
}
