package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// newUploadServer is newTestServer with the analyze seam wired to the real
// emitter, so an upload's verdict is the one the public layer would give.
func newUploadServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{
		Gadget: func(name string) (*spp.Instance, error) {
			if name == "fig3" {
				return spp.Figure3IBGP(), nil
			}
			return nil, fmt.Errorf("unknown gadget %q", name)
		},
		Analyze: func(ctx context.Context, in *spp.Instance) (analysis.Result, []spp.Node, error) {
			return spp.Analyze(ctx, in)
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// post sends a raw body and returns the status and the decoded reply.
func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding the %d response: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestUploadWireRules pins what the upload endpoints make of a body: the
// two rankings the decoder used to drop at the door, the envelope's rules,
// and the messages a rejected upload is answered with.
func TestUploadWireRules(t *testing.T) {
	_, ts := newUploadServer(t)
	const sessionDeclared = `{"nodes":["a"],"origins":["o","p"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,o"],"b":["b,a,o","b,p"]}}`
	const undeclaredKey = `{"name":"u","nodes":["a"],"sessions":[{"a":"a","b":"a"}],"rank":{"a":["a,a,r1","a,r1"],"zz":["zz,r1"]}}`
	const missingLink = `{"name":"m","nodes":["a","b","c"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,c,r1"]}}`

	// b is declared by the session alone; its two-path ranking is one
	// preference constraint (the verdict used to be about an instance
	// without it: num_preference 0).
	code, out := post(t, ts.URL+"/v1/analyze", `{"instance":`+sessionDeclared+`}`)
	if code != http.StatusOK || out["safe"] != true || out["num_preference"] != 1.0 || out["nodes"] != 2.0 {
		t.Errorf("session-declared ranking: %d %v, want safe with num_preference 1 over 2 nodes", code, out)
	}
	code, out = post(t, ts.URL+"/v1/instances", `{"id":"sd","instance":`+sessionDeclared+`}`)
	if code != http.StatusCreated || out["nodes"] != 2.0 {
		t.Errorf("session-declared create: %d %v", code, out)
	}
	var got struct {
		Instance scenario.InstanceJSON `json:"instance"`
	}
	call(t, "GET", ts.URL+"/v1/instances/sd", nil, &got)
	if len(got.Instance.Rank["b"]) != 2 {
		t.Errorf("resident instance lost b's ranking: %v", got.Instance.Rank)
	}

	for _, c := range []struct {
		name, path, body string
		code             int
		want             string // the whole error message
	}{
		{"undeclared rank key", "/v1/analyze", `{"instance":` + undeclaredKey + `}`, 400,
			"decoding instance: spp u: ranking for undeclared node zz"},
		{"undeclared rank key, create", "/v1/instances", `{"instance":` + undeclaredKey + `}`, 400,
			"decoding instance: spp u: ranking for undeclared node zz"},
		{"invalid path", "/v1/analyze", `{"instance":` + missingLink + `}`, 400,
			"decoding instance: spp m: node a: path acr1 uses missing link a→c"},
		{"gadget beside an invalid instance", "/v1/analyze", `{"gadget":"fig3","instance":` + missingLink + `}`, 400,
			"gadget and instance are mutually exclusive"},
		{"neither", "/v1/analyze", `{}`, 400, "request wants a gadget name or an inline instance"},
		{"null body", "/v1/analyze", `null`, 400, "request wants a gadget name or an inline instance"},
		{"null instance", "/v1/instances", `{"instance":null,"gadget":null,"id":null}`, 400, "request wants a gadget name or an inline instance"},
		{"unknown gadget", "/v1/analyze", `{"gadget":"nope"}`, 400, `unknown gadget "nope"`},
		{"id is create's", "/v1/analyze", `{"id":"x","gadget":"fig3"}`, 400, `decoding request: offset 5: unknown field "id"`},
		{"exact-case keys", "/v1/analyze", `{"Gadget":"fig3"}`, 400, `decoding request: offset 9: unknown field "Gadget"`},
		{"repeated key", "/v1/analyze", `{"gadget":"fig3","gadget":"fig3"}`, 400, `decoding request: offset 25: duplicate key "gadget"`},
		{"unknown instance field", "/v1/analyze", `{"instance":{"nodes":[],"links":[]}}`, 400, `decoding request: offset 31: unknown field "links"`},
		{"not an object", "/v1/instances", `[]`, 400, `decoding request: offset 0: unexpected '[', want an object`},
		{"empty", "/v1/instances", ``, 400, "decoding request: offset 0: unexpected end of input, want an object"},
		{"bad id", "/v1/instances", `{"id":"a b","gadget":"fig3"}`, 400, `instance id "a b": want 1-128 chars of [a-zA-Z0-9._-]`},
	} {
		code, out := post(t, ts.URL+c.path, c.body)
		if code != c.code || out["error"] != c.want {
			t.Errorf("%s: %d %q, want %d %q", c.name, code, out["error"], c.code, c.want)
		}
	}

	// Field order is free, in the envelope and below it.
	code, out = post(t, ts.URL+"/v1/instances", ` {"instance" : {"rank":{"a":["a,b,r","a,r"],"b":["b,r"]},"sessions":[{"b":"b","a":"a"}],"name":"rev"} , "id" : "ordered"} `)
	if code != http.StatusCreated || out["id"] != "ordered" || out["name"] != "rev" || out["sessions"] != 1.0 {
		t.Errorf("reordered create: %d %v", code, out)
	}
}

// TestRequestFraming: a request is one JSON value and nothing but
// whitespace after it, on every endpoint that reads a body, and a body over
// the cap is 413 whether or not it announced its length.
func TestRequestFraming(t *testing.T) {
	_, ts := newUploadServer(t)
	if code, _ := post(t, ts.URL+"/v1/instances", `{"id":"x","gadget":"fig3"}`+"\n"); code != http.StatusCreated {
		t.Fatalf("create with a trailing newline: %d", code)
	}
	whatif := `{"discard":true,"ops":[{"op":"rerank","node":"a","paths":["a,d,r1"]}]}`
	if code, out := post(t, ts.URL+"/v1/instances/x/whatif", whatif+" \n"); code != http.StatusOK {
		t.Fatalf("what-if with trailing whitespace: %d %v", code, out)
	}
	for _, c := range []struct{ name, path, body string }{
		{"analyze, garbage", "/v1/analyze", `{"gadget":"fig3"} trailing garbage`},
		{"analyze, second value", "/v1/analyze", `{"gadget":"fig3"}{"gadget":"nope"}`},
		{"analyze, stray closer", "/v1/analyze", `{"gadget":"fig3"}}`},
		{"create, garbage", "/v1/instances", `{"id":"y","gadget":"fig3"} x`},
		{"whatif, garbage", "/v1/instances/x/whatif", whatif + ` x`},
		{"whatif, second value", "/v1/instances/x/whatif", whatif + whatif},
		{"whatif, stray closer", "/v1/instances/x/whatif", whatif + `]`},
	} {
		code, out := post(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest || !strings.HasPrefix(fmt.Sprint(out["error"]), "decoding request: ") {
			t.Errorf("%s: %d %v, want 400 decoding request: …", c.name, code, out)
		}
	}
	var list struct {
		Instances []instanceInfo `json:"instances"`
	}
	if call(t, "GET", ts.URL+"/v1/instances", nil, &list); len(list.Instances) != 1 {
		t.Errorf("a request with trailing data loaded an instance: %+v", list.Instances)
	}

	big := `{"gadget":"` + strings.Repeat("x", maxBody+1) + `"}`
	for _, path := range []string{"/v1/analyze", "/v1/instances", "/v1/instances/x/whatif"} {
		// Announced: refused on Content-Length. Chunked: refused at the cap.
		for _, body := range []io.Reader{strings.NewReader(big), struct{ io.Reader }{strings.NewReader(big)}} {
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(msg, []byte("decoding request: ")) {
				t.Errorf("%s, %d-byte body (announced %v): %d %s, want 413", path, len(big), resp.ContentLength >= 0, resp.StatusCode, msg)
			}
		}
	}
}

// TestUploadDecodeIsVisible: the layer that used to be most of an upload is
// one span of the request's tree, with what it read as attributes, and two
// histograms on the server's registry.
func TestUploadDecodeIsVisible(t *testing.T) {
	obs.Flight().SetSlowThreshold(time.Nanosecond) // retain every op's span tree
	defer obs.Flight().SetSlowThreshold(0)
	s, ts := newUploadServer(t)
	in := scenario.InternetSPP("internet:200", topology.GenerateInternet(1, topology.InternetParams{N: 200}), 3)
	body, err := json.Marshal(map[string]any{"id": "net", "instance": scenario.EncodeInstance(in)})
	if err != nil {
		t.Fatal(err)
	}
	if code, out := post(t, ts.URL+"/v1/instances", string(body)); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, out)
	}
	// One bad hop: Validate words the rejection, and the span says so.
	broken := bytes.Replace(body, []byte(`"as7,`), []byte(`"as7,nowhere,`), 1)
	if code, out := post(t, ts.URL+"/v1/analyze", strings.Replace(string(broken), `"id":"net",`, "", 1)); code != http.StatusBadRequest {
		t.Fatalf("analyze with a bad hop: %d %v", code, out)
	}

	var fl obs.FlightSnapshot
	call(t, "GET", ts.URL+"/v1/flightrecorder", nil, &fl)
	decode := func(kind, detail string) map[string]string {
		for _, op := range fl.Slow {
			if op.Kind == kind && op.Detail == detail && len(op.Spans) == 1 {
				for _, c := range op.Spans[0].Children {
					if c.Name == "decode" {
						return c.Attrs
					}
				}
			}
		}
		t.Fatalf("no %s op for %q with a decode span: %+v", kind, detail, fl.Slow)
		return nil
	}
	paths := 0
	for _, ranked := range in.Permitted {
		paths += len(ranked)
	}
	if got, want := fmt.Sprint(decode("create", "net")), fmt.Sprint(map[string]string{
		"bytes": fmt.Sprint(len(body)), "nodes": "200", "paths": fmt.Sprint(paths), "fallback_validate": "0",
	}); got != want {
		t.Errorf("create's decode span: %s, want %s", got, want)
	}
	if got := decode("analyze", ""); got["fallback_validate"] != "1" || got["nodes"] != "200" {
		t.Errorf("rejected analyze's decode span: %v, want fallback_validate 1", got)
	}

	if n := s.Metrics().DecodeDuration.Count("create"); n != 1 {
		t.Errorf("fsr_request_decode_seconds{create} has %d observations, want 1", n)
	}
	text := s.Metrics().Expose()
	for _, want := range []string{
		`fsr_request_decode_seconds_count{endpoint="analyze"} 1`,
		fmt.Sprintf(`fsr_request_body_bytes_sum{endpoint="create"} %d`, len(body)),
		`fsr_request_body_bytes_bucket{endpoint="create",le="65536"} 1`,
		`fsr_request_body_bytes_bucket{endpoint="create",le="4096"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

// TestUploadCostIsTheBody is the structural guard on first contact: what a
// POST /v1/analyze with an inline instance allocates before the analysis is
// entered is the instance it hands over — at most 2.5 objects per node and
// 8 bytes per body byte, in the same proportion at internet:2000 and
// internet:8000. (Through encoding/json, an InstanceJSON, strings.Split and
// the string-keyed validator it was 12.7 objects per node and 17 bytes per
// body byte.) The first request of a daemon pays for the body buffer on top
// and stays under the same limits.
func TestUploadCostIsTheBody(t *testing.T) {
	if testing.Short() {
		t.Skip("internet:8000 instance")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a random share of what it is handed")
	}
	runtime.GC()
	runtime.GC()                                     // two collections empty the buffer pools: the first request below is a daemon's first
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // and none refills them mid-measurement

	type cost struct{ allocs, bytes float64 }
	var entered runtime.MemStats
	s := New(Options{
		DiagInterval: time.Hour,
		Analyze: func(context.Context, *spp.Instance) (analysis.Result, []spp.Node, error) {
			runtime.ReadMemStats(&entered)
			return analysis.Result{Sat: true}, nil, nil
		},
	})
	defer s.Close()
	h := s.Handler()
	measure := func(body []byte) cost {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("analyze: status %d: %.200s", w.Code, w.Body)
		}
		return cost{float64(entered.Mallocs - before.Mallocs), float64(entered.TotalAlloc - before.TotalAlloc)}
	}

	sizes := []int{8000, 2000} // the larger first: its first request is the daemon's
	var perNode, perByte [2]float64
	for i, n := range sizes {
		in := scenario.InternetSPP(fmt.Sprintf("internet:%d", n), topology.GenerateInternet(1, topology.InternetParams{N: n}), 3)
		body, err := json.Marshal(map[string]any{"instance": scenario.EncodeInstance(in)})
		if err != nil {
			t.Fatal(err)
		}
		// A recycled buffer parked on the other P is out of reach: the
		// steady state is the cheapest of a few requests.
		first, warm := measure(body), measure(body)
		for range 3 {
			if c := measure(body); c.bytes < warm.bytes {
				warm = c
			}
		}
		perNode[i], perByte[i] = warm.allocs/float64(n), warm.bytes/float64(len(body))
		t.Logf("internet:%d, %d-byte body: %.0f allocations (%.2f per node), %.0f B (%.2f per body byte) before Analyze; first request %.0f allocations, %.2f B per body byte",
			n, len(body), warm.allocs, perNode[i], warm.bytes, perByte[i], first.allocs, first.bytes/float64(len(body)))
		for _, c := range []cost{first, warm} {
			if c.allocs > 2.5*float64(n)+64 {
				t.Errorf("internet:%d: %.0f allocations before Analyze, want at most 2.5 per node + 64 = %.0f", n, c.allocs, 2.5*float64(n)+64)
			}
			if c.bytes > 8*float64(len(body)) {
				t.Errorf("internet:%d: %.0f B allocated before Analyze, want at most 8 × the %d-byte body", n, c.bytes, len(body))
			}
		}
	}
	within := func(a, b float64) bool { return a <= 1.1*b && b <= 1.1*a }
	if !within(perNode[0], perNode[1]) {
		t.Errorf("allocations per node: %.2f at internet:%d, %.2f at internet:%d, want within 10%%", perNode[0], sizes[0], perNode[1], sizes[1])
	}
	if !within(perByte[0], perByte[1]) {
		t.Errorf("bytes per body byte: %.2f at internet:%d, %.2f at internet:%d, want within 10%%", perByte[0], sizes[0], perByte[1], sizes[1])
	}
}
