package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/spp/spptest"
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

// TestWhatIfDecodeIsObserved: a what-if's body is read like an upload's —
// by the byte reader, with its strictness and its error text, observed in
// the per-endpoint decode histograms under endpoint="whatif" — and a body it
// refuses leaves the instance as it was.
func TestWhatIfDecodeIsObserved(t *testing.T) {
	s, ts := newUploadServer(t)
	if code, out := post(t, ts.URL+"/v1/instances", `{"id":"x","gadget":"fig3"}`); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, out)
	}
	whatif := `{"discard":true,"ops":[{"op":"rerank","node":"a","paths":["a,d,r1"]}]}`
	if code, out := post(t, ts.URL+"/v1/instances/x/whatif", whatif); code != http.StatusOK || out["safe"] != true {
		t.Fatalf("what-if: %d %v", code, out)
	}
	text := s.Metrics().Expose()
	for _, want := range []string{
		`fsr_request_decode_seconds_count{endpoint="whatif"} 1`,
		fmt.Sprintf(`fsr_request_body_bytes_sum{endpoint="whatif"} %d`, len(whatif)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}

	for _, c := range []struct{ name, body, want string }{
		{"repeated ops", `{"ops":[],"ops":[]}`, `decoding request: offset 15: duplicate key "ops"`},
		{"unknown field", `{"ops":[{"op":"rerank","node":"a","via":"b"}]}`, `decoding request: offset 39: unknown field "via"`},
		{"exact-case keys", `{"Ops":[]}`, `decoding request: offset 6: unknown field "Ops"`},
		{"no op", `{"ops":[]}`, "what-if wants at least one op"},
	} {
		if code, out := post(t, ts.URL+"/v1/instances/x/whatif", c.body); code != http.StatusBadRequest || out["error"] != c.want {
			t.Errorf("%s: %d %q, want 400 %q", c.name, code, out["error"], c.want)
		}
	}
	if n := s.Metrics().DecodeDuration.Count("whatif"); n != 5 {
		t.Errorf("fsr_request_decode_seconds{whatif} has %d observations, want 5", n)
	}
	var v verdict
	if call(t, "POST", ts.URL+"/v1/instances/x/verify", nil, &v); v.Safe || v.Mode != "full" {
		t.Errorf("verify after the refused what-ifs: %+v, want fig3's unsafe verdict, decided for the first time", v)
	}
}

// TestUploadCostIsTheBody is the structural guard on first contact: what a
// POST /v1/analyze with an inline instance allocates before the analysis is
// entered. A warm daemon reads the upload into the store the previous one
// released, so what it allocates is the upload's distinct token strings —
// at most 1.1 objects per node + 64 and 0.5 B per body byte, in the same
// objects per node at internet:2000 and internet:8000. (With a store per
// upload it was 1.04 objects per node and 6.3 B per body byte; through
// encoding/json, an InstanceJSON, strings.Split and the string-keyed
// validator, 12.7 and 17.) A first request, which finds no store parked,
// builds one at newWire's size hints and pays for the body buffer on top:
// at most 2.5 objects per node + 64 and 8 B per body byte.
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
	// A request that is never released keeps the store it took: the next
	// upload finds none parked, as a daemon's first does.
	emptySlot := func() { scenario.ReadRequest([]byte(`{"instance":{}}`), false) }

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
	var perNode [2]float64
	for i, n := range sizes {
		in := scenario.InternetSPP(fmt.Sprintf("internet:%d", n), topology.GenerateInternet(1, topology.InternetParams{N: n}), 3)
		body, err := json.Marshal(map[string]any{"instance": scenario.EncodeInstance(in)})
		if err != nil {
			t.Fatal(err)
		}
		emptySlot()
		// A recycled buffer parked on the other P is out of reach: the
		// steady state is the cheapest of a few requests.
		first, warm := measure(body), measure(body)
		for range 3 {
			if c := measure(body); c.bytes < warm.bytes {
				warm = c
			}
		}
		perNode[i] = warm.allocs / float64(n)
		t.Logf("internet:%d, %d-byte body: %.0f allocations (%.2f per node), %.0f B (%.2f per body byte) before Analyze; first request %.0f allocations (%.2f per node), %.2f B per body byte",
			n, len(body), warm.allocs, perNode[i], warm.bytes, warm.bytes/float64(len(body)), first.allocs, first.allocs/float64(n), first.bytes/float64(len(body)))
		for _, c := range []struct {
			name                 string
			cost                 cost
			perNode, perBodyByte float64
		}{{"first request", first, 2.5, 8}, {"warm request", warm, 1.1, 0.5}} {
			if limit := c.perNode*float64(n) + 64; c.cost.allocs > limit {
				t.Errorf("internet:%d, %s: %.0f allocations before Analyze, want at most %.1f per node + 64 = %.0f", n, c.name, c.cost.allocs, c.perNode, limit)
			}
			if limit := c.perBodyByte * float64(len(body)); c.cost.bytes > limit {
				t.Errorf("internet:%d, %s: %.0f B allocated before Analyze, want at most %.1f × the %d-byte body", n, c.name, c.cost.bytes, c.perBodyByte, len(body))
			}
		}
	}
	if a, b := perNode[0], perNode[1]; a > 1.1*b || b > 1.1*a {
		t.Errorf("allocations per node: %.2f at internet:%d, %.2f at internet:%d, want within 10%%", a, sizes[0], b, sizes[1])
	}
}

// TestOneShotAnswersLikeAFreshDaemon: one daemon taking a run of one-shot
// uploads — large and small, safe and unsafe, inline and by gadget, and
// the three ways an upload is refused — answers each as a fresh daemon
// with no store parked does, byte for byte bar duration_ms, whatever the
// upload before it left in the store. A store is parked after every
// refusal, so each way out of /v1/analyze handed back what it took.
func TestOneShotAnswersLikeAFreshDaemon(t *testing.T) {
	inline := func(in *spp.Instance) string {
		body, err := json.Marshal(map[string]any{"instance": scenario.EncodeInstance(in)})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	large := internetInstance(2000)
	planted := large.Clone()
	pair := spptest.NewReach(planted).DisputePairs()[0]
	u, v := pair[0], pair[1]
	ou, ov := spp.Node("rx_"+string(u)), spp.Node("rx_"+string(v))
	planted.Rank(u, spp.Path{u, v, ov}, spp.Path{u, ou})
	planted.Rank(v, spp.Path{v, u, ou}, spp.Path{v, ov})
	safe := inline(large)
	steps := []struct {
		name, body string
		code       int
		want       string // in the answer
	}{
		{"internet:2000", safe, http.StatusOK, `"safe":true`},
		{"trailing data", safe + " x", http.StatusBadRequest, "after the request's value"}, // read whole, then refused
		{"planted", inline(planted), http.StatusOK, `"safe":false`},
		{"bad hop", strings.Replace(safe, `"as7,`, `"as7,nowhere,`, 1), http.StatusBadRequest, "uses missing link as7→nowhere"},
		{"chain:400", inline(spp.ChainGadget(400)), http.StatusOK, `"safe":true`},
		{"fig3 by gadget", `{"gadget":"fig3"}`, http.StatusOK, `"safe":false`},
		{"fig3 inline", inline(spp.Figure3IBGP()), http.StatusOK, `"safe":false`},
		{"too large", `{"gadget":"` + strings.Repeat("x", maxBody) + `"}`, http.StatusRequestEntityTooLarge, "exceeds the"},
		{"internet:2000 again", safe, http.StatusOK, `"safe":true`},
	}
	duration := regexp.MustCompile(`"duration_ms":[0-9.e+-]+`)
	analyze := func(url, body string) (int, string) {
		resp, err := http.Post(url+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, duration.ReplaceAllString(string(out), `"duration_ms":0`)
	}

	fresh := make([]string, len(steps))
	for i, st := range steps {
		scenario.ReadRequest([]byte(`{"instance":{}}`), false) // never released: it takes the parked store
		_, ts := newUploadServer(t)
		code, out := analyze(ts.URL, st.body)
		if code != st.code || !strings.Contains(out, st.want) {
			t.Fatalf("%s on a fresh daemon: %d %.200s, want %d and %s", st.name, code, out, st.code, st.want)
		}
		fresh[i] = out
	}

	_, ts := newUploadServer(t)
	for i, st := range steps {
		code, out := analyze(ts.URL, st.body)
		if code != st.code || out != fresh[i] {
			t.Errorf("%s: %d %.300s\nfresh daemon: %d %.300s", st.name, code, out, st.code, fresh[i])
		}
		if code != http.StatusOK && scenario.SpareStorage() == 0 {
			t.Errorf("%s: no store parked after the %d response", st.name, code)
		}
	}
}
