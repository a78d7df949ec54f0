// The byte reader against its oracle: encoding/json (unknown fields
// disallowed, nothing but whitespace after the value) followed by
// DecodeInstance. FuzzReadInstance and the edge table share one check; the
// reader's intended departures from encoding/json are the named exclusions
// of keyQuirks and nothing else.
package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// oracleDecode is the encoding/json route a body took before the byte
// reader: Decoder with DisallowUnknownFields, plus the end-of-input check
// Decoder.Decode leaves out (named difference: trailing data).
func oracleDecode(data []byte) (scenario.InstanceJSON, error) {
	var j scenario.InstanceJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return j, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return j, errors.New("data after the value")
	}
	return j, nil
}

// keyQuirks walks a JSON text and reports the two things about its keys on
// which the reader is deliberately stricter than encoding/json:
//
//   - folded: a key of the instance object or of a session object that
//     names a field only case-insensitively ("Nodes"). encoding/json takes
//     it for the field; the reader knows exact keys only.
//   - repeated: an object with the same key twice. encoding/json keeps the
//     later scalar or string list but merges a repeated rank, and decodes a
//     repeated sessions array over the elements of the first; the reader
//     rejects the body, as encoding/json/v2 does.
//
// A text that is not JSON reports neither: both sides reject it anyway.
func keyQuirks(data []byte) (folded, repeated bool) {
	return quirks(data, func(parent *quirkFrame) []string {
		switch {
		case parent == nil:
			return []string{"name", "nodes", "origins", "sessions", "rank"}
		case parent.array && strings.EqualFold(parent.key, "sessions"):
			return []string{"a", "b", "cost"}
		}
		return nil
	})
}

// quirkFrame is one open object or array of the text quirks walks.
type quirkFrame struct {
	fields []string // the exact keys of this object, nil when any key goes
	keys   map[string]bool
	key    string // the key whose value is being read
	isKey  bool   // an object expecting a key next
	array  bool
}

// quirks is keyQuirks over any schema: fieldsUnder names the exact keys of
// an object opened under parent (nil at the top), nil when any key goes.
func quirks(data []byte, fieldsUnder func(parent *quirkFrame) []string) (folded, repeated bool) {
	type frame = quirkFrame
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return folded, repeated
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{', '[':
				f := &frame{array: v == '[', isKey: v == '{', keys: map[string]bool{}}
				if top != nil {
					f.key = top.key // the key a value sits under, however deep in arrays
				}
				if v == '{' {
					f.fields = fieldsUnder(top)
				}
				stack = append(stack, f)
				continue
			default:
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					top = stack[len(stack)-1]
				}
			}
		case string:
			if top != nil && !top.array && top.isKey {
				if top.keys[v] {
					repeated = true
				}
				top.keys[v] = true
				for _, f := range top.fields {
					if v != f && strings.EqualFold(v, f) {
						folded = true
					}
				}
				top.key, top.isKey = v, false
				continue
			}
		}
		if top != nil && !top.array {
			top.isKey = true // a value just ended
		}
	}
}

// requireReaderParity runs one body through the byte reader and through
// the oracle and fails unless they agree: same accept/reject, the same
// message for a structural rejection, the same instance — which Validate
// accepts, the soundness of the reader's id-space fast accept — and the
// same instance the naive build makes of it.
func requireReaderParity(t *testing.T, label string, data []byte) *spp.Instance {
	t.Helper()
	got, st, gotErr := scenario.ReadInstance(data)
	requireEnvelopeParity(t, label, data, got, st, gotErr)
	if folded, repeated := keyQuirks(data); folded || repeated {
		if gotErr == nil {
			t.Fatalf("%s: reader accepted a body with a case-folded (%v) or repeated (%v) key", label, folded, repeated)
		}
		return nil
	}
	j, jsonErr := oracleDecode(data)
	if jsonErr != nil {
		if gotErr == nil {
			t.Fatalf("%s: reader accepted what encoding/json rejects: %v", label, jsonErr)
		}
		return nil
	}
	want, wantErr := scenario.DecodeInstance(j)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: ReadInstance: %s, Unmarshal+DecodeInstance: %s", label, errText(gotErr), errText(wantErr))
	}
	if gotErr != nil {
		if !st.FallbackValidate {
			t.Fatalf("%s: structural rejection %q was not worded by Instance.Validate", label, gotErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reader's instance differs from DecodeInstance's:\n%+v\nvs\n%+v", label, got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: reader accepted an instance Validate rejects: %v", label, err)
	}
	if st.Nodes != len(got.Nodes) || st.FallbackValidate {
		t.Fatalf("%s: stats %+v for an accepted instance of %d nodes", label, st, len(got.Nodes))
	}
	if len(j.Nodes)+len(j.Sessions) <= 64 { // the naive oracle is quadratic
		requireIngestParity(t, label, j)
	}
	return got
}

// envelope wraps a wire form as the body of POST /v1/analyze.
func envelope(data []byte) []byte {
	return append(append([]byte(`{"instance":`), data...), '}')
}

// requireEnvelopeParity reads data as the daemon does — wrapped in
// {"instance": …}, through ReadRequest — twice, releasing the request in
// between, so the second read runs in the store the first handed back. Each
// read must come out as ReadInstance read the bare body: the same instance
// and stats, the same Validate message, or a rejection. Two bodies are
// exempt: a bare null (an envelope's null instance is no instance), and one
// whose first value is followed by a comma, which the envelope reads as its
// next key.
func requireEnvelopeParity(t *testing.T, label string, data []byte, want *spp.Instance, wantSt scenario.ReadStats, wantErr error) {
	t.Helper()
	if string(bytes.Trim(data, " \t\r\n")) == "null" || continuesEnvelope(data) {
		return
	}
	syntax := wantErr != nil && strings.HasPrefix(wantErr.Error(), "offset ")
	for round := range 2 {
		req, err := scenario.ReadRequest(envelope(data), false)
		switch {
		case syntax:
			if err == nil {
				t.Fatalf("%s: enveloped read %d accepted what ReadInstance rejects: %v", label, round, wantErr)
			}
		case err != nil:
			t.Fatalf("%s: enveloped read %d: %v, ReadInstance: %s", label, round, err, errText(wantErr))
		case errText(req.InstanceErr) != errText(wantErr) || req.Stats != wantSt:
			t.Fatalf("%s: enveloped read %d: %s %+v, ReadInstance: %s %+v", label, round, errText(req.InstanceErr), req.Stats, errText(wantErr), wantSt)
		case !reflect.DeepEqual(req.Instance, want):
			t.Fatalf("%s: enveloped read %d built another instance:\n%+v\nvs\n%+v", label, round, req.Instance, want)
		}
		req.Release()
	}
}

// continuesEnvelope reports a body whose first JSON value is followed by a
// comma.
func continuesEnvelope(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
	return len(rest) > 0 && rest[0] == ','
}

// fig3Body is Figure 3's gadget as the benchmark's client would send it.
var fig3Body = func() string {
	body, err := json.Marshal(scenario.EncodeInstance(spp.Figure3IBGP()))
	if err != nil {
		panic(err)
	}
	return string(body)
}()

// edgeBodies is the JSON edge table: one body per way a wire form can be
// unusual without being wrong, or wrong in a way the two decoders must
// reject alike.
func edgeBodies() map[string]string {
	session := func(cost string) string {
		return `{"nodes":["a","b"],"sessions":[{"a":"a","b":"b","cost":` + cost + `}],"rank":{"a":["a,r"],"b":["b,a,r"]}}`
	}
	return map[string]string{
		"fig3":                  fig3Body,
		"escaped-quote":         `{"name":"q\"q","nodes":["a\"b"],"rank":{"a\"b":["a\"b,r\"1"]}}`,
		"escaped-backslash":     `{"nodes":["a\\b"],"rank":{"a\\b":["a\\b,r\\"]}}`,
		"escaped-solidus-etc":   `{"nodes":["a\/\b\f\n\r\t"],"rank":{"a\/\b\f\n\r\t":["a/\u0008\u000c\u000a\u000d\u0009,r"]}}`,
		"bad-escape":            `{"nodes":["a\x"]}`,
		"short-unicode-escape":  `{"nodes":["a\u12"]}`,
		"non-ascii":             `{"name":"é","nodes":["é","ü"],"sessions":[{"a":"é","b":"ü"}],"rank":{"é":["é,ü,r1","\u00e9,r1"],"ü":["ü,r1"]}}`,
		"surrogate-pair":        `{"nodes":["\ud83d\ude00"],"rank":{"😀":["\ud83d\ude00,r"]}}`,
		"lone-surrogate":        `{"nodes":["\ud83d","\ude00x","\ud83d\u0041"],"rank":{"\ud83d":["\ufffd,r"]}}`,
		"invalid-utf8":          "{\"nodes\":[\"a\xffb\",\"\xc3\"],\"rank\":{\"a\xffb\":[\"a\ufffdb,r\"]}}",
		"invalid-utf8-key":      "{\"nodes\":[\"\xfe\"],\"rank\":{\"\xff\":[\"\xfd,r\"]}}",
		"space-in-token":        `{"nodes":["a b"," "],"sessions":[{"a":"a b","b":" "}],"rank":{"a b":["a b, ,r 1","a b,r 1"]," ":[" ,r 1"]}}`,
		"escaped-nul":           `{"nodes":["a\u0000b"],"rank":{"a\u0000b":["a\u0000b,r\u0000"]}}`,
		"raw-control":           "{\"nodes\":[\"a\tb\"]}",
		"escaped-comma":         `{"nodes":["a","b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a\u002cb\u002cr","a,r"],"b":["b,r"]}}`,
		"escaped-key":           `{"n\u0061me":"x","\u006eodes":["a"],"rank":{"\u0061":["a,r"]}}`,
		"comma-only-path":       `{"nodes":["a"],"rank":{"a":[","]}}`,
		"empty-path":            `{"nodes":["a"],"rank":{"a":[""]}}`,
		"empty-tokens":          `{"nodes":["","a"],"origins":[""],"sessions":[{"a":"","b":"a"}],"rank":{"":[","],"a":["a,,"]}}`,
		"empty-session":         `{"sessions":[{}],"rank":{"":[",r"]}}`,
		"null-name":             `{"name":null,"nodes":["a"],"rank":{"a":["a,r"]}}`,
		"null-nodes":            `{"nodes":null,"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,r"]}}`,
		"null-origins":          `{"nodes":["a"],"origins":null,"rank":{"a":["a,r"]}}`,
		"null-sessions":         `{"nodes":["a"],"sessions":null,"rank":{"a":["a,r"]}}`,
		"null-rank":             `{"nodes":["a"],"rank":null}`,
		"null-ranking":          `{"nodes":["a","b"],"rank":{"a":null,"b":["b,r"]}}`,
		"null-elements":         `{"nodes":[null,"a"],"origins":[null],"sessions":[null,{"a":null,"b":"a","cost":null}],"rank":{"a":[null,"a,"]}}`,
		"null-body":             `null`,
		"null-then-garbage":     `nullx`,
		"whitespace":            " \t\r\n{ \"name\" : \"w\" , \"nodes\" : [ \"a\" , \"b\" ] ,\n\"sessions\" : [ { \"a\" : \"a\" , \"b\" : \"b\" , \"cost\" : 2 } ] , \"rank\" : { \"a\" : [ \"a,r\" ] , \"b\" : [ ] } } \n",
		"empty-containers":      `{"nodes":[],"origins":[],"sessions":[],"rank":{}}`,
		"reverse-order":         `{"rank":{"b":["b,a,r1","b,r2"],"a":["a,r1"]},"sessions":[{"cost":3,"b":"b","a":"a"}],"origins":["r1","r2"],"nodes":["a","b"],"name":"rev"}`,
		"rank-before-nodes":     `{"rank":{"a":["a,b,r","a,r"],"b":["b,r"]},"nodes":["b"],"sessions":[{"a":"a","b":"b"}]}`,
		"session-declared":      `{"nodes":["a"],"origins":["o"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,o"],"b":["b,a,o","b,o"]}}`,
		"undeclared-rank-key":   `{"nodes":["a"],"sessions":[{"a":"a","b":"a"}],"rank":{"a":["a,a,r1","a,r1"],"zz":["zz,r1"]}}`,
		"undeclared-empty-key":  `{"nodes":["a"],"rank":{"a":["a,r1"],"zz":[]}}`,
		"undeclared-and-bad":    `{"nodes":["a"],"rank":{"a":["a"],"zz":["zz,r1"],"yy":null}}`,
		"duplicate-name":        `{"name":"x","name":"y"}`,
		"duplicate-nodes":       `{"nodes":["a"],"nodes":["b"],"rank":{"b":["b,r"]}}`,
		"duplicate-rank":        `{"nodes":["a","b"],"rank":{"a":["a,r"]},"rank":{"b":["b,r"]}}`,
		"duplicate-rank-key":    `{"nodes":["a"],"rank":{"a":["a,r"],"a":["a,q"]}}`,
		"duplicate-escaped":     `{"nodes":["a"],"rank":{"a":["a,r"],"\u0061":["a,q"]}}`,
		"duplicate-sessions":    `{"sessions":[{"a":"x","b":"y","cost":3}],"sessions":[{"a":"p"}]}`,
		"duplicate-session-key": `{"sessions":[{"a":"x","a":"y","b":"z"}]}`,
		"folded-key":            `{"Nodes":["a"],"rank":{"a":["a,r"]}}`,
		"folded-session-key":    `{"sessions":[{"A":"a","b":"b"}]}`,
		"kelvin-key":            "{\"ran\u212a\":{}}",
		"upper-rank-key":        `{"nodes":["A","NAME"],"sessions":[{"a":"A","b":"NAME"}],"rank":{"A":["A,r"],"NAME":["NAME,A,r"]}}`,
		"cost-int":              session("3"),
		"cost-negative":         session("-3"),
		"cost-negative-zero":    session("-0"),
		"cost-float":            session("3.0"),
		"cost-exponent":         session("1e2"),
		"cost-30-digits":        session("123456789012345678901234567890"),
		"cost-max":              session("9223372036854775807"),
		"cost-overflow":         session("9223372036854775808"),
		"cost-leading-zero":     session("03"),
		"cost-plus":             session("+3"),
		"cost-minus":            session("-"),
		"cost-string":           session(`"3"`),
		"cost-bool":             session("true"),
		"unknown-top":           `{"nodes":["a"],"extra":1}`,
		"unknown-session":       `{"sessions":[{"a":"a","b":"b","weight":1}]}`,
		"unknown-after-bad":     `{"nodes":[1],"extra":1}`,
		"wrong-type-nodes":      `{"nodes":"a"}`,
		"wrong-type-node":       `{"nodes":[1]}`,
		"wrong-type-rank":       `{"rank":[]}`,
		"wrong-type-ranking":    `{"rank":{"a":"a,r"}}`,
		"wrong-type-path":       `{"rank":{"a":[["a","r"]]}}`,
		"wrong-type-session":    `{"sessions":["a-b"]}`,
		"wrong-type-body":       `["nodes"]`,
		"trailing-comma-array":  `{"nodes":["a",]}`,
		"trailing-comma":        `{"nodes":["a"],}`,
		"leading-comma":         `{,"nodes":["a"]}`,
		"missing-colon":         `{"nodes"["a"]}`,
		"missing-comma":         `{"nodes":["a"]"name":"x"}`,
		"bare-key":              `{nodes:["a"]}`,
		"empty-body":            ``,
		"blank-body":            "  \n",
		"trailing-garbage":      `{"nodes":["a"]} x`,
		"trailing-brace":        `{"nodes":["a"]}}`,
		"two-values":            `{"nodes":["a"]}{"nodes":["b"]}`,
		"trailing-nul":          "{\"nodes\":[\"a\"]}\x00",
		"bom":                   "\xef\xbb\xbf{}",
		"missing-link":          `{"nodes":["a","b","c"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,c,r1"],"c":["c,r1"]}}`,
		"undeclared-hop":        `{"nodes":["a","b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,b,r1"],"b":["b,a,q,r1","b,r1"]}}`,
		"not-owned":             `{"nodes":["a","b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["b,r1"]}}`,
		"no-origin":             `{"nodes":["a","b"],"origins":["r1"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,b"]}}`,
		"origin-is-last-hop":    `{"nodes":["a","b"],"origins":["b"],"sessions":[{"a":"a","b":"b"}],"rank":{"a":["a,b"],"b":["b,a,b"]}}`,
	}
}

// TestReadInstanceEdgeTable runs every edge body, every truncation of the
// fig3 body, and the stack-depth body through the differential check, then
// pins what the table is there to show.
func TestReadInstanceEdgeTable(t *testing.T) {
	bodies := edgeBodies()
	for name, body := range bodies {
		requireReaderParity(t, name, []byte(body))
	}
	for cut := 0; cut < len(fig3Body); cut++ {
		if _, _, err := scenario.ReadInstance([]byte(fig3Body[:cut])); err == nil {
			t.Fatalf("fig3 body truncated at byte %d was accepted", cut)
		}
		requireReaderParity(t, fmt.Sprintf("fig3[:%d]", cut), []byte(fig3Body[:cut]))
	}
	// 10 000 levels inside a field the reader does not know: rejected at the
	// key, long before the nesting could matter to a recursive reader.
	deep := `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`
	if _, _, err := scenario.ReadInstance([]byte(deep)); err == nil || !strings.Contains(err.Error(), `unknown field "x"`) {
		t.Fatalf("depth-10000 unknown field: %v", err)
	}
	for _, known := range []string{`{"nodes":`, `{"rank":{"a":`, `{"sessions":[`} {
		if _, _, err := scenario.ReadInstance([]byte(known + strings.Repeat("[", 10000))); err == nil {
			t.Fatalf("depth-10000 nesting under %s accepted", known)
		}
	}

	accepted := func(name string) *spp.Instance {
		t.Helper()
		in, _, err := scenario.ReadInstance([]byte(bodies[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return in
	}
	rejected := func(name, want string) {
		t.Helper()
		if _, _, err := scenario.ReadInstance([]byte(bodies[name])); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one mentioning %q", name, err, want)
		}
	}
	if in := accepted("fig3"); !reflect.DeepEqual(in, spp.Figure3IBGP()) {
		t.Fatalf("fig3 body does not read back as the gadget:\n%+v", in)
	}
	if in := accepted("reverse-order"); in.Name != "rev" || fmt.Sprint(in.Nodes, in.Origins, in.Cost) != "[a b] [r1 r2] map[a→b:3 b→a:3]" {
		t.Fatalf("reverse-order: %+v", in)
	}
	// A node the sessions declare keeps its ranking (it used to be dropped).
	if in := accepted("session-declared"); len(in.Permitted["b"]) != 2 {
		t.Fatalf("session-declared node lost its ranking: %+v", in.Permitted)
	}
	if in := accepted("rank-before-nodes"); fmt.Sprint(in.Nodes, in.Origins) != "[b a] [r]" {
		t.Fatalf("rank-before-nodes: nodes %v origins %v", in.Nodes, in.Origins)
	}
	if in := accepted("escaped-comma"); len(in.Permitted["a"][0]) != 3 {
		t.Fatalf("an escaped comma must separate like a plain one: %q", in.Permitted["a"])
	}
	if in := accepted("invalid-utf8"); in.Nodes[0] != "a\ufffdb" {
		t.Fatalf("invalid UTF-8 must read as U+FFFD, got %q", in.Nodes)
	}
	// A rank key that names no declared node is Validate's error, reachable
	// from the wire at last.
	rejected("undeclared-rank-key", "spp : ranking for undeclared node zz")
	rejected("undeclared-empty-key", "ranking for undeclared node zz")
	rejected("undeclared-and-bad", `path "a" too short`) // declared nodes first, as Validate orders it
	rejected("duplicate-rank", `duplicate key "rank"`)
	rejected("duplicate-escaped", `duplicate key "a"`)
	rejected("duplicate-sessions", `duplicate key "sessions"`)
	rejected("folded-key", `unknown field "Nodes"`)
	rejected("trailing-garbage", "after the request's value")
	rejected("two-values", "after the request's value")
	rejected("cost-float", "not an integer")
}

// FuzzReadInstance drives arbitrary bytes through the byte reader and
// through encoding/json + DecodeInstance, then — like FuzzDecodeInstance —
// the accepted instance through Session.AnalyzeSPP against the algebra
// pipeline.
func FuzzReadInstance(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	for _, body := range edgeBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := requireReaderParity(t, "fuzz input", data)
		if in == nil || len(in.Nodes) > 64 {
			return
		}
		requireAnalysisParity(t, "fuzz input", in)
	})
}

// The what-if body as the daemon decoded it before the byte reader:
// encoding/json into whatIfRequest (unknown fields disallowed, nothing but
// whitespace after the value), then parsePath on every path.
type whatIfOp struct {
	Op    string   `json:"op"`
	Node  string   `json:"node,omitempty"`
	Paths []string `json:"paths,omitempty"`
	A     string   `json:"a,omitempty"`
	B     string   `json:"b,omitempty"`
	Cost  int      `json:"cost,omitempty"`
}

type whatIfRequest struct {
	Ops     []whatIfOp `json:"ops"`
	Discard bool       `json:"discard,omitempty"`
}

func parsePath(s string) spp.Path {
	parts := strings.Split(s, ",")
	p := make(spp.Path, 0, len(parts))
	for _, n := range parts {
		p = append(p, spp.Node(strings.TrimSpace(n)))
	}
	return p
}

// oracleWhatIf decodes a what-if body the old way, into ReadWhatIf's shape
// with empty lists nil.
func oracleWhatIf(data []byte) (scenario.WhatIf, error) {
	var req whatIfRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return scenario.WhatIf{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return scenario.WhatIf{}, errors.New("data after the value")
	}
	out := scenario.WhatIf{Discard: req.Discard}
	for _, o := range req.Ops {
		op := scenario.WhatIfOp{Op: o.Op, Node: spp.Node(o.Node), A: spp.Node(o.A), B: spp.Node(o.B), Cost: o.Cost}
		for _, ps := range o.Paths {
			op.Paths = append(op.Paths, parsePath(ps))
		}
		out.Ops = append(out.Ops, op)
	}
	return out, nil
}

// whatIfQuirks is keyQuirks for the what-if body's keys.
func whatIfQuirks(data []byte) (folded, repeated bool) {
	return quirks(data, func(parent *quirkFrame) []string {
		switch {
		case parent == nil:
			return []string{"ops", "discard"}
		case parent.array && strings.EqualFold(parent.key, "ops"):
			return []string{"op", "node", "paths", "a", "b", "cost"}
		}
		return nil
	})
}

// requireWhatIfParity runs one body through ReadWhatIf and the oracle and
// fails unless both reject it or both return the same ops, empty lists
// read as none. The exclusions are FuzzReadInstance's: a key matched only
// case-insensitively, a repeated key, and data after the value, all of
// which the reader rejects.
func requireWhatIfParity(t *testing.T, label string, data []byte) {
	t.Helper()
	got, gotErr := scenario.ReadWhatIf(data)
	if folded, repeated := whatIfQuirks(data); folded || repeated {
		if gotErr == nil {
			t.Fatalf("%s: ReadWhatIf accepted a body with a case-folded (%v) or repeated (%v) key", label, folded, repeated)
		}
		return
	}
	want, wantErr := oracleWhatIf(data)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: ReadWhatIf: %v, encoding/json: %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if !strings.HasPrefix(gotErr.Error(), "offset ") {
			t.Fatalf("%s: rejection %q does not say where", label, gotErr)
		}
		return
	}
	if len(got.Ops) == 0 {
		got.Ops = nil
	}
	for i := range got.Ops {
		if len(got.Ops[i].Paths) == 0 {
			got.Ops[i].Paths = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ReadWhatIf read\n%+v\nencoding/json + parsePath\n%+v", label, got, want)
	}
}

// whatIfBodies are what-if bodies at the edges of the format.
var whatIfBodies = []string{
	`{"ops":[{"op":"rerank","node":"a","paths":["a,d,r1","a,b,e,r2"]}],"discard":true}`,
	`{"discard":false,"ops":[{"op":"drop-session","a":"a","b":"b"},{"op":"add-session","a":"a","b":"c","cost":3}]}`,
	`{"ops":[{"op":"rerank","node":"a","paths":[" a , d ,r1\t","",",", null]}]}`,
	`{"ops":[null,{"op":null,"node":null,"paths":null,"a":null,"b":null,"cost":null}],"discard":null}`,
	`{"ops":null}`, `{}`, `null`, ` {"ops":[]} `,
	`{"o\u0070s":[{"op":"rer\u0061nk","node":"\u00e9","paths":["\u00e9,x\u2028"]}]}`,
	"{\"ops\":[{\"op\":\"rerank\",\"paths\":[\"a\xffb, c\xc3\"]}]}",
	`{"ops":[{"op":"rerank","node":"a","paths":["a,b\u00a0,\u0085c"]}]}`,
	`{"ops":[],"ops":[]}`, `{"OPS":[]}`, `{"ops":[{"Op":"x"}]}`, `{"ops":[{"op":"x","op":"y"}]}`,
	`{"ops":[{"op":"x","via":"y"}]}`, `{"ops":[],"extra":1}`, `{"ops":[]} []`, `{"ops":[]},`,
	`{"ops":[{"cost":1.5}]}`, `{"ops":[{"cost":-0}]}`, `{"ops":[{"cost":"3"}]}`, `{"ops":[{"cost":01}]}`,
	`{"ops":[{"cost":99999999999999999999}]}`, `{"discard":1}`, `{"discard":"true"}`, `{"discard":tru}`,
	`{"ops":[{"paths":[1]}]}`, `{"ops":[{"paths":"a,b"}]}`, `{"ops":{}}`, `[]`, `""`, ``, `{"ops":[,]}`,
	`{"ops":[{"op":"x",}]}`, `{"ops":[{"op":"x"}]`, `{"ops":[{"op":"\q"}]}`, "{\"ops\":[{\"op\":\"\x01\"}]}",
}

// TestReadWhatIfEdges holds ReadWhatIf to the oracle on the edge bodies,
// and checks that it says where a body goes wrong.
func TestReadWhatIfEdges(t *testing.T) {
	for _, body := range whatIfBodies {
		requireWhatIfParity(t, strconv.Quote(body), []byte(body))
	}
	for body, want := range map[string]string{
		`{"ops":[],"ops":[]}`:            `offset 15: duplicate key "ops"`,
		`{"ops":[{"op":"x","via":"y"}]}`: `offset 23: unknown field "via"`,
		`{"ops":[]} x`:                   `offset 11: unexpected 'x' after the request's value`,
		`{"discard":"true"}`:             `offset 11: unexpected '"', want a boolean`,
	} {
		if _, err := scenario.ReadWhatIf([]byte(body)); errText(err) != want {
			t.Errorf("%s: %s, want %s", body, errText(err), want)
		}
	}
}

// FuzzReadWhatIf drives arbitrary bytes through ReadWhatIf and through
// encoding/json + parsePath.
func FuzzReadWhatIf(f *testing.F) {
	for _, body := range whatIfBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireWhatIfParity(t, "fuzz input", data)
	})
}

func internetBody(tb testing.TB, n int) (*spp.Instance, []byte) {
	tb.Helper()
	in := scenario.InternetSPP(fmt.Sprintf("internet-%d", n), topology.GenerateInternet(1, topology.InternetParams{N: n}), 3)
	body, err := json.Marshal(scenario.EncodeInstance(in))
	if err != nil {
		tb.Fatal(err)
	}
	return in, body
}

// TestReadInstanceAtScale: on an internet instance the reader returns what
// the generator built, accepted on ids alone; one bad hop anywhere sends it
// to Validate for the message.
func TestReadInstanceAtScale(t *testing.T) {
	want, body := internetBody(t, 2000)
	got, st, err := scenario.ReadInstance(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("internet:2000 does not survive the wire")
	}
	if st.FallbackValidate || st.Nodes != 2000 || st.Paths == 0 {
		t.Fatalf("stats %+v: want 2000 nodes accepted without Validate", st)
	}
	requireReaderParity(t, "internet:2000", body)

	broken := bytes.Replace(body, []byte(`"as7,`), []byte(`"as7,nowhere,`), 1)
	_, st, err = scenario.ReadInstance(broken)
	if err == nil || !st.FallbackValidate || !strings.Contains(err.Error(), "uses missing link as7→nowhere") {
		t.Fatalf("broken hop: err %v, stats %+v", err, st)
	}
	requireReaderParity(t, "internet:2000 with a bad hop", broken)
}

// TestReleasedStoreDecodesLikeFresh: an upload read into a store an earlier
// request released is the upload a fresh store reads — instance, stats and
// error text — through every shape that grows, shrinks, rejects or abandons
// a store. An unreleased request's instance survives the uploads after it,
// and the slot keeps no more than twice what its last request used. Then
// four goroutines run the sequence at once, which under -race is the slot's
// race test.
func TestReleasedStoreDecodesLikeFresh(t *testing.T) {
	type upload struct {
		label string
		data  []byte
	}
	var seq []upload
	add := func(label string, data []byte) { seq = append(seq, upload{label, data}) }
	for _, in := range []*spp.Instance{spp.Figure3IBGP(), spp.Figure3IBGPFixed(), spp.Disagree(), spp.BadGadget(), spp.GoodGadget(), spp.ChainGadget(40)} {
		data, err := json.Marshal(scenario.EncodeInstance(in))
		if err != nil {
			t.Fatal(err)
		}
		add(in.Name, data)
	}
	_, large := internetBody(t, 2000)
	_, small := internetBody(t, 400)
	add("internet:2000", large)
	add("internet:400", small)
	costs := []byte(`{"name":"c","nodes":["a","b"],"origins":["r2","r1"],"sessions":[{"a":"a","b":"b","cost":7}],"rank":{"a":["a,b,r1","a,r2"],"b":["b,r1"]}}`)
	add("costs and origins", costs)
	add("fallback validate", bytes.Replace(large, []byte(`"as7,`), []byte(`"as7,nowhere,`), 1))
	add("validate rejects", []byte(edgeBodies()["undeclared-rank-key"]))
	add("syntax error", bytes.Replace(large, []byte(`"as7,`), []byte("\"as7,\x01"), 1))
	add("internet:2000 again", large)

	// decode reads one upload through ReadRequest and compares it with a
	// fresh ReadInstance of the same body; a syntax error's offset is
	// compared less the envelope's prefix.
	decode := func(u upload) (scenario.Request, error) {
		want, wantSt, wantErr := scenario.ReadInstance(u.data)
		req, err := scenario.ReadRequest(envelope(u.data), false)
		got, gotErr, gotSt := req.Instance, errText(req.InstanceErr), req.Stats
		if err != nil {
			at, rest, _ := strings.Cut(strings.TrimPrefix(err.Error(), "offset "), ": ")
			n, _ := strconv.Atoi(at)
			gotErr, gotSt = fmt.Sprintf("offset %d: %s", n-len(`{"instance":`), rest), wantSt
		}
		if gotErr != errText(wantErr) || gotSt != wantSt || !reflect.DeepEqual(got, want) {
			return req, fmt.Errorf("%s: read in a released store: %s %+v, fresh: %s %+v (instances equal: %v)",
				u.label, gotErr, gotSt, errText(wantErr), wantSt, reflect.DeepEqual(got, want))
		}
		return req, nil
	}

	// Serially, the sequence twice over: every upload but the first meets
	// the store its predecessor released, or none when that was dropped.
	var kept scenario.Request
	for round := range 2 {
		for i, u := range seq {
			req, err := decode(u)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 && u.label == "costs and origins" {
				kept = req // four uploads follow it before it is checked
				continue
			}
			used := scenario.UsedStorage(&req) // 0 after a syntax error: ReadRequest released it
			req.Release()
			spare := scenario.SpareStorage()
			if used > 0 && spare > 2*used {
				t.Fatalf("after %s: %d B parked, more than twice the %d B the request used", u.label, spare, used)
			}
			if i > 0 && seq[i-1].label == "internet:2000" {
				t.Logf("internet:2000 then %s: %d B parked, %d B used", u.label, spare, used)
			}
		}
	}
	want, _, _ := scenario.ReadInstance(costs)
	if !reflect.DeepEqual(kept.Instance, want) {
		t.Fatalf("an unreleased request's instance changed under later uploads:\n%+v\nvs\n%+v", kept.Instance, want)
	}
	kept.Release()

	errs := make(chan error, 4*len(seq))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range seq {
				req, err := decode(u)
				if err != nil {
					errs <- err
				}
				req.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

var sinkInstance *spp.Instance

// BenchmarkReadInstance is the byte reader's structural guard: B/op per
// body byte must read the same at both sizes (-benchmem).
func BenchmarkReadInstance(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		_, body := internetBody(b, n)
		b.Run(fmt.Sprintf("internet:%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				in, _, err := scenario.ReadInstance(body)
				if err != nil {
					b.Fatal(err)
				}
				sinkInstance = in
			}
		})
		b.Run(fmt.Sprintf("encoding-json/internet:%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				j, err := oracleDecode(body)
				if err != nil {
					b.Fatal(err)
				}
				if sinkInstance, err = scenario.DecodeInstance(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
