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
	"strings"
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
	type frame struct {
		fields []string // the exact keys of this object, nil when any key goes
		keys   map[string]bool
		key    string // the key whose value is being read
		isKey  bool   // an object expecting a key next
		array  bool
	}
	fieldsUnder := func(parent *frame) []string {
		switch {
		case parent == nil:
			return []string{"name", "nodes", "origins", "sessions", "rank"}
		case parent.array && strings.EqualFold(parent.key, "sessions"):
			return []string{"a", "b", "cost"}
		}
		return nil
	}
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
