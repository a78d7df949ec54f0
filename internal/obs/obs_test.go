package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterExpose: the atomic counter renders exactly like the daemon's
// original label-free counterVec, including the zero line when untouched.
func TestCounterExpose(t *testing.T) {
	c := newCounter("fsr_test_total", "Test counter.")
	var b strings.Builder
	c.Expose(&b)
	want := "# HELP fsr_test_total Test counter.\n# TYPE fsr_test_total counter\nfsr_test_total 0\n"
	if b.String() != want {
		t.Errorf("zero expose:\n got %q\nwant %q", b.String(), want)
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	b.Reset()
	c.Expose(&b)
	if !strings.Contains(b.String(), "fsr_test_total 5\n") {
		t.Errorf("expose after Add: %q", b.String())
	}
}

// TestCounterVecExpose: label rendering, sorted series, and the empty
// label-free zero line match the original registry byte-for-byte.
func TestCounterVecExpose(t *testing.T) {
	c := newCounterVec("fsr_req_total", "Requests.", "endpoint", "code")
	c.Inc("verify", "200")
	c.Add(2, "load", "200")
	var b strings.Builder
	c.Expose(&b)
	want := "# HELP fsr_req_total Requests.\n# TYPE fsr_req_total counter\n" +
		`fsr_req_total{endpoint="load",code="200"} 2` + "\n" +
		`fsr_req_total{endpoint="verify",code="200"} 1` + "\n"
	if b.String() != want {
		t.Errorf("expose:\n got %q\nwant %q", b.String(), want)
	}
	if c.Value("verify", "200") != 1 {
		t.Errorf("Value = %v", c.Value("verify", "200"))
	}
}

// TestHistogramExpose: cumulative buckets, +Inf, sum/count, and bound
// formatting (0.0001 not 0.000100) as the scrape format requires.
func TestHistogramExpose(t *testing.T) {
	h := newHistogramVec("fsr_dur_seconds", "Duration.", DefBuckets, "mode")
	h.Observe(0.0004, "delta")
	h.Observe(0.3, "delta")
	var b strings.Builder
	h.Expose(&b)
	out := b.String()
	for _, want := range []string{
		`fsr_dur_seconds_bucket{mode="delta",le="0.0001"} 0`,
		`fsr_dur_seconds_bucket{mode="delta",le="0.0005"} 1`,
		`fsr_dur_seconds_bucket{mode="delta",le="0.5"} 2`,
		`fsr_dur_seconds_bucket{mode="delta",le="+Inf"} 2`,
		`fsr_dur_seconds_count{mode="delta"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("expose missing %q in:\n%s", want, out)
		}
	}
	if h.Count("delta") != 2 {
		t.Errorf("Count = %d", h.Count("delta"))
	}
}

// TestRegistryIdempotent: re-registering the same name returns the same
// instrument; a different type for the same name panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("fsr_x_total", "X.")
	b := r.Counter("fsr_x_total", "X.")
	if a != b {
		t.Error("re-registration returned a distinct counter")
	}
	a.Inc()
	if !strings.Contains(r.Expose(), "fsr_x_total 1\n") {
		t.Errorf("registry expose: %q", r.Expose())
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-type re-registration did not panic")
		}
	}()
	r.Gauge("fsr_x_total", "X.")
}

// TestHandlesAllocFree: the pre-resolved vec handles must be safe for
// warm paths — no allocations per Add/Observe.
func TestHandlesAllocFree(t *testing.T) {
	cv := newCounterVec("fsr_c_total", "C.", "stage")
	ch := cv.With("solve")
	hv := newHistogramVec("fsr_h_seconds", "H.", DefBuckets, "stage")
	hh := hv.With("solve")
	if n := testing.AllocsPerRun(100, func() { ch.Inc() }); n != 0 {
		t.Errorf("CounterHandle.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { hh.Observe(0.001) }); n != 0 {
		t.Errorf("HistogramHandle.Observe allocates %v/op", n)
	}
	if cv.Value("solve") == 0 || hv.Count("solve") == 0 {
		t.Error("handle writes not visible through the vec")
	}
}

// TestLabeledSeriesAllocFree: Inc/Add/Observe on a series that exists find
// it without rendering its labels, so they allocate nothing.
func TestLabeledSeriesAllocFree(t *testing.T) {
	cv := newCounterVec("fsr_c_total", "C.", "endpoint", "code")
	hv := newHistogramVec("fsr_h_seconds", "H.", DefBuckets, "mode")
	cv.Inc("verify", "200")
	hv.Observe(0.1, "delta")
	if n := testing.AllocsPerRun(100, func() { cv.Inc("verify", "200") }); n != 0 {
		t.Errorf("CounterVec.Inc on an existing series allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { cv.Add(2, "verify", "200") }); n != 0 {
		t.Errorf("CounterVec.Add on an existing series allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { hv.Observe(0.001, "delta") }); n != 0 {
		t.Errorf("HistogramVec.Observe on an existing series allocates %v/op", n)
	}
	if got := cv.Value("verify", "200"); got <= 1 {
		t.Errorf("Value = %v: the measured calls did not reach the series", got)
	}
}

// TestLabeledSeriesConcurrent: goroutines creating and bumping series of
// one family at once — the series lookup shares one scratch key per
// family — lose nothing.
func TestLabeledSeriesConcurrent(t *testing.T) {
	cv := newCounterVec("fsr_cc_total", "C.", "worker", "kind")
	hv := newHistogramVec("fsr_hc_seconds", "H.", DefBuckets, "worker")
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				cv.Inc(w, "all")
				cv.Inc("shared", "all")
				hv.Observe(0.01, w)
			}
		}(fmt.Sprint(w))
	}
	wg.Wait()
	if got := cv.Value("shared", "all"); got != workers*per {
		t.Errorf("shared series = %v, want %d", got, workers*per)
	}
	for w := 0; w < workers; w++ {
		if got, n := cv.Value(fmt.Sprint(w), "all"), hv.Count(fmt.Sprint(w)); got != per || n != per {
			t.Errorf("worker %d: counter %v, histogram count %d; want %d", w, got, n, per)
		}
	}
}

// TestLabelRendering: a series' labels render as fmt's %q does, whatever
// the value holds, and series whose values differ only in how they split
// stay apart.
func TestLabelRendering(t *testing.T) {
	for _, v := range []string{"", "plain", `q"uote`, "back\\slash", "new\nline", "ünï", "\x00\xff"} {
		want := fmt.Sprintf("%s=%q,%s=%q", "a", v, "b", v+"!")
		if got := labelSet([]string{"a", "b"}, []string{v, v + "!"}); got != want {
			t.Errorf("labelSet(%q) = %s, want %s", v, got, want)
		}
	}
	c := newCounterVec("fsr_split_total", "Split.", "a", "b")
	c.Inc("ab", "c")
	c.Add(2, "a", "bc")
	var b strings.Builder
	c.Expose(&b)
	want := "# HELP fsr_split_total Split.\n# TYPE fsr_split_total counter\n" +
		`fsr_split_total{a="a",b="bc"} 2` + "\n" +
		`fsr_split_total{a="ab",b="c"} 1` + "\n"
	if b.String() != want {
		t.Errorf("expose:\n got %q\nwant %q", b.String(), want)
	}
}

// TestGaugeSetMax: the ratchet keeps the maximum under concurrent writes.
func TestGaugeSetMax(t *testing.T) {
	g := newGauge("fsr_hw", "High water.")
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(v float64) { defer wg.Done(); g.SetMax(v) }(float64(i))
	}
	wg.Wait()
	if g.Value() != 64 {
		t.Errorf("SetMax race lost the max: %v", g.Value())
	}
	g.SetMax(10)
	if g.Value() != 64 {
		t.Errorf("SetMax decreased: %v", g.Value())
	}
}

// TestStartSpanDisabledAllocs pins the tentpole's "effectively free"
// requirement: with no tracer installed, StartSpan + End + Attr is zero
// allocations and returns the caller's context unchanged.
func TestStartSpanDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	if got, s := StartSpan(ctx, "solve"); got != ctx || s != nil {
		t.Fatal("disabled StartSpan must return the original context and a nil span")
	}
	n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(ctx, "solve")
		s.Attr("k", "v")
		s.AttrInt("n", 7)
		s.End()
	})
	if n != 0 {
		t.Errorf("disabled span path allocates %v/op", n)
	}
}

// TestTracerSpans: root spans get distinct tracks, children share the
// parent's track, and the export is well-formed trace-event JSON.
func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFromContext(ctx) != tr {
		t.Fatal("TracerFromContext lost the tracer")
	}

	rootCtx, root := StartSpan(ctx, "scenario")
	root.Attr("kind", "gadget-splice")
	root.AttrInt("seed", 42)
	_, child := StartSpan(rootCtx, "solve")
	if child.track != root.track {
		t.Errorf("child track %d != parent track %d", child.track, root.track)
	}
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	_, other := StartSpan(ctx, "scenario")
	if other.track == root.track {
		t.Error("second root span reused the first root's track")
	}
	other.End()

	if tr.SpanCount() != 3 {
		t.Fatalf("SpanCount = %d, want 3", tr.SpanCount())
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Pid != 1 || e.Dur < 0 {
			t.Errorf("event %d malformed: %+v", i, e)
		}
		if i > 0 && e.Ts < doc.TraceEvents[i-1].Ts {
			t.Errorf("events not sorted by ts at %d", i)
		}
		byName[e.Name]++
	}
	if byName["scenario"] != 2 || byName["solve"] != 1 {
		t.Errorf("span names wrong: %v", byName)
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "scenario" && e.Args["kind"] == "gadget-splice" {
			if e.Args["seed"] != "42" {
				t.Errorf("seed attr = %q", e.Args["seed"])
			}
			if e.Dur < 1000 { // child slept 1ms; parent covers it (µs units)
				t.Errorf("root dur %v µs, want >= 1000", e.Dur)
			}
			return
		}
	}
	t.Error("root span with attributes not found in export")
}

// TestTracerConcurrent: many goroutines tracing concurrently — run under
// -race in CI — must not lose spans.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c, s := StartSpan(ctx, "outer")
				_, in := StartSpan(c, "inner")
				in.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.SpanCount(); got != workers*per*2 {
		t.Errorf("SpanCount = %d, want %d", got, workers*per*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent export is not valid JSON")
	}
}
