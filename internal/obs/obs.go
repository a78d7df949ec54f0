// Package obs is the dependency-free observability core shared by every
// fsr subsystem: a Prometheus-text metrics registry (counters, gauges,
// histograms, with labels) and a context-propagated span tracer that
// exports Chrome trace-event JSON (span.go). The package sits below
// everything else — it imports only the standard library, so the solver,
// simulator, analysis, scenario, and server layers can all record into
// the same process-global registry without import cycles.
//
// Two kinds of instruments coexist:
//
//   - Counter and Gauge are single label-free series on atomics. They are
//     the hot-path instruments: Add/Set are one atomic op, alloc-free, and
//     safe to call from the solver inner loop.
//   - CounterVec and HistogramVec are labeled families behind a mutex,
//     ported from the daemon's original registry so the rendered text is
//     byte-identical. Their With method returns a pre-resolved handle
//     whose Add/Observe skips label rendering, for per-call use on warm
//     paths.
//
// Everything is off by default in the sense that recording into an
// unscraped registry costs a few atomic ops; the span tracer in span.go
// additionally has a true zero-cost disabled path.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// labelSet renders label names/values as they appear inside the braces of
// a sample line: `endpoint="verify",code="200"`. Series are keyed by this
// rendering, which is stable because callers pass values positionally.
func labelSet(names, vals []string) string {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("obs: %d label(s) want %d value(s)", len(names), len(vals)))
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, vals[i])
	}
	return b.String()
}

// Counter is a label-free monotonic counter on an atomic int64 — cheap
// enough for solver and simulator hot paths.
type Counter struct {
	name, help string
	v          atomic.Int64
}

func newCounter(name, help string) *Counter { return &Counter{name: name, help: help} }

func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	c.v.Add(delta)
}

func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) Expose(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v.Load())
}

// Gauge is a label-free settable value on atomic float bits.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

func newGauge(name, help string) *Gauge { return &Gauge{name: name, help: help} }

func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax ratchets the gauge up to v if v exceeds the current value — the
// natural operation for high-water marks recorded from many goroutines.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) Expose(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", g.name, g.help, g.name, g.name, g.Value())
}

// CounterVec is a monotonically increasing counter family with labels.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	vals       map[string]float64
}

func newCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{name: name, help: help, labels: labels, vals: map[string]float64{}}
}

func (c *CounterVec) Add(delta float64, labelVals ...string) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	key := labelSet(c.labels, labelVals)
	c.mu.Lock()
	c.vals[key] += delta
	c.mu.Unlock()
}

func (c *CounterVec) Inc(labelVals ...string) { c.Add(1, labelVals...) }

// Value reads one series (zero if never touched) — for tests and health
// reporting.
func (c *CounterVec) Value(labelVals ...string) float64 {
	key := labelSet(c.labels, labelVals)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[key]
}

// With pre-resolves one series so repeated Adds skip label rendering.
func (c *CounterVec) With(labelVals ...string) *CounterHandle {
	key := labelSet(c.labels, labelVals)
	c.mu.Lock()
	c.vals[key] += 0 // materialize the series so it exposes as 0
	c.mu.Unlock()
	return &CounterHandle{vec: c, key: key}
}

// CounterHandle is one pre-resolved series of a CounterVec. Add is
// alloc-free.
type CounterHandle struct {
	vec *CounterVec
	key string
}

func (h *CounterHandle) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decrease")
	}
	h.vec.mu.Lock()
	h.vec.vals[h.key] += delta
	h.vec.mu.Unlock()
}

func (h *CounterHandle) Inc() { h.Add(1) }

func (c *CounterVec) metricName() string { return c.name }

func (c *CounterVec) Expose(b *strings.Builder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	for _, key := range sortedKeys(c.vals) {
		if key == "" {
			fmt.Fprintf(b, "%s %v\n", c.name, c.vals[key])
		} else {
			fmt.Fprintf(b, "%s{%s} %v\n", c.name, key, c.vals[key])
		}
	}
	if len(c.vals) == 0 && len(c.labels) == 0 {
		fmt.Fprintf(b, "%s 0\n", c.name)
	}
}

// DefBuckets spans sub-millisecond delta solves to multi-second full
// rebuilds of paper-scale instances.
var DefBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// HistogramVec is a cumulative-bucket histogram family.
type HistogramVec struct {
	name, help string
	labels     []string
	buckets    []float64
	mu         sync.Mutex
	series     map[string]*histSeries
}

type histSeries struct {
	counts []uint64 // one per bucket, cumulative at expose time only
	sum    float64
	count  uint64
}

func newHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{name: name, help: help, labels: labels,
		buckets: buckets, series: map[string]*histSeries{}}
}

func (h *HistogramVec) Observe(v float64, labelVals ...string) {
	key := labelSet(h.labels, labelVals)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(h.seriesLocked(key), v)
}

func (h *HistogramVec) seriesLocked(key string) *histSeries {
	s := h.series[key]
	if s == nil {
		s = &histSeries{counts: make([]uint64, len(h.buckets))}
		h.series[key] = s
	}
	return s
}

func (h *HistogramVec) observeLocked(s *histSeries, v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			s.counts[i]++
			break
		}
	}
	s.sum += v
	s.count++
}

// Count reads one series' observation count, for tests.
func (h *HistogramVec) Count(labelVals ...string) uint64 {
	key := labelSet(h.labels, labelVals)
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.series[key]; s != nil {
		return s.count
	}
	return 0
}

// With pre-resolves one series so repeated Observes skip label rendering
// and the map lookup. Observe on the handle is alloc-free.
func (h *HistogramVec) With(labelVals ...string) *HistogramHandle {
	key := labelSet(h.labels, labelVals)
	h.mu.Lock()
	s := h.seriesLocked(key)
	h.mu.Unlock()
	return &HistogramHandle{vec: h, s: s}
}

// HistogramHandle is one pre-resolved series of a HistogramVec.
type HistogramHandle struct {
	vec *HistogramVec
	s   *histSeries
}

func (hh *HistogramHandle) Observe(v float64) {
	hh.vec.mu.Lock()
	hh.vec.observeLocked(hh.s, v)
	hh.vec.mu.Unlock()
}

func (h *HistogramVec) metricName() string { return h.name }

func (h *HistogramVec) Expose(b *strings.Builder) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for _, key := range sortedKeys(h.series) {
		s := h.series[key]
		sep := ""
		if key != "" {
			sep = key + ","
		}
		cum := uint64(0)
		for i, ub := range h.buckets {
			cum += s.counts[i]
			fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", h.name, sep, FormatBound(ub), cum)
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, sep, s.count)
		if key == "" {
			fmt.Fprintf(b, "%s_sum %v\n%s_count %d\n", h.name, s.sum, h.name, s.count)
		} else {
			fmt.Fprintf(b, "%s_sum{%s} %v\n%s_count{%s} %d\n", h.name, key, s.sum, h.name, key, s.count)
		}
	}
}

// FormatBound renders a bucket upper bound the way Prometheus clients do:
// %f with trailing zeros (and a bare trailing dot) trimmed.
func FormatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sample is one series' instantaneous value in structured form — the
// machine-readable counterpart of the text exposition, consumed by the
// time-series sampler (tsdb.go) and anything else that wants numbers
// without re-parsing Prometheus text. For histograms, Buckets holds the
// finite upper bounds and Counts the per-bucket (non-cumulative)
// observation counts; Count and Sum are the series totals.
type Sample struct {
	Name   string
	Labels string // rendered label set, "" when label-free
	Kind   string // "counter", "gauge", or "histogram"
	Value  float64
	// Histogram-only fields.
	Buckets []float64
	Counts  []uint64
	Count   uint64
	Sum     float64
}

// Key names the sample's series uniquely: name{labels}.
func (s Sample) Key() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// SampleSource is anything that can report its series as structured
// samples: a Registry (the process-global one, or a server's private one),
// or an individual instrument.
type SampleSource interface {
	Samples() []Sample
}

// Samples reports the counter as a one-element sample set.
func (c *Counter) Samples() []Sample {
	return []Sample{{Name: c.name, Kind: "counter", Value: float64(c.v.Load())}}
}

// Samples reports the gauge as a one-element sample set.
func (g *Gauge) Samples() []Sample {
	return []Sample{{Name: g.name, Kind: "gauge", Value: g.Value()}}
}

// Samples reports one sample per materialized series.
func (c *CounterVec) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Sample, 0, len(c.vals))
	for _, key := range sortedKeys(c.vals) {
		out = append(out, Sample{Name: c.name, Labels: key, Kind: "counter", Value: c.vals[key]})
	}
	return out
}

// Samples reports one sample per materialized series, with bucket data.
func (h *HistogramVec) Samples() []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Sample, 0, len(h.series))
	for _, key := range sortedKeys(h.series) {
		s := h.series[key]
		out = append(out, Sample{
			Name: h.name, Labels: key, Kind: "histogram",
			Buckets: h.buckets, Counts: append([]uint64(nil), s.counts...),
			Count: s.count, Sum: s.sum,
		})
	}
	return out
}

// metric is anything the registry can expose.
type metric interface {
	metricName() string
	Expose(b *strings.Builder)
	Samples() []Sample
}

// Registry is an ordered collection of metrics. Registration is
// idempotent by name: asking for an existing name with the same
// constructor returns the existing instrument, so independent packages
// can share a series without coordinating initialization order.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
	order  []metric
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]metric{}} }

var defaultRegistry = NewRegistry()

// Default is the process-global registry every subsystem records into.
func Default() *Registry { return defaultRegistry }

func register[M metric](r *Registry, name string, mk func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[name]; ok {
		m, ok := existing.(M)
		if !ok {
			panic(fmt.Sprintf("obs: %s re-registered as a different metric type", name))
		}
		return m
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) label-free counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return newCounter(name, help) })
}

// Gauge registers (or returns the existing) label-free gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return newGauge(name, help) })
}

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return register(r, name, func() *CounterVec { return newCounterVec(name, help, labels...) })
}

// HistogramVec registers (or returns the existing) labeled histogram
// family, on DefBuckets.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return r.HistogramVecBuckets(name, help, DefBuckets, labels...)
}

// HistogramVecBuckets is HistogramVec for a quantity DefBuckets' seconds do
// not fit: buckets are the family's finite upper bounds, ascending.
func (r *Registry) HistogramVecBuckets(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return register(r, name, func() *HistogramVec { return newHistogramVec(name, help, buckets, labels...) })
}

// AddHook registers f to run at the start of every Expose and Samples
// call — the seam lazy collectors (runtime stats) use to refresh their
// gauges only when someone is actually looking.
func (r *Registry) AddHook(f func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// runHooks snapshots and runs the hooks outside the registry lock (hooks
// set gauges, which synchronize on their own atomics).
func (r *Registry) runHooks() {
	r.mu.Lock()
	hooks := r.hooks
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// Expose renders every registered metric, in registration order, in
// Prometheus text exposition format.
func (r *Registry) Expose() string {
	r.runHooks()
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		m.Expose(&b)
	}
	return b.String()
}

// Samples reports every registered series as structured samples, in
// registration order.
func (r *Registry) Samples() []Sample {
	r.runHooks()
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	var out []Sample
	for _, m := range metrics {
		out = append(out, m.Samples()...)
	}
	return out
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Expose())
	})
}
