// Flight recorder: a bounded ring of recent pipeline operations (analyze
// calls, delta verifies, campaign scenarios) plus a parallel slow-op ring
// that retains full span trees for operations beyond a latency threshold —
// so the p99 outlier is inspectable after the fact without re-running
// under -trace-out.
//
// Recording is off by default and the disabled path is one atomic load:
// StartOp returns a nil *Op whose methods are all nil-receiver no-ops,
// mirroring the span tracer's disabled path, so instrumented hot paths pay
// nothing when nobody is flying the recorder.
package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// OpRecord is one completed operation in the flight ring.
type OpRecord struct {
	// Seq is the operation's global sequence number (monotonic since
	// enable); the ring holds the highest Seqs.
	Seq uint64 `json:"seq"`
	// Kind classifies the operation: analyze, analyze-spp, verify,
	// scenario, ...
	Kind string `json:"kind"`
	// Detail names the operand: algebra or instance name, scenario kind.
	Detail string `json:"detail,omitempty"`
	// Size is the instance size (nodes, or assertions when nodes are not
	// known).
	Size  int       `json:"size,omitempty"`
	Start time.Time `json:"start"`
	// DurationMS is wall-clock duration in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Verdict is the operation's outcome: safe, unsafe, error, an outcome
	// class, or a discharge mode.
	Verdict string `json:"verdict,omitempty"`
	// Counters carries the drained per-operation solver effort: probes,
	// relaxations, SCC components, level widths, splice-vs-rebuild.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Slow marks operations that also landed in the slow-op ring.
	Slow bool `json:"slow,omitempty"`
}

// SlowOp is one over-threshold operation with its retained span tree.
type SlowOp struct {
	OpRecord
	Spans []*SpanNode `json:"spans,omitempty"`
}

// FlightRecorder is a lock-cheap ring of recent operations. The zero
// value is not usable; construct with NewFlightRecorder or use the
// process-global Flight().
type FlightRecorder struct {
	enabled atomic.Bool
	slowNS  atomic.Int64

	mu    sync.Mutex
	ring  []OpRecord
	size  int
	total uint64

	smu      sync.Mutex
	slowRing []SlowOp
	slowSize int
	slowTot  uint64
}

// DefaultSlowThreshold marks an op slow when nothing else is configured:
// well past every sub-millisecond gadget solve, low enough to catch a
// struggling internet-scale verify.
const DefaultSlowThreshold = 100 * time.Millisecond

// NewFlightRecorder returns a disabled recorder retaining the last `size`
// operations and the last `slowSize` slow operations (with span trees).
func NewFlightRecorder(size, slowSize int) *FlightRecorder {
	if size <= 0 {
		size = 256
	}
	if slowSize <= 0 {
		slowSize = 32
	}
	f := &FlightRecorder{size: size, slowSize: slowSize}
	f.slowNS.Store(int64(DefaultSlowThreshold))
	return f
}

var defaultFlight = NewFlightRecorder(256, 32)

// Flight is the process-global flight recorder every instrumented
// operation records into once enabled.
func Flight() *FlightRecorder { return defaultFlight }

// Enable turns recording on or off. Off (the default) makes StartOp a
// single atomic load returning a nil op.
func (f *FlightRecorder) Enable(on bool) { f.enabled.Store(on) }

// Enabled reports whether the recorder is recording.
func (f *FlightRecorder) Enabled() bool { return f.enabled.Load() }

// SetSlowThreshold sets the latency beyond which an operation's span tree
// is retained in the slow ring. Non-positive restores the default.
func (f *FlightRecorder) SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		d = DefaultSlowThreshold
	}
	f.slowNS.Store(int64(d))
}

// SlowThreshold reports the current slow-op latency threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	return time.Duration(f.slowNS.Load())
}

// Op is one in-flight recorded operation. A nil *Op (recorder disabled)
// is valid: every method is a no-op.
type Op struct {
	f     *FlightRecorder
	rec   OpRecord
	start time.Time
	// tr is the tracer StartOp attached for slow-op capture; nil when the
	// context already carried one (the caller's trace owns those spans).
	tr   *Tracer
	span *Span
}

// StartOp begins recording one operation. When the recorder is enabled
// and the context carries no tracer, a private tracer is attached so the
// operation's span tree can be retained if it turns out slow; the root
// span is named after the op kind. Disabled recorders return the context
// unchanged and a nil op at the cost of one atomic load.
func (f *FlightRecorder) StartOp(ctx context.Context, kind, detail string) (context.Context, *Op) {
	if !f.enabled.Load() {
		return ctx, nil
	}
	op := &Op{f: f, start: time.Now(), rec: OpRecord{Kind: kind, Detail: detail}}
	op.rec.Start = op.start
	if TracerFromContext(ctx) == nil {
		op.tr = NewTracer()
		ctx = WithTracer(ctx, op.tr)
	}
	ctx, op.span = StartSpan(ctx, kind)
	return ctx, op
}

// SetDetail names the operand once it is known (an upload's instance name
// is inside the body the op is already timing). No-op on a nil op.
func (o *Op) SetDetail(d string) {
	if o != nil {
		o.rec.Detail = d
	}
}

// SetSize records the operand's size. No-op on a nil op.
func (o *Op) SetSize(n int) {
	if o != nil {
		o.rec.Size = n
	}
}

// SetVerdict records the operation's outcome. No-op on a nil op.
func (o *Op) SetVerdict(v string) {
	if o != nil {
		o.rec.Verdict = v
	}
}

// Counter records one drained per-operation counter; zero values are
// skipped to keep records compact. No-op on a nil op.
func (o *Op) Counter(name string, v int64) {
	if o == nil || v == 0 {
		return
	}
	if o.rec.Counters == nil {
		o.rec.Counters = make(map[string]int64, 8)
	}
	o.rec.Counters[name] = v
}

// Finish completes the operation: the record lands in the ring, and — when
// the op exceeded the slow threshold and StartOp attached the tracer — its
// full span tree lands in the slow ring. No-op on a nil op.
func (o *Op) Finish() {
	if o == nil {
		return
	}
	o.span.End()
	dur := time.Since(o.start)
	o.rec.DurationMS = float64(dur) / float64(time.Millisecond)
	slow := dur >= o.f.SlowThreshold() && o.tr != nil
	o.rec.Slow = slow
	f := o.f
	f.mu.Lock()
	o.rec.Seq = f.total
	f.total++
	if len(f.ring) < f.size {
		f.ring = append(f.ring, o.rec)
	} else {
		f.ring[int(o.rec.Seq)%f.size] = o.rec
	}
	f.mu.Unlock()
	if slow {
		s := SlowOp{OpRecord: o.rec, Spans: o.tr.SpanTree()}
		f.smu.Lock()
		s.Seq = o.rec.Seq
		f.slowTot++
		if len(f.slowRing) < f.slowSize {
			f.slowRing = append(f.slowRing, s)
		} else {
			f.slowRing[int(f.slowTot-1)%f.slowSize] = s
		}
		f.smu.Unlock()
	}
}

// FlightSnapshot is the recorder's state at one instant, newest op first.
type FlightSnapshot struct {
	Enabled         bool       `json:"enabled"`
	Total           uint64     `json:"total"`
	SlowThresholdMS float64    `json:"slow_threshold_ms"`
	Ops             []OpRecord `json:"ops"`
	SlowTotal       uint64     `json:"slow_total"`
	Slow            []SlowOp   `json:"slow"`
}

// Snapshot copies the rings, ordering both newest-first.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	snap := FlightSnapshot{
		Enabled:         f.Enabled(),
		SlowThresholdMS: float64(f.SlowThreshold()) / float64(time.Millisecond),
	}
	f.mu.Lock()
	snap.Total = f.total
	snap.Ops = append([]OpRecord(nil), f.ring...)
	f.mu.Unlock()
	f.smu.Lock()
	snap.SlowTotal = f.slowTot
	snap.Slow = append([]SlowOp(nil), f.slowRing...)
	f.smu.Unlock()
	sortBySeqDesc(snap.Ops, func(r OpRecord) uint64 { return r.Seq })
	sortBySeqDesc(snap.Slow, func(s SlowOp) uint64 { return s.Seq })
	return snap
}

// sortBySeqDesc orders ring copies newest-first. Rings are small (≤ a few
// hundred), so a simple insertion sort over the rotated copy is fine.
func sortBySeqDesc[T any](s []T, seq func(T) uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && seq(s[j-1]) < seq(s[j]); j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// Handler serves the snapshot as JSON — the GET /v1/flightrecorder
// endpoint of the serve daemon and the campaign metrics listener.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.Encode(f.Snapshot())
	})
}
