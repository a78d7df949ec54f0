package fsr

import (
	"context"
	"net/http"
	"time"

	"fsr/internal/obs"
	"fsr/internal/server"
)

// Observability surface: the process-global metrics registry and the
// context-propagated span tracer, re-exported so embedders and cmd/fsr can
// wire them without importing internal packages.
//
// Every pipeline stage records into the same default registry — solver
// probe/relaxation/core-minimization counts, delta vs full solves,
// analysis constraint counts and per-stage latency histograms,
// simulator event throughput and arena high-water marks, campaign
// per-outcome totals. MetricsHandler serves them all in Prometheus text
// exposition format. Tracing is opt-in per context: with no tracer
// attached, StartSpan is a no-op that allocates nothing.

// Tracer records spans into per-track buffers and exports them as Chrome
// trace-event JSON (load the file in Perfetto or chrome://tracing).
type Tracer = obs.Tracer

// Span is one timed region of a trace; methods on a nil Span are no-ops.
type Span = obs.Span

// NewTracer returns an empty tracer ready to attach to a context.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer attaches a tracer to the context; every pipeline stage under
// that context records spans into it. A nil tracer leaves the context
// untouched (tracing stays disabled).
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return obs.WithTracer(ctx, tr)
}

// StartSpan opens a span on the context's tracer (a child of the current
// span, if any). With no tracer attached it returns the context unchanged
// and a nil span whose methods are free no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// MetricsHandler serves the process-global metrics registry in Prometheus
// text exposition format. Mount it wherever the embedding process serves
// HTTP; cmd/fsr mounts it at /metrics when -metrics-addr is given.
func MetricsHandler() http.Handler { return obs.Default().Handler() }

// MountPprof registers the net/http/pprof handlers under /debug/pprof/ on
// the mux. Profiles expose heap contents and timing side channels, so
// mount only on trusted listeners.
func MountPprof(mux *http.ServeMux) { server.MountPprof(mux) }

// obsFlight gives the facade access to the process-global flight recorder
// without exporting the obs type directly.
func obsFlight() *obs.FlightRecorder { return obs.Flight() }

// EnableFlightRecorder turns the process-global flight recorder on or off.
// On, every Session.Analyze/AnalyzeSPP call, daemon verification, and
// campaign scenario lands in a bounded ring of recent operations (with
// drained solver counters), and operations beyond the slow-op threshold
// retain their full span tree — served at GET /v1/flightrecorder by the
// daemon and the campaign metrics listener. Off (the default), the
// instrumented paths pay one atomic load.
func EnableFlightRecorder(on bool) { obs.Flight().Enable(on) }

// SetSlowOpThreshold sets the latency beyond which a recorded operation's
// span tree is retained. Non-positive restores the default (100ms).
func SetSlowOpThreshold(d time.Duration) { obs.Flight().SetSlowThreshold(d) }

// FlightRecorderHandler serves the flight recorder's snapshot as JSON —
// the GET /v1/flightrecorder payload, for embedders mounting their own
// mux.
func FlightRecorderHandler() http.Handler { return obs.Flight().Handler() }

// MountDiagnostics mounts the full diagnosis surface on mux —
// GET /v1/timeseries (retained metric samples), GET /v1/flightrecorder,
// and GET /dashboard (live HTML dashboard) — and starts a sampler over the
// process-global registry. The returned stop function halts the sampler;
// the handlers keep serving the retained window. Interval/window ≤ 0 get
// the defaults (2s, 5m).
func MountDiagnostics(mux *http.ServeMux, interval, window time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	return obs.MountDiagnostics(mux, interval, window)
}
