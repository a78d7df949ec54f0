// Package server implements the fsr verification-as-a-service daemon: an
// HTTP/JSON front end over a registry of resident DeltaVerifiers, so a
// routing configuration is loaded and converted to constraints once and
// every subsequent edit ("what if session a-b fails?") is decided by delta
// re-verification instead of a full rebuild. The package is deliberately
// below the public fsr facade — gadget resolution is injected through
// Options so the import arrow keeps pointing downward.
package server

import (
	"fmt"
	"net/http"
	"strings"

	"fsr/internal/obs"
)

// The metric types are the shared internal/obs implementations — the
// daemon's original hand-rolled registry moved there so the solver,
// simulator, and campaign layers can record into the same format. The
// daemon keeps its own per-Server instruments (a test can run two servers
// without crosstalk), renders them first so the exposition stays
// byte-compatible with earlier releases, and appends the process-global
// obs registry after, which is how solver- and campaign-level series
// reach the same scrape endpoint.

// Metrics is the daemon's registry. All fields are safe for concurrent
// use; Expose renders the whole registry in Prometheus text format.
type Metrics struct {
	// Requests counts HTTP requests per endpoint and status code.
	Requests *obs.CounterVec
	// Latency is end-to-end HTTP handler latency per endpoint.
	Latency *obs.HistogramVec
	// Resident gauges the number of instances in the registry.
	Resident *obs.Gauge
	// DeltaSolves / FullSolves / CacheHits split how verifications were
	// discharged by the solver layer: affected-region re-probe, full
	// rebuild, or standing-result reuse.
	DeltaSolves *obs.CounterVec
	FullSolves  *obs.CounterVec
	CacheHits   *obs.CounterVec
	// VerifyDuration is wall-clock verification latency by discharge mode
	// (delta | full | cached).
	VerifyDuration *obs.HistogramVec
	// RegionNodes is the size of the constraint-graph region a delta
	// verification re-solved: what the edit disturbed, whatever the
	// instance's size.
	RegionNodes *obs.HistogramVec
	// OracleMismatches counts -check-oracle disagreements between the
	// delta path and the full-rebuild oracle; any nonzero value is a bug.
	OracleMismatches *obs.CounterVec
	// Rollbacks counts what-if batches verified and then rolled back
	// because the caller asked for a pure query (discard); AbortedBatches
	// counts batches rolled back because an edit was rejected or the
	// verification errored.
	Rollbacks      *obs.CounterVec
	AbortedBatches *obs.CounterVec
	// DecodeDuration is the time the byte reader took to turn an upload's
	// body into a validated instance, and BodyBytes the size of that body,
	// per instance-carrying endpoint (analyze | create).
	DecodeDuration *obs.HistogramVec
	BodyBytes      *obs.HistogramVec
	// Panics counts handler panics recovered by the middleware, per
	// endpoint. Any nonzero value is a bug, but a recovered one: the
	// daemon answered 500 and stayed up.
	Panics *obs.CounterVec
}

// bodyBuckets are fsr_request_body_bytes' bounds: powers of four from 256 B
// up to the body cap.
// regionBuckets are fsr_smt_delta_region_nodes' bounds: powers of four up to
// a graph of a million path variables.
var regionBuckets = []float64{1, 4, 16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}

var bodyBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, maxBody}

// NewMetrics returns a fresh registry.
func NewMetrics() *Metrics {
	return &Metrics{
		Requests:         obs.NewCounterVec("fsr_http_requests_total", "HTTP requests served.", "endpoint", "code"),
		Latency:          obs.NewHistogramVec("fsr_http_request_duration_seconds", "HTTP request latency.", "endpoint"),
		Resident:         obs.NewGauge("fsr_instances_resident", "Instances resident in the registry."),
		DeltaSolves:      obs.NewCounterVec("fsr_delta_solves_total", "Verifications discharged by delta re-solving the affected region."),
		FullSolves:       obs.NewCounterVec("fsr_full_solves_total", "Verifications discharged by a full constraint rebuild."),
		CacheHits:        obs.NewCounterVec("fsr_solver_cache_hits_total", "Verifications answered from the standing solver result."),
		VerifyDuration:   obs.NewHistogramVec("fsr_verify_duration_seconds", "Verification wall-clock latency by discharge mode.", "mode"),
		RegionNodes:      obs.NewHistogramVecBuckets("fsr_smt_delta_region_nodes", "Constraint-graph nodes re-solved per delta verification.", regionBuckets),
		OracleMismatches: obs.NewCounterVec("fsr_oracle_mismatches_total", "Delta-vs-full-rebuild verification disagreements (check-oracle mode)."),
		Rollbacks:        obs.NewCounterVec("fsr_whatif_rollbacks_total", "What-if batches verified and rolled back on request (discard)."),
		AbortedBatches:   obs.NewCounterVec("fsr_whatif_aborted_batches_total", "What-if batches rolled back because an edit or the verification failed."),
		DecodeDuration:   obs.NewHistogramVec("fsr_request_decode_seconds", "Upload body to validated instance, by endpoint.", "endpoint"),
		BodyBytes:        obs.NewHistogramVecBuckets("fsr_request_body_bytes", "Upload body size, by endpoint.", bodyBuckets, "endpoint"),
		Panics:           obs.NewCounterVec("fsr_panics_total", "Handler panics recovered by the middleware.", "endpoint"),
	}
}

// Expose renders every daemon metric in Prometheus text exposition
// format, in the same field order as always.
func (m *Metrics) Expose() string {
	var b strings.Builder
	m.Requests.Expose(&b)
	m.Latency.Expose(&b)
	m.Resident.Expose(&b)
	m.DeltaSolves.Expose(&b)
	m.FullSolves.Expose(&b)
	m.CacheHits.Expose(&b)
	m.VerifyDuration.Expose(&b)
	m.OracleMismatches.Expose(&b)
	m.Rollbacks.Expose(&b)
	m.AbortedBatches.Expose(&b)
	m.DecodeDuration.Expose(&b)
	m.BodyBytes.Expose(&b)
	m.Panics.Expose(&b)
	m.RegionNodes.Expose(&b)
	return b.String()
}

// Samples returns every daemon instrument's current samples — the
// obs.SampleSource view that lets a time-series sampler scrape the
// per-Server registry alongside the process-global one.
func (m *Metrics) Samples() []obs.Sample {
	var out []obs.Sample
	out = append(out, m.Requests.Samples()...)
	out = append(out, m.Latency.Samples()...)
	out = append(out, m.Resident.Samples()...)
	out = append(out, m.DeltaSolves.Samples()...)
	out = append(out, m.FullSolves.Samples()...)
	out = append(out, m.CacheHits.Samples()...)
	out = append(out, m.VerifyDuration.Samples()...)
	out = append(out, m.OracleMismatches.Samples()...)
	out = append(out, m.Rollbacks.Samples()...)
	out = append(out, m.AbortedBatches.Samples()...)
	out = append(out, m.DecodeDuration.Samples()...)
	out = append(out, m.BodyBytes.Samples()...)
	out = append(out, m.Panics.Samples()...)
	out = append(out, m.RegionNodes.Samples()...)
	return out
}

// handler serves the daemon registry followed by the process-global obs
// registry (solver, simulator, and campaign series) as one scrape target.
func (m *Metrics) handler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, m.Expose())
	fmt.Fprint(w, obs.Default().Expose())
}
