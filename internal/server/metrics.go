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

	"fsr/internal/obs"
)

// The metric types are the shared internal/obs implementations — the
// daemon's original hand-rolled registry moved there so the solver,
// simulator, and campaign layers can record into the same format. Each
// Server registers its own instruments on a private obs.Registry (a test
// can run two servers without crosstalk), in the order the exposition has
// always had, renders them first, and appends the process-global obs
// registry after, which is how solver- and campaign-level series reach the
// same scrape endpoint.

// Metrics is the daemon's registry. All fields are safe for concurrent
// use; Expose renders the whole registry in Prometheus text format.
type Metrics struct {
	reg *obs.Registry

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
	// RegionNodes is the size of the constraint-graph region a delta
	// verification re-solved: what the edit disturbed, whatever the
	// instance's size.
	RegionNodes *obs.HistogramVec
}

// bodyBuckets are fsr_request_body_bytes' bounds: powers of four from 256 B
// up to the body cap.
var bodyBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, maxBody}

// regionBuckets are fsr_smt_delta_region_nodes' bounds: powers of four up to
// a graph of a million path variables.
var regionBuckets = []float64{1, 4, 16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}

// NewMetrics returns a fresh registry, its instruments registered in
// exposition order.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:              r,
		Requests:         r.CounterVec("fsr_http_requests_total", "HTTP requests served.", "endpoint", "code"),
		Latency:          r.HistogramVec("fsr_http_request_duration_seconds", "HTTP request latency.", "endpoint"),
		Resident:         r.Gauge("fsr_instances_resident", "Instances resident in the registry."),
		DeltaSolves:      r.CounterVec("fsr_delta_solves_total", "Verifications discharged by delta re-solving the affected region."),
		FullSolves:       r.CounterVec("fsr_full_solves_total", "Verifications discharged by a full constraint rebuild."),
		CacheHits:        r.CounterVec("fsr_solver_cache_hits_total", "Verifications answered from the standing solver result."),
		VerifyDuration:   r.HistogramVec("fsr_verify_duration_seconds", "Verification wall-clock latency by discharge mode.", "mode"),
		OracleMismatches: r.CounterVec("fsr_oracle_mismatches_total", "Delta-vs-full-rebuild verification disagreements (check-oracle mode)."),
		Rollbacks:        r.CounterVec("fsr_whatif_rollbacks_total", "What-if batches verified and rolled back on request (discard)."),
		AbortedBatches:   r.CounterVec("fsr_whatif_aborted_batches_total", "What-if batches rolled back because an edit or the verification failed."),
		DecodeDuration:   r.HistogramVec("fsr_request_decode_seconds", "Upload body to validated instance, by endpoint.", "endpoint"),
		BodyBytes:        r.HistogramVecBuckets("fsr_request_body_bytes", "Upload body size, by endpoint.", bodyBuckets, "endpoint"),
		Panics:           r.CounterVec("fsr_panics_total", "Handler panics recovered by the middleware.", "endpoint"),
		RegionNodes:      r.HistogramVecBuckets("fsr_smt_delta_region_nodes", "Constraint-graph nodes re-solved per delta verification.", regionBuckets),
	}
}

// Expose renders every daemon metric in Prometheus text exposition format.
func (m *Metrics) Expose() string { return m.reg.Expose() }

// Samples returns every daemon instrument's current samples — the
// obs.SampleSource view that lets a time-series sampler scrape the
// per-Server registry alongside the process-global one.
func (m *Metrics) Samples() []obs.Sample { return m.reg.Samples() }

// handler serves the daemon registry followed by the process-global obs
// registry (solver, simulator, and campaign series) as one scrape target.
func (m *Metrics) handler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, m.Expose())
	fmt.Fprint(w, obs.Default().Expose())
}
