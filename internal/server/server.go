package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/spp"
)

// Options configures a Server.
type Options struct {
	// Gadget resolves built-in instance names in POST /v1/instances
	// requests. The public fsr layer injects its gadget table here; nil
	// disables name-based loading (requests must carry a full instance).
	Gadget func(name string) (*spp.Instance, error)
	// CheckOracle re-runs every verification through the full-rebuild
	// pipeline and counts disagreements in fsr_oracle_mismatches_total —
	// the daemon-mode form of the differential oracle the tests enforce.
	CheckOracle bool
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: the profiling surface leaks heap contents and must be
	// opted into on trusted listeners only.
	Pprof bool
	// Logger receives structured request, panic, and lifecycle records
	// when non-nil.
	Logger *slog.Logger
	// Analyze decides a one-shot instance for POST /v1/analyze. The public
	// fsr layer injects Session.AnalyzeSPP here (same downward-injection
	// pattern as Gadget); nil disables the endpoint. One-shot analysis is
	// how internet-scale instances reach the sharded/SCC fast path without
	// becoming resident delta verifiers.
	Analyze func(ctx context.Context, in *spp.Instance) (analysis.Result, []spp.Node, error)
	// DiagInterval and DiagWindow shape the time-series sampler backing
	// /v1/timeseries and /dashboard (defaults: 2s interval, 5m window).
	DiagInterval time.Duration
	DiagWindow   time.Duration
}

// Server is the verification daemon: a registry of named resident
// verifiers behind an HTTP/JSON API. Create one with New, mount Handler.
type Server struct {
	opts    Options
	metrics *Metrics

	stopOnce sync.Once
	stopDiag func()

	mu        sync.Mutex
	instances map[string]*instanceEntry
}

// instanceEntry is one resident instance. The entry lock serializes
// verifier access (a DeltaVerifier is single-goroutine); the registry lock
// is never held across a solve.
type instanceEntry struct {
	mu       sync.Mutex
	id       string
	v        *spp.DeltaVerifier
	created  time.Time
	verifies int
}

// New returns a Server with an empty registry and fresh metrics.
func New(opts Options) *Server {
	return &Server{opts: opts, metrics: NewMetrics(), instances: map[string]*instanceEntry{}}
}

// Metrics exposes the server's registry, for embedding tests.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler mounts the API:
//
//	POST /v1/instances              load an instance (by gadget name or inline wire form; read by scenario.ReadRequest)
//	GET  /v1/instances              list resident instances
//	GET  /v1/instances/{id}         inspect one instance and its solver stats
//	POST /v1/instances/{id}/verify  decide safety (delta when possible); a safe verdict carries its witness model
//	POST /v1/instances/{id}/whatif  apply a batch of edits, re-verify, then keep all of it or (discard, or any failure) none of it; no model — ask verify
//	POST /v1/analyze                one-shot analysis of a gadget or an inline wire form (Options.Analyze only)
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus text exposition
//	GET  /v1/timeseries             retained metric samples (JSON)
//	GET  /v1/flightrecorder         recent and slow operations (JSON)
//	GET  /dashboard                 live HTML dashboard
//	     /debug/pprof/              runtime profiling (Options.Pprof only)
//
// A request body is one JSON value of at most 8 MiB with nothing but
// whitespace after it: anything else is 400, a larger body 413.
//
// Handler also enables the flight recorder and starts the time-series
// sampler; call Close to stop it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instances", s.instrument("create", s.handleCreate))
	mux.HandleFunc("GET /v1/instances", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/instances/{id}", s.instrument("get", s.handleGet))
	mux.HandleFunc("POST /v1/instances/{id}/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("POST /v1/instances/{id}/whatif", s.instrument("whatif", s.handleWhatIf))
	if s.opts.Analyze != nil {
		mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	}
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.metrics.handler))
	interval, window := s.opts.DiagInterval, s.opts.DiagWindow
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if window <= 0 {
		window = 5 * time.Minute
	}
	obs.Flight().Enable(true)
	s.stopDiag = obs.MountDiagnostics(mux, interval, window, s.metrics)
	if s.opts.Pprof {
		MountPprof(mux)
	}
	return mux
}

// Close stops the time-series sampler started by Handler. Safe to call
// more than once; the diagnostic endpoints keep serving the retained
// window.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		if s.stopDiag != nil {
			s.stopDiag()
		}
	})
}

// MountPprof registers the net/http/pprof handlers on mux under
// /debug/pprof/. Shared by the daemon and by fsr campaign -metrics-addr.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusWriter captures the response code for instrumentation and whether
// the header was sent, so the panic middleware knows if a 500 can still go
// out cleanly.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with panic recovery, the request counter, the
// latency histogram, and optional logging. A panicking handler answers 500
// (when the header hasn't gone out yet), increments fsr_panics_total, and
// leaves the daemon serving — one poisoned request must not take down the
// registry for everyone else.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panics.Inc(endpoint)
				if s.opts.Logger != nil {
					s.opts.Logger.Error("panic serving request",
						"method", r.Method, "path", r.URL.Path,
						"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				}
				if !sw.wrote {
					writeErr(sw, http.StatusInternalServerError, "internal error")
				}
				sw.code = http.StatusInternalServerError
			}
			elapsed := time.Since(start)
			s.metrics.Requests.Inc(endpoint, strconv.Itoa(sw.code))
			s.metrics.Latency.Observe(elapsed.Seconds(), endpoint)
			if s.opts.Logger != nil {
				s.opts.Logger.Info("request",
					"method", r.Method, "path", r.URL.Path,
					"code", sw.code, "dur", elapsed.Round(time.Microsecond).String())
			}
		}()
		h(sw, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBody caps every request body.
const maxBody = 8 << 20

// writeBodyErr answers a body that could not be read or decoded: 413 when
// it ran over maxBody, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, "decoding request: %v", err)
}

// readJSON decodes the small bodies (what-if batches) through
// encoding/json: one value, unknown fields refused, nothing but whitespace
// after it.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyErr(w, err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the request's value")
		}
		writeBodyErr(w, err)
		return false
	}
	return true
}

// bodies recycles the buffers upload bodies are read into: a decoded
// instance shares no byte with its body, so the buffer goes back before the
// analysis runs.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readUpload reads the body of an instance-carrying request whole — into a
// recycled buffer sized from Content-Length — and decodes it in one pass
// with the wire form's byte reader, envelope included. The decode is one
// span of the request's tree and one observation of the per-endpoint decode
// histograms. It writes the error response itself.
func (s *Server) readUpload(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint string, withID bool) (scenario.Request, bool) {
	if r.ContentLength > maxBody {
		writeErr(w, http.StatusRequestEntityTooLarge, "decoding request: %d-byte body exceeds the %d-byte limit", r.ContentLength, maxBody)
		return scenario.Request{}, false
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		writeBodyErr(w, err)
		return scenario.Request{}, false
	}
	_, sp := obs.StartSpan(ctx, "decode")
	start := time.Now()
	req, err := scenario.ReadRequest(buf.Bytes(), withID)
	s.metrics.DecodeDuration.Observe(time.Since(start).Seconds(), endpoint)
	s.metrics.BodyBytes.Observe(float64(buf.Len()), endpoint)
	sp.AttrInt("bytes", int64(buf.Len()))
	sp.AttrInt("nodes", int64(req.Stats.Nodes))
	sp.AttrInt("paths", int64(req.Stats.Paths))
	fallback := int64(0)
	if req.Stats.FallbackValidate {
		fallback = 1
	}
	sp.AttrInt("fallback_validate", fallback)
	sp.End()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return scenario.Request{}, false
	}
	return req, true
}

// lookup resolves {id} to its entry or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *instanceEntry {
	id := r.PathValue("id")
	s.mu.Lock()
	ent := s.instances[id]
	s.mu.Unlock()
	if ent == nil {
		writeErr(w, http.StatusNotFound, "no instance %q", id)
	}
	return ent
}

var idPattern = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,128}$`)

type instanceInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Sessions int    `json:"sessions"`
	Degraded bool   `json:"degraded,omitempty"`
}

// resolveInstance picks a request's gadget or inline instance, writing the
// error response itself; nil means the response already went out.
func (s *Server) resolveInstance(w http.ResponseWriter, req scenario.Request) *spp.Instance {
	inline := req.Instance != nil || req.InstanceErr != nil
	switch {
	case req.Gadget != "" && inline:
		writeErr(w, http.StatusBadRequest, "gadget and instance are mutually exclusive")
		return nil
	case req.Gadget != "":
		if s.opts.Gadget == nil {
			writeErr(w, http.StatusBadRequest, "this server has no gadget resolver; send a full instance")
			return nil
		}
		inst, err := s.opts.Gadget(req.Gadget)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		return inst
	case inline:
		if req.InstanceErr != nil {
			writeErr(w, http.StatusBadRequest, "decoding instance: %v", req.InstanceErr)
			return nil
		}
		return req.Instance
	default:
		writeErr(w, http.StatusBadRequest, "request wants a gadget name or an inline instance")
		return nil
	}
}

// handleCreate loads an instance by built-in gadget name or inline wire
// form, {"id", "gadget", "instance"}; id defaults to the instance's name.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	ctx, op := obs.Flight().StartOp(r.Context(), "create", "")
	defer op.Finish()
	op.SetVerdict("error") // until the instance is resident
	req, ok := s.readUpload(ctx, w, r, "create", true)
	if !ok {
		return
	}
	in := s.resolveInstance(w, req)
	if in == nil {
		return
	}
	id := req.ID
	if id == "" {
		id = in.Name
	}
	op.SetDetail(id)
	op.SetSize(len(in.Nodes))
	if !idPattern.MatchString(id) {
		writeErr(w, http.StatusBadRequest, "instance id %q: want 1-128 chars of [a-zA-Z0-9._-]", id)
		return
	}
	v, err := spp.NewDeltaVerifier(in)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "loading instance: %v", err)
		return
	}
	ent := &instanceEntry{id: id, v: v, created: time.Now()}
	s.mu.Lock()
	if _, exists := s.instances[id]; exists {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "instance %q already resident", id)
		return
	}
	s.instances[id] = ent
	s.metrics.Resident.Set(float64(len(s.instances)))
	s.mu.Unlock()
	op.SetVerdict("created")
	writeJSON(w, http.StatusCreated, s.info(ent))
}

func (s *Server) info(ent *instanceEntry) instanceInfo {
	nodes, sessions := ent.v.Size()
	return instanceInfo{
		ID: ent.id, Name: ent.v.Name(),
		Nodes: nodes, Sessions: sessions,
		Degraded: ent.v.Degraded(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := make([]*instanceEntry, 0, len(s.instances))
	for _, ent := range s.instances {
		entries = append(entries, ent)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	infos := make([]instanceInfo, len(entries))
	for i, ent := range entries {
		ent.mu.Lock()
		infos[i] = s.info(ent)
		ent.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"instances": infos})
}

type solverStats struct {
	Checks      int `json:"checks"`
	CacheHits   int `json:"cache_hits"`
	DeltaSolves int `json:"delta_solves"`
	FullSolves  int `json:"full_solves"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ent := s.lookup(w, r)
	if ent == nil {
		return
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	st := ent.v.DeltaStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       ent.id,
		"info":     s.info(ent),
		"instance": scenario.EncodeInstance(ent.v.Snapshot()), // the one deep copy of this request
		"verifies": ent.verifies,
		"solver": solverStats{
			Checks: st.Checks, CacheHits: st.CacheHits,
			DeltaSolves: st.DeltaSolves, FullSolves: st.FullSolves,
		},
	})
}

// verdict is the response body of verify and whatif.
type verdict struct {
	ID   string `json:"id"`
	Safe bool   `json:"safe"`
	// Model carries the strict-monotonicity witness of a safe verify. A
	// what-if leaves it out: the witness of a committed edit is the next
	// (cached) verify's.
	Model map[string]int `json:"model,omitempty"`
	// Core and Suspects pinpoint the violation when unsafe.
	Core            []string `json:"core,omitempty"`
	Suspects        []string `json:"suspects,omitempty"`
	NumPreference   int      `json:"num_preference"`
	NumMonotonicity int      `json:"num_monotonicity"`
	// Mode reports how the solver discharged the check: delta, full, or
	// cached.
	Mode       string  `json:"mode"`
	DurationMS float64 `json:"duration_ms"`
	// Applied and Discarded describe a what-if's edit batch.
	Applied   int  `json:"applied,omitempty"`
	Discarded bool `json:"discarded,omitempty"`
	// OracleChecked/OracleMismatch report the differential oracle run in
	// -check-oracle mode.
	OracleChecked  bool        `json:"oracle_checked,omitempty"`
	OracleMismatch bool        `json:"oracle_mismatch,omitempty"`
	Solver         solverStats `json:"solver"`
}

// runVerify decides safety on v under the caller's flight-recorder op,
// classifies the discharge mode from the solver-stats movement, feeds the
// daemon metrics, and (in -check-oracle mode) differentially validates the
// answer against a full rebuild. Callers hold the entry lock.
func (s *Server) runVerify(ctx context.Context, op *obs.Op, id string, v *spp.DeltaVerifier) (verdict, error) {
	before := v.DeltaStats()
	start := time.Now()
	res, suspects, err := v.Verify(ctx)
	wall := time.Since(start)
	if err != nil {
		op.SetVerdict("error")
		return verdict{}, err
	}
	after := v.DeltaStats()
	var mode string
	switch {
	case after.CacheHits > before.CacheHits:
		mode = "cached"
	case after.DeltaSolves > before.DeltaSolves:
		mode = "delta"
	case after.FullSolves > before.FullSolves:
		mode = "full"
	default:
		// The verifier bypassed the delta context entirely (degraded or
		// degenerate instance) and analysed from scratch.
		mode = "full"
		s.metrics.FullSolves.Inc()
	}
	s.metrics.DeltaSolves.Add(float64(after.DeltaSolves - before.DeltaSolves))
	s.metrics.FullSolves.Add(float64(after.FullSolves - before.FullSolves))
	s.metrics.CacheHits.Add(float64(after.CacheHits - before.CacheHits))
	s.metrics.VerifyDuration.Observe(wall.Seconds(), mode)
	if mode == "delta" {
		s.metrics.RegionNodes.Observe(float64(after.LastAffected))
	}
	if op != nil {
		safe := "unsafe"
		if res.Sat {
			safe = "safe"
		}
		op.SetVerdict(mode + "/" + safe)
		op.Counter("delta_solves", int64(after.DeltaSolves-before.DeltaSolves))
		op.Counter("full_solves", int64(after.FullSolves-before.FullSolves))
		op.Counter("cache_hits", int64(after.CacheHits-before.CacheHits))
		op.Counter("probes", int64(res.Stats.Probes))
		op.Counter("relaxations", int64(res.Stats.Relaxations))
	}

	out := verdict{
		ID: id, Safe: res.Sat,
		NumPreference: res.NumPreference, NumMonotonicity: res.NumMonotonicity,
		Mode: mode, DurationMS: float64(wall.Microseconds()) / 1e3,
		Solver: solverStats{
			Checks: after.Checks, CacheHits: after.CacheHits,
			DeltaSolves: after.DeltaSolves, FullSolves: after.FullSolves,
		},
	}
	for _, c := range res.Core {
		out.Core = append(out.Core, c.Assertion.Origin)
	}
	for _, n := range suspects {
		out.Suspects = append(out.Suspects, string(n))
	}
	if s.opts.CheckOracle {
		out.OracleChecked = true
		out.OracleMismatch = !oracleAgrees(ctx, v, res, suspects)
		if out.OracleMismatch {
			s.metrics.OracleMismatches.Inc()
		}
	}
	return out, nil
}

// oracleAgrees replays the check through the full-rebuild pipeline and
// compares verdict, counts, model (rendered for the comparison), core, and
// suspects bit for bit.
func oracleAgrees(ctx context.Context, v *spp.DeltaVerifier, res analysis.Result, suspects []spp.Node) bool {
	want, wantSus, err := v.VerifyFull(ctx)
	if err != nil {
		return false
	}
	return want.Sat == res.Sat &&
		want.NumPreference == res.NumPreference &&
		want.NumMonotonicity == res.NumMonotonicity &&
		maps.Equal(want.Model, v.Model()) &&
		slices.Equal(want.Core, res.Core) &&
		slices.Equal(wantSus, suspects)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ent := s.lookup(w, r)
	if ent == nil {
		return
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	ctx, op := obs.Flight().StartOp(r.Context(), "verify", ent.id)
	defer op.Finish()
	out, err := s.runVerify(ctx, op, ent.id, ent.v)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "verifying %s: %v", ent.id, err)
		return
	}
	// The operator asked for the resident instance's verdict: a safe one
	// comes with its witness.
	out.Model = ent.v.Model()
	ent.verifies++
	writeJSON(w, http.StatusOK, out)
}

// whatIfOp is one edit of a what-if batch.
type whatIfOp struct {
	// Op is rerank, drop-session, or add-session.
	Op string `json:"op"`
	// Node and Paths parameterize rerank; paths are comma-joined node
	// lists, most preferred first, as in the corpus wire form.
	Node  string   `json:"node,omitempty"`
	Paths []string `json:"paths,omitempty"`
	// A, B, and Cost parameterize drop-session and add-session.
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
	Cost int    `json:"cost,omitempty"`
}

type whatIfRequest struct {
	Ops []whatIfOp `json:"ops"`
	// Discard rolls the edits back once the verdict is in: the resident
	// instance is left as it was, making the call a pure query.
	Discard bool `json:"discard,omitempty"`
}

func parsePath(s string) spp.Path {
	parts := strings.Split(s, ",")
	p := make(spp.Path, 0, len(parts))
	for _, n := range parts {
		p = append(p, spp.Node(strings.TrimSpace(n)))
	}
	return p
}

func applyOp(v *spp.DeltaVerifier, op whatIfOp) error {
	switch op.Op {
	case "rerank":
		if op.Node == "" {
			return fmt.Errorf("rerank wants a node")
		}
		paths := make([]spp.Path, len(op.Paths))
		for i, ps := range op.Paths {
			paths[i] = parsePath(ps)
		}
		return v.ReRank(spp.Node(op.Node), paths...)
	case "drop-session":
		if op.A == "" || op.B == "" {
			return fmt.Errorf("drop-session wants a and b")
		}
		return v.DropSession(spp.Node(op.A), spp.Node(op.B))
	case "add-session":
		if op.A == "" || op.B == "" {
			return fmt.Errorf("add-session wants a and b")
		}
		return v.AddSession(spp.Node(op.A), spp.Node(op.B), op.Cost)
	default:
		return fmt.Errorf("unknown op %q (want rerank, drop-session, add-session)", op.Op)
	}
}

// handleWhatIf runs one batch as a transaction on the resident verifier:
// apply, verify (oracle included, while the edits stand), then commit — or
// roll back, when the caller asked for a pure query or anything failed, so
// a batch is kept whole or not at all. The cost is the edits', whichever
// way it ends.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	ent := s.lookup(w, r)
	if ent == nil {
		return
	}
	var req whatIfRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "what-if wants at least one op")
		return
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	ctx, op := obs.Flight().StartOp(r.Context(), "whatif", ent.id)
	defer op.Finish()

	v := ent.v
	v.Begin()
	keep := false
	defer func() { // every way out but a verified, wanted batch — panics included — rolls back
		name, end := "rollback", v.Rollback
		if keep {
			name, end = "commit", v.Commit
		}
		_, sp := obs.StartSpan(ctx, name)
		_, entries := v.Journal()
		sp.AttrInt("journal_entries", int64(entries))
		end()
		sp.End()
	}()

	_, sp := obs.StartSpan(ctx, "apply")
	for i, o := range req.Ops {
		if err := applyOp(v, o); err != nil {
			sp.End()
			s.metrics.AbortedBatches.Inc()
			op.SetVerdict("aborted")
			writeErr(w, http.StatusBadRequest, "what-if op %d (%s): %v (batch of %d rolled back, instance unchanged)",
				i, o.Op, err, len(req.Ops))
			return
		}
	}
	splices, _ := v.Journal()
	sp.AttrInt("splices", int64(splices))
	sp.End()

	vctx, sp := obs.StartSpan(ctx, "verify")
	out, err := s.runVerify(vctx, op, ent.id, v)
	sp.AttrInt("affected", int64(v.DeltaStats().LastAffected))
	sp.End()
	if err != nil {
		s.metrics.AbortedBatches.Inc()
		writeErr(w, http.StatusUnprocessableEntity, "verifying %s after what-if: %v (batch rolled back, instance unchanged)", ent.id, err)
		return
	}
	out.Applied = len(req.Ops)
	out.Discarded = req.Discard
	if keep = !req.Discard; keep {
		ent.verifies++
	} else {
		s.metrics.Rollbacks.Inc()
	}
	writeJSON(w, http.StatusOK, out)
}

// analyzeResponse reports the verdict plus the solve's introspection
// figures. The model is deliberately omitted: at internet scale it is tens
// of thousands of entries, and one-shot callers want the verdict.
type analyzeResponse struct {
	Name              string   `json:"name"`
	Nodes             int      `json:"nodes"`
	Safe              bool     `json:"safe"`
	Core              []string `json:"core,omitempty"`
	Suspects          []string `json:"suspects,omitempty"`
	NumPreference     int      `json:"num_preference"`
	NumMonotonicity   int      `json:"num_monotonicity"`
	DurationMS        float64  `json:"duration_ms"`
	Components        int      `json:"components,omitempty"`
	TrivialComponents int      `json:"trivial_components,omitempty"`
	Levels            int      `json:"levels,omitempty"`
	MaxLevelWidth     int      `json:"max_level_width,omitempty"`
	Probes            int      `json:"probes,omitempty"`
	Relaxations       int      `json:"relaxations,omitempty"`
}

// handleAnalyze decides one instance — {"gadget"} or {"instance"}, the
// envelope handleCreate reads less its id — once, never resident. Large
// instances take the same internet-scale path Session.AnalyzeSPP takes, so
// this is how the condensation series (fsr_scc_*) get driven from the
// daemon.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	ctx, op := obs.Flight().StartOp(r.Context(), "analyze", "")
	defer op.Finish()
	op.SetVerdict("error") // until there is a verdict on the instance
	req, ok := s.readUpload(ctx, w, r, "analyze", false)
	if !ok {
		return
	}
	in := s.resolveInstance(w, req)
	if in == nil {
		return
	}
	op.SetDetail(in.Name)
	op.SetSize(len(in.Nodes))
	start := time.Now()
	res, suspects, err := s.opts.Analyze(ctx, in)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "analyzing %s: %v", in.Name, err)
		return
	}
	if res.Sat {
		op.SetVerdict("safe")
	} else {
		op.SetVerdict("unsafe")
	}
	out := analyzeResponse{
		Name: in.Name, Nodes: len(in.Nodes), Safe: res.Sat,
		NumPreference: res.NumPreference, NumMonotonicity: res.NumMonotonicity,
		DurationMS:        float64(time.Since(start).Microseconds()) / 1e3,
		Components:        res.Stats.Components,
		TrivialComponents: res.Stats.TrivialComponents,
		Levels:            res.Stats.Levels,
		MaxLevelWidth:     res.Stats.MaxLevelWidth,
		Probes:            res.Stats.Probes,
		Relaxations:       res.Stats.Relaxations,
	}
	for _, c := range res.Core {
		out.Core = append(out.Core, c.Assertion.Origin)
	}
	for _, n := range suspects {
		out.Suspects = append(out.Suspects, string(n))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.instances)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "instances": n})
}
