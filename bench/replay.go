package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"

	"fsr"
	"fsr/internal/analysis"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
)

// The traced run. It replays a fixed number of each workload's operations
// inside this process. Every operation is one root span with three
// children:
//
//	entry   the public entry point as a black box, tracing off: the
//	        daemon's handler on an in-memory recorder, or the Session call
//	replay  the layers' public functions called directly, in the order the
//	        entry point calls them, one child span each
//	probes  layers that run *inside* a replay span and can only be timed by
//	        calling them again (spp.Validate inside DecodeInstance, the
//	        solver inside CheckPrepared), and from-scratch baselines
//
// Only real clocks are recorded: a layer metric is the time of the named
// call, whatever it contains (README.md says what each contains). The
// replay mirrors the entry points' routing by hand (scaleThreshold below),
// which is the price of tracing from outside: when a later change moves a
// layer, the entry-vs-replay verdict check and server.overhead_ms show it.

// scaleThreshold mirrors session.go: AnalyzeSPP sends instances of at
// least this many nodes down spp.AnalyzeScale.
const scaleThreshold = 512

// Response mirrors, for timing encoding/json on what the daemon encodes.
type (
	solverStats struct {
		Checks      int `json:"checks"`
		CacheHits   int `json:"cache_hits"`
		DeltaSolves int `json:"delta_solves"`
		FullSolves  int `json:"full_solves"`
	}
	instanceInfo struct {
		ID       string `json:"id"`
		Name     string `json:"name"`
		Nodes    int    `json:"nodes"`
		Sessions int    `json:"sessions"`
	}
	verdictResp struct {
		ID              string         `json:"id"`
		Safe            bool           `json:"safe"`
		Model           map[string]int `json:"model,omitempty"`
		Core            []string       `json:"core,omitempty"`
		Suspects        []string       `json:"suspects,omitempty"`
		NumPreference   int            `json:"num_preference"`
		NumMonotonicity int            `json:"num_monotonicity"`
		Mode            string         `json:"mode"`
		DurationMS      float64        `json:"duration_ms"`
		Applied         int            `json:"applied,omitempty"`
		Discarded       bool           `json:"discarded,omitempty"`
		Solver          solverStats    `json:"solver"`
	}
	analyzeResp struct {
		Name            string   `json:"name"`
		Nodes           int      `json:"nodes"`
		Safe            bool     `json:"safe"`
		Core            []string `json:"core,omitempty"`
		Suspects        []string `json:"suspects,omitempty"`
		NumPreference   int      `json:"num_preference"`
		NumMonotonicity int      `json:"num_monotonicity"`
		DurationMS      float64  `json:"duration_ms"`
		Components      int      `json:"components,omitempty"`
		Levels          int      `json:"levels,omitempty"`
		MaxLevelWidth   int      `json:"max_level_width,omitempty"`
		Probes          int      `json:"probes,omitempty"`
		Relaxations     int      `json:"relaxations,omitempty"`
	}
)

// verdict is what entry and replay must agree on.
type verdict struct {
	safe      bool
	core      int
	suspects  string
	converged bool // campaign-sim: the execution's outcome
}

func verdictOf(res analysis.Result, suspects []spp.Node) verdict {
	return verdict{safe: res.Sat, core: len(res.Core), suspects: strings.Join(names(suspects), ",")}
}

func names(nodes []spp.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = string(n)
	}
	return out
}

// replayer holds one workload's traced run.
type replayer struct {
	rec     *recorder
	ctx     context.Context
	workers int
	op      int                        // operation being replayed
	counts  map[string]map[int]float64 // metric or "_helper" name → operation → count
	probes  []func(parent int)         // queued during replay, run after it
	errs    []string

	// Serve workloads: the in-process daemon, the replay's own resident
	// verifier, and the plain instance the from-scratch baseline edits.
	handler http.Handler
	v       *spp.DeltaVerifier
	shadow  *spp.Instance
}

func (r *replayer) count(name string, n int) {
	if r.counts[name] == nil {
		r.counts[name] = map[int]float64{}
	}
	r.counts[name][r.op] += float64(n)
}

func (r *replayer) errorf(format string, args ...any) {
	if len(r.errs) < maxListedErrors {
		r.errs = append(r.errs, fmt.Sprintf("op %d: ", r.op)+fmt.Sprintf(format, args...))
	}
}

func (r *replayer) probe(name string, fn func()) {
	r.probes = append(r.probes, func(parent int) { r.rec.in(name, r.op, parent, fn) })
}

// countResult records the solver and result counts of one analysis.
func (r *replayer) countResult(res analysis.Result, suspects []spp.Node) {
	r.count("smt.probes", res.Stats.Probes)
	r.count("smt.relaxations", res.Stats.Relaxations)
	r.count("smt.components", res.Stats.Components)
	r.count("smt.levels", res.Stats.Levels)
	r.count("smt.max_level_width", res.Stats.MaxLevelWidth)
	r.count("spp.model_entries", len(res.Model))
	r.count("spp.constraints", res.NumPreference+res.NumMonotonicity)
	r.count("spp.core_size", len(res.Core))
	r.count("spp.suspects", len(suspects))
}

// operation runs one traced operation: entry, replay and probes under one
// root span. entry and replay return the verdicts they reached, in order.
func (r *replayer) operation(op int, entry, replay func(parent int) []verdict) {
	r.op = op
	root := r.rec.begin("op", op, -1)
	// Each phase starts on a collected heap, off its own clock, so the
	// garbage of one phase is not collected at the expense of the next.
	runtime.GC()
	id := r.rec.begin("entry", op, root)
	want := entry(id)
	r.rec.finish(id)
	runtime.GC()
	id = r.rec.begin("replay", op, root)
	got := replay(id)
	r.rec.finish(id)
	runtime.GC()
	id = r.rec.begin("probes", op, root)
	for _, p := range r.probes {
		p(id)
	}
	r.probes = nil
	r.rec.finish(id)
	r.rec.finish(root)
	if len(got) != len(want) {
		r.errorf("replay reached %d verdicts, entry point %d", len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.errorf("verdict %d: replay %+v, entry point %+v", i, got[i], want[i])
		}
	}
}

// traced replays a workload and returns its layer table and what went
// wrong; the recorder is returned for the trace file.
func traced(name string, in *inputs, sz sizes) (map[string]float64, []string, *recorder) {
	r := &replayer{
		rec: newRecorder(), ctx: context.Background(),
		workers: runtime.GOMAXPROCS(0), counts: map[string]map[int]float64{},
	}
	ops := sz.TracedOps[name]
	switch name {
	case scaleSession:
		r.scaleSession(in, ops)
	case campaignSim:
		r.campaignSim(in, ops)
	default:
		r.handler = fsr.NewServerHandler(fsr.ServeOptions{})
		if len(in.setup) > 0 {
			r.serveOp(0, in.setup)
		}
		for i := 0; i < ops; i++ {
			r.serveOp(i+1, in.ops[i%len(in.ops)])
		}
	}
	if share := r.rec.unattributedShare("replay"); share > 0.05 {
		r.errs = append(r.errs, fmt.Sprintf("%.1f%% of the replay's time is in no layer span (limit 5%%)", share*100))
	}
	return r.table(), r.errs, r.rec
}

// serveOp replays one operation of a serve workload: each request through
// the handler, then through the layers the handler calls.
func (r *replayer) serveOp(op int, reqs []request) {
	r.operation(op, func(parent int) []verdict {
		var out []verdict
		for _, rq := range reqs {
			w := httptest.NewRecorder()
			hr := httptest.NewRequest(rq.Method, rq.Path, bytes.NewReader(rq.Body))
			r.rec.in("server.handler", op, parent, func() { r.handler.ServeHTTP(w, hr) })
			a, why := rq.Want.check(w.Code, w.Body.Bytes())
			if why != "" {
				r.errorf("%s through the handler: %s", rq.Label, why)
			}
			if rq.Want.Safe != nil {
				out = append(out, verdict{safe: a.Safe != nil && *a.Safe, core: len(a.Core), suspects: strings.Join(a.Suspects, ",")})
			}
		}
		return out
	}, func(parent int) []verdict {
		var out []verdict
		for _, rq := range reqs {
			id := r.rec.begin(rq.Label, op, parent)
			v, err := r.request(id, rq)
			r.rec.finish(id)
			if err != nil {
				r.errorf("%s replayed: %v", rq.Label, err)
			}
			if rq.Want.Safe != nil {
				out = append(out, v)
			}
		}
		return out
	})
}

func (r *replayer) decodeJSON(parent int, body []byte, into any) (err error) {
	r.rec.in("server.json_decode", r.op, parent, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(into)
	})
	return err
}

func (r *replayer) encodeJSON(parent int, v any) {
	r.rec.in("server.json_encode", r.op, parent, func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.Encode(v)
	})
}

func (r *replayer) decodeInstance(parent int, j *scenario.InstanceJSON) (in *spp.Instance, err error) {
	if j == nil {
		return nil, fmt.Errorf("request carries no inline instance")
	}
	r.rec.in("scenario.decode_instance", r.op, parent, func() { in, err = scenario.DecodeInstance(*j) })
	if err == nil {
		r.probe("spp.validate", func() { in.Validate() })
	}
	return in, err
}

// request replays one request by calling what its handler calls.
func (r *replayer) request(parent int, rq request) (verdict, error) {
	switch {
	case rq.Path == "/v1/instances":
		var req createReq
		if err := r.decodeJSON(parent, rq.Body, &req); err != nil {
			return verdict{}, err
		}
		in, err := r.decodeInstance(parent, req.Instance)
		if err != nil {
			return verdict{}, err
		}
		r.rec.in("spp.new_delta_verifier", r.op, parent, func() { r.v, err = spp.NewDeltaVerifier(in) })
		r.shadow = in // NewDeltaVerifier took its own copy
		r.encodeJSON(parent, instanceInfo{ID: req.ID, Name: in.Name, Nodes: len(in.Nodes), Sessions: len(in.Links) / 2})
		return verdict{}, err

	case strings.HasSuffix(rq.Path, "/verify"):
		return r.verify(parent, r.v, whatIfReq{})

	case strings.HasSuffix(rq.Path, "/whatif"):
		var req whatIfReq
		if err := r.decodeJSON(parent, rq.Body, &req); err != nil {
			return verdict{}, err
		}
		target := r.v
		if req.Discard {
			r.rec.in("spp.clone", r.op, parent, func() { target = r.v.Clone() })
		}
		for _, o := range req.Ops {
			var err error
			r.rec.in("spp.rerank", r.op, parent, func() { err = target.ReRank(spp.Node(o.Node), parsePaths(o.Paths)...) })
			if err != nil {
				return verdict{}, err
			}
		}
		r.probes = append(r.probes, func(probes int) { r.fromScratch(probes, req, *rq.Want.Safe) })
		return r.verify(parent, target, req)

	case rq.Path == "/v1/analyze":
		var req analyzeReq
		if err := r.decodeJSON(parent, rq.Body, &req); err != nil {
			return verdict{}, err
		}
		in, err := r.decodeInstance(parent, req.Instance)
		if err != nil {
			return verdict{}, err
		}
		res, suspects, err := r.analyzeSPP(parent, in)
		if err != nil {
			return verdict{}, err
		}
		out := analyzeResp{
			Name: in.Name, Nodes: len(in.Nodes), Safe: res.Sat,
			Core: origins(res.Core), Suspects: names(suspects),
			NumPreference: res.NumPreference, NumMonotonicity: res.NumMonotonicity,
			Components: res.Stats.Components, Levels: res.Stats.Levels, MaxLevelWidth: res.Stats.MaxLevelWidth,
			Probes: res.Stats.Probes, Relaxations: res.Stats.Relaxations,
		}
		r.encodeJSON(parent, out)
		return verdictOf(res, suspects), nil
	}
	return verdict{}, fmt.Errorf("no replay for %s %s", rq.Method, rq.Path)
}

// verify mirrors the daemon's runVerify: Verify on the target, the delta
// bookkeeping, and the verdict body.
func (r *replayer) verify(parent int, target *spp.DeltaVerifier, req whatIfReq) (verdict, error) {
	var (
		res      analysis.Result
		suspects []spp.Node
		err      error
	)
	before := target.DeltaStats()
	r.rec.in("spp.verify", r.op, parent, func() { res, suspects, err = target.Verify(r.ctx) })
	if err != nil {
		return verdict{}, err
	}
	after := target.DeltaStats()
	r.count("smt.delta_solves", after.DeltaSolves-before.DeltaSolves)
	r.count("smt.full_solves", after.FullSolves-before.FullSolves)
	r.count("smt.cache_hits", after.CacheHits-before.CacheHits)
	r.count("smt.last_affected", after.LastAffected)
	r.countResult(res, suspects)
	r.encodeJSON(parent, verdictResp{
		ID: residentID, Safe: res.Sat, Model: res.Model,
		Core: origins(res.Core), Suspects: names(suspects),
		NumPreference: res.NumPreference, NumMonotonicity: res.NumMonotonicity,
		Applied: len(req.Ops), Discarded: req.Discard,
		Solver: solverStats{Checks: after.Checks, CacheHits: after.CacheHits, DeltaSolves: after.DeltaSolves, FullSolves: after.FullSolves},
	})
	return verdictOf(res, suspects), nil
}

// fromScratch is the baseline any "delta versus full" ratio must be given
// against: the same edit applied to a plain instance and analysed from
// nothing by the fastest existing path, spp.AnalyzeScale.
// (DeltaVerifier.VerifyFull, the legacy pipeline, takes 58 s on the n=5000
// instance and cannot run inside a benchmark run.)
func (r *replayer) fromScratch(parent int, req whatIfReq, wantSafe bool) {
	saved := map[spp.Node][]spp.Path{}
	for _, o := range req.Ops {
		n := spp.Node(o.Node)
		if _, seen := saved[n]; !seen {
			saved[n] = r.shadow.Permitted[n]
		}
		r.shadow.Rank(n, parsePaths(o.Paths)...)
	}
	var (
		res analysis.Result
		ok  bool
		err error
	)
	r.rec.in("spp.analyze_scale", r.op, parent, func() { res, _, ok, err = spp.AnalyzeScale(r.ctx, r.shadow, r.workers) })
	if err != nil || !ok || res.Sat != wantSafe {
		r.errorf("from-scratch baseline: ok=%v sat=%v err=%v, want sat=%v", ok, res.Sat, err, wantSafe)
	}
	if req.Discard {
		for n, paths := range saved {
			r.shadow.Rank(n, paths...)
		}
	}
}

// analyzeSPP mirrors Session.AnalyzeSPP's routing on the default session.
func (r *replayer) analyzeSPP(parent int, in *spp.Instance) (res analysis.Result, suspects []spp.Node, err error) {
	if len(in.Nodes) >= scaleThreshold {
		var ok bool
		r.rec.in("spp.analyze_scale", r.op, parent, func() { res, suspects, ok, err = spp.AnalyzeScale(r.ctx, in, r.workers) })
		if err != nil {
			return res, nil, err
		}
		if ok {
			r.countResult(res, suspects)
			r.probeScale(in, !res.Sat)
			return res, suspects, nil
		}
	}
	_, res, suspects, err = r.classic(parent, in)
	return res, suspects, err
}

// probeScale times the pieces of the scale path on one instance: sharded
// §IV-B emission and the SCC-decomposed solve of what it emitted, and, for
// an unsat instance, the native solve that minimizes the core.
func (r *replayer) probeScale(in *spp.Instance, unsat bool) {
	r.probes = append(r.probes, func(parent int) {
		var cons []analysis.Constraint
		r.rec.in("spp.sharded_constraints", r.op, parent, func() { cons, _, _ = spp.ShardedConstraints(in, r.workers) })
		asserts := assertions(cons)
		if unsat {
			r.rec.in("smt.resolve", r.op, parent, func() { smt.Native{}.Solve(r.ctx, asserts) })
		} else {
			r.rec.in("smt.scc_solve", r.op, parent, func() { smt.Decomposed{}.Solve(r.ctx, asserts) })
		}
	})
}

// classic replays the pipeline small instances and every campaign scenario
// take: §III-B conversion, §IV-B constraint generation, the check, and the
// §VI-B suspect mapping.
func (r *replayer) classic(parent int, in *spp.Instance) (conv *spp.Conversion, res analysis.Result, suspects []spp.Node, err error) {
	r.rec.in("spp.to_algebra", r.op, parent, func() { conv, err = in.ToAlgebra() })
	if err != nil {
		return nil, res, nil, err
	}
	var cons []analysis.Constraint
	r.rec.in("analysis.constraints", r.op, parent, func() {
		cons, err = analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
	})
	if err != nil {
		return nil, res, nil, err
	}
	r.rec.in("analysis.check", r.op, parent, func() {
		res, err = analysis.CheckPrepared(r.ctx, conv.Algebra.Name(), analysis.StrictMonotonicity, cons, smt.Native{})
	})
	if err != nil {
		return nil, res, nil, err
	}
	r.rec.in("spp.suspects", r.op, parent, func() { suspects = conv.SuspectNodes(res.Core) })
	r.countResult(res, suspects)
	asserts := assertions(cons)
	r.probe("smt.solve", func() { smt.Native{}.Solve(r.ctx, asserts) })
	return conv, res, suspects, nil
}

// scaleSession replays scale-session: both AnalyzeSPP calls through a
// default Session, then spp.AnalyzeScale directly.
func (r *replayer) scaleSession(in *inputs, ops int) {
	sess := fsr.NewSession()
	for op := 1; op <= ops; op++ {
		r.operation(op, func(parent int) []verdict {
			var out []verdict
			for _, safe := range []bool{true, false} {
				inst := in.unsafe
				if safe {
					inst = in.safe
				}
				var (
					res      analysis.Result
					suspects []spp.Node
					err      error
				)
				r.rec.in("session.analyze_spp", op, parent, func() { res, suspects, err = sess.AnalyzeSPP(r.ctx, inst) })
				if err != nil {
					r.errorf("Session.AnalyzeSPP: %v", err)
				} else if why := scaleVerdict(in, safe, res, suspects); why != "" {
					r.errorf("Session.AnalyzeSPP: %s", why)
				}
				out = append(out, verdictOf(res, suspects))
			}
			return out
		}, func(parent int) []verdict {
			var out []verdict
			for _, inst := range []*spp.Instance{in.safe, in.unsafe} {
				res, suspects, err := r.analyzeSPP(parent, inst)
				if err != nil {
					r.errorf("replayed analysis: %v", err)
				}
				out = append(out, verdictOf(res, suspects))
			}
			return out
		})
	}
}

// campaignSim replays campaign-sim: Session.Campaign as the entry point,
// then every scenario's generate → convert → analyse → run, serially.
func (r *replayer) campaignSim(in *inputs, ops int) {
	sess := fsr.NewSession()
	for op := 1; op <= ops; op++ {
		spec := in.campaign(op)
		r.operation(op, func(parent int) []verdict {
			var rep *fsr.CampaignReport
			var err error
			r.rec.in("session.campaign", op, parent, func() { rep, err = sess.Campaign(r.ctx, spec) })
			if err != nil {
				r.errorf("Session.Campaign: %v", err)
				return nil
			}
			if why := checkCampaign(rep); why != "" {
				r.errorf("Session.Campaign: %s", why)
			}
			out := make([]verdict, len(rep.Results))
			for i, res := range rep.Results {
				out[i] = verdict{safe: res.Sat, converged: res.Converged}
			}
			return out
		}, func(parent int) []verdict {
			out := make([]verdict, spec.Count)
			for i := range out {
				kind, seed := spec.Kinds[i%len(spec.Kinds)], spec.BaseSeed+int64(i)
				var sc *fsr.Scenario
				var err error
				r.rec.in("scenario.generate", op, parent, func() { sc, err = fsr.GenerateScenario(kind, seed) })
				if err != nil {
					r.errorf("generating %s seed %d: %v", kind, seed, err)
					continue
				}
				conv, res, _, err := r.classic(parent, sc.Instance)
				if err != nil {
					r.errorf("analysing %s seed %d: %v", kind, seed, err)
					continue
				}
				if sc.Expected == fsr.ExpectSafe && !res.Sat || sc.Expected == fsr.ExpectUnsafe && res.Sat {
					r.errorf("%s seed %d: sat=%v, generator guarantees %s", kind, seed, res.Sat, sc.Expected)
				}
				var run *fsr.RunReport
				r.rec.in("engine.run", op, parent, func() {
					run, err = fsr.NewSession(fsr.WithSeed(seed), fsr.WithFaultPlan(sc.Plan)).RunConversion(r.ctx, conv)
				})
				if err != nil {
					r.errorf("running %s seed %d: %v", kind, seed, err)
					continue
				}
				r.count("engine.messages", run.Messages)
				r.count("engine.delivered", int(run.Delivered))
				r.count("engine.dropped", int(run.Dropped))
				r.count("engine.route_changes", int(run.RouteChanges))
				r.count("engine.faults", int(run.Faults))
				r.count("_runs", 1)
				if run.Converged {
					r.count("_converged", 1)
					r.count("_virtual_us", int(run.Time.Microseconds()))
				}
				out[i] = verdict{safe: res.Sat, converged: run.Converged}
			}
			return out
		})
	}
}

// table turns spans and counts into the per-layer metrics. A timing is the
// median over the replayed operations of the operation's total in that
// layer; layers that only run while the daemon is set up (operation 0) are
// read from there.
func (r *replayer) table() map[string]float64 {
	t := map[string]float64{}
	spans := func(name string) map[int]float64 { return r.rec.opSums(name) }
	for metric, name := range map[string]string{
		"server.handler_ms":           "server.handler",
		"server.json_decode_ms":       "server.json_decode",
		"server.json_encode_ms":       "server.json_encode",
		"scenario.decode_instance_ms": "scenario.decode_instance",
		"analysis.check_ms":           "analysis.check",
		"spp.validate_ms":             "spp.validate",
		"spp.to_algebra_ms":           "spp.to_algebra",
		"analysis.constraints_ms":     "analysis.constraints",
		"spp.sharded_constraints_ms":  "spp.sharded_constraints",
		"spp.analyze_scale_ms":        "spp.analyze_scale",
		"spp.suspects_ms":             "spp.suspects",
		"spp.new_delta_verifier_ms":   "spp.new_delta_verifier",
		"spp.clone_ms":                "spp.clone",
		"spp.rerank_ms":               "spp.rerank",
		"spp.verify_ms":               "spp.verify",
		"smt.scc_solve_ms":            "smt.scc_solve",
		"scenario.generate_ms":        "scenario.generate",
		"engine.run_ms":               "engine.run",
	} {
		t[metric] = steady(spans(name))
	}
	// smt.Native runs under analysis.CheckPrepared on the classic path and
	// as the core-minimizing re-solve of an unsat scale-path instance.
	t["smt.solve_ms"] = steady(plus(spans("smt.solve"), spans("smt.resolve"), 1))
	if r.handler != nil {
		t["server.overhead_ms"] = steady(plus(spans("server.handler"), spans("replay"), -1))
	}
	// The replay is serial where Session.Campaign fans out over the
	// session's workers: the residual is the pool and the classification.
	if campaign := spans("session.campaign"); len(campaign) > 0 {
		t["scenario.campaign_overhead_ms"] = steady(plus(campaign, spans("replay"), -1/float64(r.workers)))
	}
	// How far the layered replay's total is from the entry point's own.
	entry := plus(plus(spans("server.handler"), spans("session.analyze_spp"), 1), spans("session.campaign"), 1)
	if base := steady(entry); base > 0 {
		t["obs.trace_overhead_pct"] = (steady(spans("replay")) - base) / base * 100
	}
	for name, perOp := range r.counts {
		t[name] = steady(perOp)
	}
	if solves := t["smt.delta_solves"] + t["smt.full_solves"]; solves > 0 {
		t["smt.delta_ratio"] = t["smt.delta_solves"] / solves
	}
	if runs := t["_runs"]; runs > 0 {
		t["engine.converged_share"] = t["_converged"] / runs
	}
	if converged := t["_converged"]; converged > 0 {
		t["engine.virtual_converge_ms"] = t["_virtual_us"] / converged / 1e3
	}
	for name := range t {
		if strings.HasPrefix(name, "_") {
			delete(t, name)
		}
	}
	return t
}

// steady is the median over the replayed operations (numbered from 1), or
// the set-up operation's value when the layer ran only there.
func steady(perOp map[int]float64) float64 {
	var vals []float64
	for op, v := range perOp {
		if op > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return perOp[0]
	}
	return median(vals)
}

// plus is a + k·b per operation.
func plus(a, b map[int]float64, k float64) map[int]float64 {
	out := make(map[int]float64, len(a))
	for op, v := range a {
		out[op] = v
	}
	for op, v := range b {
		out[op] += k * v
	}
	return out
}

func assertions(cons []analysis.Constraint) []smt.Assertion {
	out := make([]smt.Assertion, len(cons))
	for i := range cons {
		out[i] = cons[i].Assertion
	}
	return out
}

func origins(core []analysis.Constraint) []string {
	out := make([]string, len(core))
	for i := range core {
		out[i] = core[i].Assertion.Origin
	}
	return out
}

func parsePaths(paths []string) []spp.Path {
	out := make([]spp.Path, len(paths))
	for i, p := range paths {
		for _, hop := range strings.Split(p, ",") {
			out[i] = append(out[i], spp.Node(strings.TrimSpace(hop)))
		}
	}
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s, n := sorted(vals), len(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
