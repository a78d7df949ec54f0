package fsr

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/analysis"
	"fsr/internal/engine"
	"fsr/internal/ndlog"
	"fsr/internal/obs"
	"fsr/internal/scenario"
	"fsr/internal/simnet"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/trace"
)

// Session owns one configured instance of the FSR pipeline: policy →
// constraints → solver verdict → NDlog program → simulated or socket
// deployment. Constraints are decided in process by the native
// difference-logic engine; the Yices text of §IV-C is output only
// (SolverEncoding). A Session is immutable after NewSession and safe for
// concurrent use; every long-running method takes a context and honours
// cancellation.
type Session struct {
	runner      engine.Runner
	seed        int64
	batch       time.Duration
	stagger     time.Duration
	staggerSet  bool
	horizon     time.Duration
	idle        time.Duration
	link        simnet.LinkConfig
	linkSet     bool
	loss        float64
	lossSet     bool
	plan        *engine.FaultPlan
	parallelism int
	collector   *trace.Collector
}

// Option configures a Session.
type Option func(*Session)

// WithRunner selects the protocol-execution backend (default
// SimulationRunner).
func WithRunner(r RunnerBackend) Option { return func(o *Session) { o.runner = r } }

// WithSeed sets the seed driving all deterministic randomness — simulation
// scheduling, batch jitter, start stagger (default 1). Runs with equal
// seeds and options are reproducible byte for byte in simulation mode.
func WithSeed(seed int64) Option { return func(o *Session) { o.seed = seed } }

// WithBatchWindow sets the route-propagation batch interval (§VI-A uses
// 1 s; default 0, meaning unbatched). Unless WithStartStagger is given,
// node starts are staggered over half the batch window, matching how real
// routers desynchronize.
func WithBatchWindow(d time.Duration) Option { return func(o *Session) { o.batch = d } }

// WithStartStagger sets the per-node start stagger explicitly, overriding
// the batch-window-derived default.
func WithStartStagger(d time.Duration) Option {
	return func(o *Session) { o.stagger = d; o.staggerSet = true }
}

// WithHorizon bounds protocol executions: virtual time in simulation, wall
// clock in deployment (default 5 s).
func WithHorizon(d time.Duration) Option { return func(o *Session) { o.horizon = d } }

// WithIdleWindow sets the deployment-mode quiescence window (default
// 200 ms). Simulation runners detect quiescence exactly and ignore it.
func WithIdleWindow(d time.Duration) Option { return func(o *Session) { o.idle = d } }

// WithLink configures simulated links (default: the paper's 100 Mbps,
// 10 ms link). A zero latency with bandwidth 0 is honoured as an ideal
// link (no delay, infinite bandwidth). Deployment runners use the real
// network stack and ignore it.
func WithLink(latency time.Duration, bandwidthBps int64) Option {
	return func(o *Session) {
		o.link = simnet.LinkConfig{Latency: latency, Bandwidth: bandwidthBps}
		o.linkSet = true
	}
}

// WithLinkLoss sets the probabilistic per-message loss rate on every
// simulated link, in [0, 1), on top of whatever link shape is configured
// (WithLink or the default). Losses draw from the run's seeded RNG, so
// equal seeds lose the same messages. Deployment runners ignore it.
func WithLinkLoss(p float64) Option {
	return func(o *Session) { o.loss = p; o.lossSet = true }
}

// WithFaultPlan schedules fault injection — link flaps, partitions, node
// restarts, mid-run policy changes — into every Run on the session. Build
// a deterministic plan with BuildFaultPlan or assemble FaultOps by hand.
// Only the compiled simulation runner executes plans; the interpreter and
// the TCP deployment reject sessions carrying one.
func WithFaultPlan(p *FaultPlan) Option { return func(o *Session) { o.plan = p } }

// WithTrace attaches a traffic collector; the same collector accumulates
// across every Run on the session, and RunReport totals are read from it.
// It totals messages and bytes sent and buckets them into a bandwidth
// series; there is no per-node table. Nil (the default) gives each run a
// private collector.
func WithTrace(c *TraceCollector) Option { return func(o *Session) { o.collector = c } }

// WithParallelism sizes the AnalyzeAll and Campaign worker pools (default
// runtime.GOMAXPROCS(0); values below 1 mean 1). A single analysis takes no
// worker count: AnalyzeSPP shards its constraint emission by itself, and
// only once the instance is large enough for that to pay.
func WithParallelism(n int) Option { return func(o *Session) { o.parallelism = n } }

// NewSession returns a Session with the given options applied over the
// defaults: simulation runner, seed 1, unbatched sends, 5 s
// horizon, GOMAXPROCS parallelism.
func NewSession(opts ...Option) *Session {
	s := &Session{
		runner:      engine.SimRunner{},
		seed:        1,
		horizon:     5 * time.Second,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.runner == nil {
		s.runner = engine.SimRunner{}
	}
	if s.parallelism < 1 {
		s.parallelism = 1
	}
	return s
}

// RunnerName reports the configured runner backend's name.
func (s *Session) RunnerName() string { return s.runner.Name() }

// Analyze decides safety for a policy configuration, applying the
// lexical-product composition rule (§IV).
func (s *Session) Analyze(ctx context.Context, a Algebra) (SafetyReport, error) {
	ctx, op := obs.Flight().StartOp(ctx, "analyze", a.Name())
	ctx, sp := obs.StartSpan(ctx, "analyze")
	sp.Attr("algebra", a.Name())
	defer sp.End()
	rep, err := analysis.AnalyzeSafetyWith(ctx, a, smt.Native{})
	if op != nil {
		if err != nil {
			op.SetVerdict("error")
		} else {
			op.SetVerdict(rep.Verdict.String())
			var probes, relax int64
			for i := range rep.Steps {
				probes += int64(rep.Steps[i].Stats.Probes)
				relax += int64(rep.Steps[i].Stats.Relaxations)
			}
			op.Counter("probes", probes)
			op.Counter("relaxations", relax)
		}
		op.Finish()
	}
	return rep, err
}

// AnalyzeAll analyzes a batch of policy configurations concurrently over a
// worker pool of WithParallelism workers, preserving input order in the
// results. The first error cancels the remaining work and is returned.
// Work is claimed through an atomic index rather than a feeder channel, so
// the pool costs one goroutine handoff per worker, not one per job — the
// difference is visible when the batch is large and each analysis is a
// sub-millisecond incremental solve.
func (s *Session) AnalyzeAll(ctx context.Context, algebras ...Algebra) ([]SafetyReport, error) {
	reports := make([]SafetyReport, len(algebras))
	if len(algebras) == 0 {
		return reports, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := s.parallelism
	if workers > len(algebras) {
		workers = len(algebras)
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(algebras) || ctx.Err() != nil {
					return
				}
				rep, err := analysis.AnalyzeSafetyWith(ctx, algebras[i], smt.Native{})
				if err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				reports[i] = rep
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reports, nil
}

// CheckStrictMonotonicity runs the single strict-monotonicity check,
// returning the solver-level result with model or minimal core.
func (s *Session) CheckStrictMonotonicity(ctx context.Context, a Algebra) (AnalysisResult, error) {
	return analysis.CheckWith(ctx, a, analysis.StrictMonotonicity, smt.Native{})
}

// CheckMonotonicity runs the plain monotonicity check.
func (s *Session) CheckMonotonicity(ctx context.Context, a Algebra) (AnalysisResult, error) {
	return analysis.CheckWith(ctx, a, analysis.Monotonicity, smt.Native{})
}

// AnalyzeSPP checks an SPP instance in one step, returning the analysis
// result and the suspect nodes implicated by the core (empty when sat).
//
// Every instance, whatever its size, takes the one §IV-B emitter
// (spp.Analyze): sharded constraint generation over interned path ids,
// without compiling the algebra. The dense encoding is decided on the
// SCC-decomposed engine, and provenance is rendered only for an unsat core.
// The result, and the error for an instance that has no algebra, are the
// ones ToAlgebra followed by CheckStrictMonotonicity would produce.
func (s *Session) AnalyzeSPP(ctx context.Context, in *SPPInstance) (AnalysisResult, []SPPNode, error) {
	ctx, op := obs.Flight().StartOp(ctx, "analyze-spp", in.Name)
	op.SetSize(len(in.Nodes))
	ctx, sp := obs.StartSpan(ctx, "analyze-spp")
	sp.AttrInt("nodes", int64(len(in.Nodes)))
	res, suspects, err := spp.Analyze(ctx, in)
	sp.End()
	if op != nil {
		switch {
		case err != nil:
			op.SetVerdict("error")
		case res.Sat:
			op.SetVerdict("safe")
		default:
			op.SetVerdict("unsafe")
		}
		op.Counter("probes", int64(res.Stats.Probes))
		op.Counter("relaxations", int64(res.Stats.Relaxations))
		op.Counter("components", int64(res.Stats.Components))
		op.Counter("trivial_components", int64(res.Stats.TrivialComponents))
		op.Counter("levels", int64(res.Stats.Levels))
		op.Counter("max_level_width", int64(res.Stats.MaxLevelWidth))
		op.Finish()
	}
	return res, suspects, err
}

// OpenDeltaVerifier loads an SPP instance into a resident incremental
// verifier. The load costs about one AnalyzeSPP: the verifier deep-copies
// the instance, builds its graph from the emitter's prep of the copy, and
// its first Verify is the emitter's dense solve. It then re-verifies edits
// (ReRank, AddSession, DropSession) by patching the standing
// difference-logic graph and re-probing only the affected region — the
// daemon-mode counterpart of AnalyzeSPP. Verdicts and models are bit-for-bit identical to a full
// rebuild (VerifyFull is the differential oracle), and so are minimal
// cores, member for member and in order, but without positions: CoreIdx is
// nil. Verify answers verdict, core and suspects, and Model renders the witness
// of a safe verdict for the caller that wants it. A what-if that may not be
// kept runs between Begin and Rollback (or Commit): Rollback leaves the
// verifier exactly as Begin found it, at the cost of the edits made.
// A DeltaVerifier is single-goroutine; concurrent use needs external
// locking.
func (s *Session) OpenDeltaVerifier(in *SPPInstance) (*DeltaVerifier, error) {
	return spp.NewDeltaVerifier(in)
}

// Compile translates a policy configuration to its NDlog implementation:
// the GPV program plus the generated policy functions (§V, Table II).
func (s *Session) Compile(a Algebra) (*NDlogProgram, error) { return ndlog.Generate(a) }

// SolverEncoding renders the §IV-C style solver input for a policy: the
// Yices text the paper hands to its solver. Parse reads it back without
// losing an assertion (the round-trip tests hold that).
func (s *Session) SolverEncoding(a Algebra) (string, error) {
	return analysis.Yices(a, analysis.StrictMonotonicity)
}

// Campaign runs a differential analysis-vs-simulation campaign (the
// scenario engine): spec.Count procedurally generated scenarios are fanned
// across the session's worker pool, each one safety-analyzed and executed
// as a bounded run on the session's runner, and every outcome is classified against the verdict its generator
// guarantees by construction. Spec fields left zero inherit the session's
// configuration (runner, parallelism, seed, horizon); with
// spec.Shrink set, divergences and mismatches are delta-debugged down to
// minimal replayable instances. Equal specs on equal sessions reproduce
// identical classifications.
func (s *Session) Campaign(ctx context.Context, spec CampaignSpec) (*CampaignReport, error) {
	return scenario.Run(ctx, s.scenarioSpec(spec))
}

// Replay re-evaluates corpus entries written by an earlier campaign,
// reporting whether each recorded (verdict, convergence) pair reproduces
// under the session's backends.
func (s *Session) Replay(ctx context.Context, entries []CorpusEntry) ([]ReplayResult, error) {
	return scenario.Replay(ctx, entries, s.scenarioSpec(CampaignSpec{}))
}

// scenarioSpec fills a campaign spec's zero fields from the session.
func (s *Session) scenarioSpec(spec CampaignSpec) CampaignSpec {
	if spec.Runner == nil {
		spec.Runner = s.runner
	}
	if spec.Parallelism == 0 {
		spec.Parallelism = s.parallelism
	}
	if spec.BaseSeed == 0 {
		spec.BaseSeed = s.seed
	}
	if spec.Horizon == 0 {
		spec.Horizon = s.horizon
	}
	return spec
}

// Run executes an SPP instance on the session's runner backend, which builds
// its GPV implementation from the instance, to quiescence or the horizon. An
// instance SPPAlgebra rejects fails with the same error.
func (s *Session) Run(ctx context.Context, in *SPPInstance) (*RunReport, error) {
	stagger := s.stagger
	if !s.staggerSet {
		stagger = s.batch / 2
	}
	link, linkSet := s.link, s.linkSet
	if s.lossSet {
		// Loss composes with the link shape: apply it over the default link
		// when no explicit shape was chosen.
		if !linkSet && link == (simnet.LinkConfig{}) {
			link = simnet.DefaultLink()
		}
		link.Loss = s.loss
		linkSet = true
	}
	return s.runner.Run(ctx, in, engine.RunOptions{
		Seed:          s.seed,
		Link:          link,
		LinkExplicit:  linkSet,
		BatchInterval: s.batch,
		StartStagger:  stagger,
		Horizon:       s.horizon,
		IdleWindow:    s.idle,
		Collector:     s.collector,
		Plan:          s.plan,
	})
}

// RunConversion is Run(ctx, conv.Instance). conv.Algebra is not consulted:
// execution runs the instance, not its conversion. It stays only for the
// benchmark harness's replay, and goes when that replay does.
func (s *Session) RunConversion(ctx context.Context, conv *SPPConversion) (*RunReport, error) {
	return s.Run(ctx, conv.Instance)
}
