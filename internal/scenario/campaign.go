package scenario

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsr/internal/engine"
	"fsr/internal/obs"
	"fsr/internal/spp"
)

// Spec parameterizes one campaign: a seed range fanned across generator
// kinds, each scenario analyzed for safety and (unless NoSim) executed as a
// bounded simulation, with outcomes classified against the generator's
// expectation. The zero value is usable: default kinds, 64 scenarios,
// base seed 1, 2 s simulation horizon, GOMAXPROCS workers.
type Spec struct {
	// Kinds cycles over the scenario generators; scenario i uses
	// Kinds[i%len(Kinds)]. Empty means DefaultKinds.
	Kinds []Kind
	// Count is the total number of scenarios across all shards (default 64).
	Count int
	// BaseSeed is the first seed; scenario i uses BaseSeed+i (default 1).
	BaseSeed int64
	// Shard/NumShards select a contiguous slice of the global index range,
	// for fanning one campaign across processes or machines: shard s of n
	// processes indices [s·Count/n, (s+1)·Count/n). NumShards 0 or 1 means
	// the whole range.
	Shard, NumShards int
	// Horizon bounds each simulation run in virtual time (default 2 s when
	// Run is called directly; Session.Campaign fills a zero Horizon from
	// the session's WithHorizon setting instead).
	Horizon time.Duration
	// NoSim skips the differential execution, classifying on analysis alone.
	NoSim bool
	// Shrink delta-debugs interesting outcomes (divergences, mismatches)
	// down to minimal reproducing instances after the sweep.
	Shrink bool
	// MaxShrink caps how many interesting results are shrunk (default 4).
	MaxShrink int
	// ScenarioTimeout is the wall-clock budget per scenario; exceeding it
	// classifies the scenario as OutcomeTimeout (default 30 s).
	ScenarioTimeout time.Duration
	// Parallelism sizes the worker pool (default GOMAXPROCS).
	Parallelism int
	// Runner executes instances (default engine.SimRunner; campaigns want a
	// simulation backend — deployment runners make runs wall-clock bound).
	Runner engine.Runner
	// Logger, when non-nil, receives a periodic progress record (done
	// count, scenarios/sec, per-outcome tallies) every ProgressEvery, a
	// shrink notice, and a final summary record. The CLI wires its leveled
	// logger here (so -quiet and -log-format apply uniformly); the library
	// default (nil) stays silent.
	Logger *slog.Logger
	// ProgressEvery is the period of progress records (default 5 s).
	ProgressEvery time.Duration
}

func (s Spec) withDefaults() Spec {
	if len(s.Kinds) == 0 {
		s.Kinds = DefaultKinds()
	}
	if s.Count <= 0 {
		s.Count = 64
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if s.NumShards <= 1 {
		s.Shard, s.NumShards = 0, 1
	}
	if s.Horizon <= 0 {
		s.Horizon = 2 * time.Second
	}
	if s.MaxShrink <= 0 {
		s.MaxShrink = 4
	}
	if s.ScenarioTimeout <= 0 {
		s.ScenarioTimeout = 30 * time.Second
	}
	if s.Parallelism <= 0 {
		s.Parallelism = runtime.GOMAXPROCS(0)
	}
	if s.Runner == nil {
		s.Runner = engine.SimRunner{}
	}
	if s.ProgressEvery <= 0 {
		s.ProgressEvery = 5 * time.Second
	}
	return s
}

// Outcome classifies one scenario's analysis-vs-execution result.
type Outcome int

const (
	// OutcomeAgreement: the verdict matches the expectation and the
	// execution is consistent with it (safe converged, or unsafe diverged).
	OutcomeAgreement Outcome = iota
	// OutcomeConservative: the analysis said unsafe (strict monotonicity is
	// sufficient, not necessary) yet the bounded execution converged — the
	// false-positive class §IV-A accepts (DISAGREE is the canonical case).
	OutcomeConservative
	// OutcomeDivergence: the analysis proved safety but the execution did
	// not converge within the horizon — a soundness violation of the
	// toolkit itself, always worth shrinking.
	OutcomeDivergence
	// OutcomeMismatch: the verdict contradicts the generator's guaranteed
	// expectation — either a generator bug or a solver bug.
	OutcomeMismatch
	// OutcomeTimeout: the scenario exceeded its wall-clock budget.
	OutcomeTimeout
	// OutcomeError: generation, conversion, or execution failed.
	OutcomeError
)

// String names the outcome class.
func (o Outcome) String() string {
	switch o {
	case OutcomeAgreement:
		return "agreement"
	case OutcomeConservative:
		return "conservative"
	case OutcomeDivergence:
		return "divergence"
	case OutcomeMismatch:
		return "mismatch"
	case OutcomeTimeout:
		return "timeout"
	default:
		return "error"
	}
}

// Interesting reports whether the outcome warrants shrinking and corpus
// serialization: a genuine analysis-vs-execution disagreement, not an
// infrastructure failure (timeouts and errors classify separately and are
// not replayable findings).
func (o Outcome) Interesting() bool {
	return o == OutcomeDivergence || o == OutcomeMismatch
}

// numOutcomes sizes per-outcome arrays (OutcomeError is the last class).
const numOutcomes = int(OutcomeError) + 1

// outcomeOrder is every class in display order.
var outcomeOrder = []Outcome{
	OutcomeAgreement, OutcomeConservative, OutcomeDivergence,
	OutcomeMismatch, OutcomeTimeout, OutcomeError,
}

// classify maps one scenario's observations to its outcome class.
func classify(expected Expectation, sat, simRan, converged bool) Outcome {
	if expected == ExpectSafe && !sat || expected == ExpectUnsafe && sat {
		return OutcomeMismatch
	}
	if simRan {
		if sat && !converged {
			return OutcomeDivergence
		}
		if !sat && converged {
			return OutcomeConservative
		}
	}
	return OutcomeAgreement
}

// Result is one scenario's campaign record.
type Result struct {
	// Index is the scenario's global index in the campaign's seed range.
	Index int
	Kind  Kind
	Seed  int64
	// Expected is the generator's guaranteed verdict.
	Expected Expectation
	// Sat is the strict-monotonicity verdict (true = proven safe).
	Sat bool
	// SimRan / Converged / SimTime describe the bounded execution.
	SimRan    bool
	Converged bool
	SimTime   time.Duration
	// Nodes is the instance size, for shrink-progress reporting.
	Nodes   int
	Outcome Outcome
	Note    string
	Err     string
	// Churn accounting, populated when the scenario carries a fault plan
	// (and partially — Messages — for every simulated scenario).
	FaultOps int   // operations in the scenario's fault plan
	Faults   int64 // fault events the simulator processed
	Dropped  int64 // messages lost to faults or probabilistic loss
	Messages int   // delivered message load (collector total)
	// ReconvergeTime is Time minus the last fault instant when the run
	// converged under churn: how long the network needed to settle after
	// the final injected fault.
	ReconvergeTime time.Duration
	// RouteChanges sums per-node selection changes during the run.
	RouteChanges int64
	// Suspects is the §VI-B suspect set (nodes the unsat core implicates)
	// when the analysis proved the instance unsafe.
	Suspects []string
	// Oscillators are the nodes with the highest selection-change counts
	// during execution — under churn, the suspect set should predict them.
	Oscillators []string
}

// SuspectCoverage reports what fraction of the observed oscillators the
// analysis' suspect set predicted (1 when there is nothing to predict).
func (r Result) SuspectCoverage() float64 {
	if len(r.Oscillators) == 0 {
		return 1
	}
	inSuspects := map[string]bool{}
	for _, s := range r.Suspects {
		inSuspects[s] = true
	}
	hit := 0
	for _, o := range r.Oscillators {
		if inSuspects[o] {
			hit++
		}
	}
	return float64(hit) / float64(len(r.Oscillators))
}

// String renders one line of the campaign report.
func (r Result) String() string {
	verdict := "unsafe"
	if r.Sat {
		verdict = "safe"
	}
	sim := "sim skipped"
	if r.SimRan {
		if r.Converged {
			sim = fmt.Sprintf("converged %v", r.SimTime)
		} else {
			sim = "no convergence"
		}
	}
	s := fmt.Sprintf("#%d %s seed %d [%d nodes]: expected %s, verdict %s, %s → %s",
		r.Index, r.Kind, r.Seed, r.Nodes, r.Expected, verdict, sim, r.Outcome)
	if r.FaultOps > 0 {
		s += fmt.Sprintf(" (churn: %d op(s), %d fault(s), %d dropped, %d msg(s)",
			r.FaultOps, r.Faults, r.Dropped, r.Messages)
		if r.ReconvergeTime > 0 {
			s += fmt.Sprintf(", re-converged in %v", r.ReconvergeTime)
		}
		s += ")"
	}
	if r.Err != "" {
		s += " (" + r.Err + ")"
	}
	return s
}

// Shrunk is one minimized counterexample.
type Shrunk struct {
	// Index is the originating Result's global index.
	Index int
	// Tries counts candidate evaluations the shrinker spent.
	Tries int
	// Instance is the minimal reproducing instance.
	Instance *spp.Instance
}

// Report is the outcome of one campaign.
type Report struct {
	// Kinds, Count, BaseSeed, Shard, NumShards, Horizon, and NoSim echo
	// the normalized spec (Horizon and NoSim are recorded into corpus
	// entries so replays re-create the observation conditions).
	Kinds            []Kind
	Count            int
	BaseSeed         int64
	Shard, NumShards int
	Horizon          time.Duration
	NoSim            bool
	// Results holds one record per scenario of this shard, in index order.
	Results []Result
	// Shrunk holds the minimized counterexamples when shrinking ran.
	Shrunk []Shrunk
}

// Tally counts results per outcome class.
func (r *Report) Tally() map[Outcome]int {
	t := map[Outcome]int{}
	for _, res := range r.Results {
		t[res.Outcome]++
	}
	return t
}

// FaultTotals sums the churn accounting across all results: fault events
// injected, messages dropped, and message load delivered.
func (r *Report) FaultTotals() (faults, dropped int64, messages int) {
	for _, res := range r.Results {
		faults += res.Faults
		dropped += res.Dropped
		messages += res.Messages
	}
	return faults, dropped, messages
}

// Interesting returns the results worth human attention, in index order.
func (r *Report) Interesting() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Outcome.Interesting() {
			out = append(out, res)
		}
	}
	return out
}

// String renders the campaign summary.
func (r *Report) String() string {
	var b strings.Builder
	kinds := make([]string, len(r.Kinds))
	for i, k := range r.Kinds {
		kinds[i] = string(k)
	}
	fmt.Fprintf(&b, "campaign: %d scenario(s), kinds [%s], base seed %d, shard %d/%d\n",
		len(r.Results), strings.Join(kinds, " "), r.BaseSeed, r.Shard, r.NumShards)
	tally := r.Tally()
	for _, o := range outcomeOrder {
		if n := tally[o]; n > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", o, n)
		}
	}
	if faults, dropped, messages := r.FaultTotals(); faults > 0 {
		fmt.Fprintf(&b, "  faults injected: %d, messages dropped: %d, messages delivered: %d\n",
			faults, dropped, messages)
	}
	for _, res := range r.Results {
		// Findings and infrastructure failures both deserve a detail line.
		if res.Outcome.Interesting() || res.Outcome == OutcomeTimeout || res.Outcome == OutcomeError {
			b.WriteString("  ! " + res.String() + "\n")
		}
	}
	for _, sh := range r.Shrunk {
		fmt.Fprintf(&b, "  shrunk #%d to %d node(s) in %d tries\n",
			sh.Index, len(sh.Instance.Nodes), sh.Tries)
	}
	return strings.TrimRight(b.String(), "\n")
}

// evaluate runs the differential pipeline on one instance: the
// strict-monotonicity analysis of the one §IV-B emitter (spp.Analyze) and,
// unless NoSim, a bounded execution of the instance on the spec's runner,
// with plan's faults injected when non-nil.
// simSeed keys the execution's deterministic randomness. suspects is the
// §VI-B suspect set (the nodes the unsat core implicates) when the analysis
// proves the instance unsafe; rep is nil when no execution ran.
func evaluate(ctx context.Context, in *spp.Instance, spec Spec, simSeed int64, plan *engine.FaultPlan) (sat bool, suspects []string, rep *engine.RunReport, err error) {
	actx, asp := obs.StartSpan(ctx, "analyze")
	res, nodes, err := spp.Analyze(actx, in)
	asp.End()
	if err != nil {
		return false, nil, nil, err
	}
	sat = res.Sat
	for _, n := range nodes {
		suspects = append(suspects, string(n))
	}
	if spec.NoSim {
		return sat, suspects, nil, nil
	}
	if simSeed == 0 {
		simSeed = 1
	}
	sctx, ssp := obs.StartSpan(ctx, "simulate")
	rep, err = spec.Runner.Run(sctx, in, engine.RunOptions{Seed: simSeed, Horizon: spec.Horizon, Plan: plan})
	ssp.End()
	if err != nil {
		return sat, suspects, nil, err
	}
	return sat, suspects, rep, nil
}

// panicHook, when non-nil, runs at the start of every scenario evaluation.
// It is the test seam for the worker panic-recovery path: a hook that
// panics must surface as that scenario's OutcomeError, not kill the fleet.
var panicHook func(index int)

// runOne generates and evaluates the scenario at one global index. A panic
// anywhere in generation, analysis, or simulation classifies the scenario
// as OutcomeError with the panic value in the record — one pathological
// scenario must not take down the whole campaign.
func runOne(ctx context.Context, spec Spec, index int) (res Result) {
	kind := spec.Kinds[index%len(spec.Kinds)]
	seed := spec.BaseSeed + int64(index)
	res = Result{Index: index, Kind: kind, Seed: seed}
	var op *obs.Op
	ctx, op = obs.Flight().StartOp(ctx, "scenario", string(kind))
	// Registered before the recover defer so the panic path's OutcomeError
	// verdict is already in res when the op finishes (defers run LIFO).
	defer func() {
		if op != nil {
			op.SetSize(res.Nodes)
			op.SetVerdict(res.Outcome.String())
			op.Counter("fault_ops", int64(res.FaultOps))
			op.Counter("route_changes", int64(res.RouteChanges))
			op.Finish()
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			res.Outcome = OutcomeError
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	sctx, cancel := context.WithTimeout(ctx, spec.ScenarioTimeout)
	defer cancel()
	sctx, sp := obs.StartSpan(sctx, "scenario")
	sp.Attr("kind", string(kind))
	sp.AttrInt("seed", seed)
	defer sp.End()
	if panicHook != nil {
		panicHook(index)
	}
	_, gsp := obs.StartSpan(sctx, "generate")
	sc, err := Generate(kind, seed)
	gsp.End()
	if err != nil {
		res.Outcome, res.Err = OutcomeError, err.Error()
		return res
	}
	res.Expected, res.Note, res.Nodes = sc.Expected, sc.Note, len(sc.Instance.Nodes)
	if sc.Plan != nil {
		res.FaultOps = len(sc.Plan.Ops)
	}
	sat, suspects, rep, err := evaluate(sctx, sc.Instance, spec, seed, sc.Plan)
	if err != nil {
		if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			res.Outcome = OutcomeTimeout
		} else {
			res.Outcome = OutcomeError
		}
		res.Err = err.Error()
		return res
	}
	res.Sat, res.Suspects = sat, suspects
	if rep != nil {
		res.SimRan, res.Converged, res.SimTime = true, rep.Converged, rep.Time
		res.Faults, res.Dropped, res.Messages = rep.Faults, rep.Dropped, rep.Messages
		res.RouteChanges = rep.RouteChanges
		if rep.Converged && rep.Faults > 0 {
			res.ReconvergeTime = rep.Time - rep.LastFault
		}
		res.Oscillators = topOscillators(rep.NodeChanges, len(suspects))
	}
	res.Outcome = classify(sc.Expected, sat, res.SimRan, res.Converged)
	return res
}

// topOscillators returns the k nodes with the highest selection-change
// counts (at least 3, and only nodes that changed at all), most active
// first — the execution-side observation the §VI-B suspect set should
// predict under churn.
func topOscillators(changes map[string]int64, k int) []string {
	if k < 3 {
		k = 3
	}
	type nc struct {
		node string
		n    int64
	}
	ranked := make([]nc, 0, len(changes))
	for node, n := range changes {
		if n > 0 {
			ranked = append(ranked, nc{node, n})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].node < ranked[j].node
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.node
	}
	return out
}

// Run executes a campaign: the shard's scenarios are claimed by a worker
// pool through an atomic index (the AnalyzeAll pattern), evaluated, and
// classified; when spec.Shrink is set, interesting outcomes are then
// delta-debugged to minimal reproducers. Scenario-level failures are
// recorded as OutcomeError results, not returned; only context
// cancellation aborts the campaign.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	// Validate the sharding BEFORE withDefaults: the normalization collapses
	// NumShards ≤ 1 to the whole range, which used to silently absorb
	// nonsense like shard 3 of 1 (and empty shards ran as vacuous
	// successes — poison for a fleet that interprets exit 0 as "checked").
	if spec.NumShards < 0 || spec.Shard < 0 {
		return nil, fmt.Errorf("scenario: negative shard spec %d/%d", spec.Shard, spec.NumShards)
	}
	if spec.NumShards <= 1 {
		if spec.Shard != 0 {
			return nil, fmt.Errorf("scenario: shard %d out of range for %d shard(s)", spec.Shard, max(spec.NumShards, 1))
		}
	} else if spec.Shard >= spec.NumShards {
		return nil, fmt.Errorf("scenario: shard %d out of range 0..%d", spec.Shard, spec.NumShards-1)
	}
	spec = spec.withDefaults()
	lo := spec.Shard * spec.Count / spec.NumShards
	hi := (spec.Shard + 1) * spec.Count / spec.NumShards
	if lo == hi {
		return nil, fmt.Errorf("scenario: shard %d/%d is empty for count %d (use at most %d shards)",
			spec.Shard, spec.NumShards, spec.Count, spec.Count)
	}
	rep := &Report{
		Kinds:     spec.Kinds,
		Count:     spec.Count,
		BaseSeed:  spec.BaseSeed,
		Shard:     spec.Shard,
		NumShards: spec.NumShards,
		Horizon:   spec.Horizon,
		NoSim:     spec.NoSim,
		Results:   make([]Result, hi-lo),
	}
	workers := spec.Parallelism
	if workers > len(rep.Results) {
		workers = len(rep.Results)
	}
	var (
		next  atomic.Int64
		done  atomic.Int64
		tally [numOutcomes]atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rep.Results) || ctx.Err() != nil {
					return
				}
				r := runOne(ctx, spec, lo+i)
				rep.Results[i] = r
				tally[r.Outcome].Add(1)
				done.Add(1)
				obsOutcomes.Inc(r.Outcome.String())
				obsScenarios.Inc()
			}
		}()
	}
	var stop chan struct{}
	if spec.Logger != nil {
		stop = make(chan struct{})
		go func() {
			tick := time.NewTicker(spec.ProgressEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					spec.Logger.Info("campaign progress", progressAttrs(&done, &tally, len(rep.Results), start)...)
				}
			}
		}()
	}
	wg.Wait()
	if stop != nil {
		close(stop)
		spec.Logger.Info("campaign progress", progressAttrs(&done, &tally, len(rep.Results), start)...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Shrink {
		if spec.Logger != nil && len(rep.Interesting()) > 0 {
			spec.Logger.Info("campaign shrinking",
				"interesting", min(len(rep.Interesting()), spec.MaxShrink))
		}
		if err := shrinkInteresting(ctx, spec, rep); err != nil {
			return nil, err
		}
	}
	if spec.Logger != nil {
		logSummary(spec.Logger, rep, time.Since(start))
	}
	return rep, nil
}

// progressAttrs builds one periodic status record: completion, throughput,
// and the nonzero outcome tallies so far.
func progressAttrs(done *atomic.Int64, tally *[numOutcomes]atomic.Int64, total int, start time.Time) []any {
	d := done.Load()
	elapsed := time.Since(start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(d) / elapsed
	}
	attrs := []any{"done", d, "total", total, "per_sec", fmt.Sprintf("%.1f", rate)}
	for i, o := range outcomeOrder {
		if n := tally[i].Load(); n > 0 {
			attrs = append(attrs, o.String(), n)
		}
	}
	return attrs
}

// logSummary emits the final per-outcome summary record after a sweep.
func logSummary(l *slog.Logger, rep *Report, elapsed time.Duration) {
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(len(rep.Results)) / s
	}
	attrs := []any{
		"scenarios", len(rep.Results),
		"elapsed", elapsed.Round(time.Millisecond).String(),
		"per_sec", fmt.Sprintf("%.1f", rate),
	}
	tally := rep.Tally()
	for _, o := range outcomeOrder {
		if n := tally[o]; n > 0 {
			attrs = append(attrs, o.String(), n)
		}
	}
	if faults, dropped, _ := rep.FaultTotals(); faults > 0 {
		attrs = append(attrs, "faults_injected", faults, "messages_dropped", dropped)
	}
	if len(rep.Shrunk) > 0 {
		attrs = append(attrs, "shrunk", len(rep.Shrunk))
	}
	l.Info("campaign done", attrs...)
}

// shrinkInteresting minimizes up to spec.MaxShrink interesting results,
// regenerating each instance from its (kind, seed) and preserving the
// observed (verdict, convergence) pair through every reduction step.
func shrinkInteresting(ctx context.Context, spec Spec, rep *Report) error {
	shrunk := 0
	for _, res := range rep.Results {
		if !res.Outcome.Interesting() {
			continue
		}
		if shrunk >= spec.MaxShrink {
			break
		}
		sc, err := Generate(res.Kind, res.Seed)
		if err != nil {
			continue // already recorded as the result's classification
		}
		want := res
		keep := func(kctx context.Context, cand *spp.Instance) (bool, error) {
			// Candidates get the same per-scenario budget as the sweep, so one
			// pathological mutation cannot hang the whole campaign. The
			// scenario's fault plan rides along: ops whose nodes or links a
			// mutation removed are skipped by the runner, so the churn
			// conditions shrink with the topology.
			tctx, cancel := context.WithTimeout(kctx, spec.ScenarioTimeout)
			defer cancel()
			sat, _, rep, err := evaluate(tctx, cand, spec, want.Seed, sc.Plan)
			if err != nil {
				return false, nil // a candidate that fails (or times out) is not a reproducer
			}
			converged := rep != nil && rep.Converged
			return sat == want.Sat && converged == want.Converged, nil
		}
		shctx, ssp := obs.StartSpan(ctx, "shrink")
		ssp.AttrInt("index", int64(res.Index))
		min, tries, err := Shrink(shctx, sc.Instance, keep)
		ssp.End()
		if err != nil {
			return err
		}
		rep.Shrunk = append(rep.Shrunk, Shrunk{Index: res.Index, Tries: tries, Instance: min})
		shrunk++
	}
	sort.Slice(rep.Shrunk, func(i, j int) bool { return rep.Shrunk[i].Index < rep.Shrunk[j].Index })
	return nil
}
