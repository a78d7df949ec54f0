package fsr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fsr/internal/smt"
)

// TestSessionDefaults: the zero-configuration session uses the simulation
// runner.
func TestSessionDefaults(t *testing.T) {
	sess := NewSession()
	if sess.RunnerName() != "sim" {
		t.Errorf("default runner = %s, want sim", sess.RunnerName())
	}
}

// TestSessionOptions: every option lands on the session.
func TestSessionOptions(t *testing.T) {
	sess := NewSession(
		WithRunner(DeploymentRunner()),
		WithSeed(7),
		WithBatchWindow(30*time.Millisecond),
		WithParallelism(-3),
	)
	if sess.RunnerName() != "tcp" {
		t.Errorf("runner = %s, want tcp", sess.RunnerName())
	}
	if sess.parallelism != 1 {
		t.Errorf("parallelism floor: got %d, want 1", sess.parallelism)
	}
	if sess.seed != 7 || sess.batch != 30*time.Millisecond {
		t.Errorf("seed/batch not applied: %d %v", sess.seed, sess.batch)
	}
}

// TestRunnerBackendSelection: name-based lookup round-trips every runner
// backend and rejects an unknown name.
func TestRunnerBackendSelection(t *testing.T) {
	for _, backend := range RunnerBackends() {
		got, err := RunnerBackendByName(backend.Name())
		if err != nil {
			t.Fatalf("RunnerBackendByName(%s): %v", backend.Name(), err)
		}
		if got.Name() != backend.Name() {
			t.Errorf("lookup %s returned %s", backend.Name(), got.Name())
		}
	}
	if _, err := RunnerBackendByName("kubernetes"); err == nil {
		t.Error("unknown runner name should error")
	}
}

// TestSessionSolverBackends: the session's solver decides the paper's
// headline queries — unsat with the c ⊕ C = C core for bare Gao-Rexford,
// safe for the composition.
func TestSessionSolverBackends(t *testing.T) {
	t.Run(smt.Native{}.Name(), func(t *testing.T) {
		ctx, sess := context.Background(), NewSession()
		res, err := sess.CheckStrictMonotonicity(ctx, GaoRexfordA())
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat {
			t.Fatal("bare guideline should be unsat")
		}
		if len(res.Core) != 1 || res.Core[0].Entry.String() != "c ⊕ C = C" {
			t.Errorf("core should pinpoint c ⊕ C = C, got %v", res.Core)
		}
		rep, err := sess.Analyze(ctx, GaoRexfordSafe())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != Safe {
			t.Errorf("composition should be safe: %s", rep)
		}
	})
}

// TestSessionSolverBackendsSPP: unsat-core provenance reaches the session —
// the Figure 3 gadget is unsat with its reflectors as suspects.
func TestSessionSolverBackendsSPP(t *testing.T) {
	res, suspects, err := NewSession().AnalyzeSPP(context.Background(), Figure3IBGP())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Fatal("Figure 3 gadget should be unsat")
	}
	if want := []SPPNode{"a", "b", "c"}; !reflect.DeepEqual(suspects, want) {
		t.Errorf("suspects %v, want the reflectors %v", suspects, want)
	}
}

// TestSessionRunnerBackends: every runner backend converges the fixed
// Figure 3 instance to the same routes — the compiled protocol, the NDlog
// interpreter, and the TCP deployment are equivalent implementations of
// GPV.
func TestSessionRunnerBackends(t *testing.T) {
	ctx := context.Background()
	wantPaths := map[string][]string{
		"a": {"a", "d", "r1"},
		"b": {"b", "e", "r2"},
		"c": {"c", "f", "r3"},
	}
	for _, backend := range RunnerBackends() {
		t.Run(backend.Name(), func(t *testing.T) {
			sess := NewSession(
				WithRunner(backend),
				WithBatchWindow(10*time.Millisecond),
				WithHorizon(20*time.Second),
			)
			rep, err := sess.Run(ctx, Figure3IBGPFixed())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatalf("%s run did not converge", backend.Name())
			}
			if rep.Runner != backend.Name() {
				t.Errorf("report names runner %s, want %s", rep.Runner, backend.Name())
			}
			for node, want := range wantPaths {
				got, ok := rep.Best[node]
				if !ok {
					t.Fatalf("%s: node %s has no route", backend.Name(), node)
				}
				if !reflect.DeepEqual(got.Path, want) {
					t.Errorf("%s: node %s path %v, want %v", backend.Name(), node, got.Path, want)
				}
			}
		})
	}
}

// TestSessionAnalyzeAll: the batch facade preserves input order and
// verdicts under a concurrent worker pool (run with -race).
func TestSessionAnalyzeAll(t *testing.T) {
	ctx := context.Background()
	var algebras []Algebra
	var wantSafe []bool
	for i := 0; i < 4; i++ {
		algebras = append(algebras, GaoRexfordA(), GaoRexfordSafe(), Compose(GaoRexfordB(), HopCount()))
		wantSafe = append(wantSafe, false, true, true)
	}
	sess := NewSession(WithParallelism(4))
	reports, err := sess.AnalyzeAll(ctx, algebras...)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(algebras) {
		t.Fatalf("got %d reports for %d algebras", len(reports), len(algebras))
	}
	for i, rep := range reports {
		if (rep.Verdict == Safe) != wantSafe[i] {
			t.Errorf("report %d: verdict %v, want safe=%v (%s)", i, rep.Verdict, wantSafe[i], rep.Reason)
		}
	}
}

// TestSessionAnalyzeAllEmpty: the degenerate batch is fine.
func TestSessionAnalyzeAllEmpty(t *testing.T) {
	reports, err := NewSession().AnalyzeAll(context.Background())
	if err != nil || len(reports) != 0 {
		t.Fatalf("empty batch: %v %v", reports, err)
	}
}

// TestSessionCancelMidSolve: a cancelled context aborts the solver before
// and during core minimization.
func TestSessionCancelMidSolve(t *testing.T) {
	t.Run(smt.Native{}.Name(), func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sess := NewSession()
		if _, err := sess.CheckStrictMonotonicity(ctx, GaoRexfordA()); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled solve returned %v, want context.Canceled", err)
		}
		if _, err := sess.Analyze(ctx, GaoRexfordSafe()); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled analyze returned %v, want context.Canceled", err)
		}
	})
}

// TestSessionCancelAnalyzeAll: cancellation propagates through the worker
// pool.
func TestSessionCancelAnalyzeAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := NewSession(WithParallelism(2))
	_, err := sess.AnalyzeAll(ctx, GaoRexfordA(), GaoRexfordSafe())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled AnalyzeAll returned %v, want context.Canceled", err)
	}
}

// TestSessionCancelMidSimulation: BADGADGET never quiesces, so a
// wall-clock deadline fires mid-simulation and aborts the run.
func TestSessionCancelMidSimulation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	sess := NewSession(
		WithBatchWindow(time.Millisecond),
		WithHorizon(3*time.Hour), // virtual; unreachable within the deadline
	)
	_, err := sess.Run(ctx, mustGadget(t, "badgadget"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-bounded oscillating run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSessionCancelMidDeployment: cancellation also lands in the TCP
// deployment runner's quiescence loop.
func TestSessionCancelMidDeployment(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	sess := NewSession(
		WithRunner(DeploymentRunner()),
		WithBatchWindow(20*time.Millisecond),
		WithIdleWindow(time.Hour), // quiescence unreachable within the deadline
		WithHorizon(time.Hour),
	)
	_, err := sess.Run(ctx, mustGadget(t, "goodgadget"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-bounded deployment returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSessionSeedDeterminism: equal seeds reproduce a simulation run
// byte for byte; different seeds are allowed to differ.
func TestSessionSeedDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(seed int64) *RunReport {
		sess := NewSession(WithSeed(seed), WithBatchWindow(15*time.Millisecond), WithHorizon(20*time.Second))
		rep, err := sess.Run(ctx, Figure3IBGPFixed())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(3), run(3)
	if a.Time != b.Time || a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestSessionTraceCollector: WithTrace accumulates across runs on the
// shared collector.
func TestSessionTraceCollector(t *testing.T) {
	col := NewTraceCollector(10 * time.Millisecond)
	sess := NewSession(WithTrace(col), WithHorizon(20*time.Second))
	if _, err := sess.Run(context.Background(), Figure3IBGPFixed()); err != nil {
		t.Fatal(err)
	}
	first, _ := col.Totals()
	if first == 0 {
		t.Fatal("collector saw no traffic")
	}
	if _, err := sess.Run(context.Background(), Figure3IBGPFixed()); err != nil {
		t.Fatal(err)
	}
	second, _ := col.Totals()
	if second <= first {
		t.Errorf("collector should accumulate across runs: %d then %d", first, second)
	}
}

// TestSessionFaultPlan: a session-attached fault plan injects into every
// run on the compiled sim backend, the run re-converges after the last
// fault on a safe instance, and the other backends reject plans loudly.
func TestSessionFaultPlan(t *testing.T) {
	ctx := context.Background()
	in := mustGadget(t, "goodgadget")
	var nodes []string
	for _, n := range in.Nodes {
		nodes = append(nodes, string(n))
	}
	var sessions [][2]string
	seen := map[[2]string]bool{}
	for _, l := range in.Links {
		a, b := string(l.From), string(l.To)
		if seen[[2]string{a, b}] || seen[[2]string{b, a}] {
			continue
		}
		seen[[2]string{a, b}] = true
		sessions = append(sessions, [2]string{a, b})
	}
	plan := BuildFaultPlan(7, nodes, sessions, FaultPlanSpec{Flaps: 2, Restarts: 1})
	if plan.Empty() {
		t.Fatal("BuildFaultPlan produced an empty plan")
	}
	sess := NewSession(WithFaultPlan(plan), WithHorizon(20*time.Second))
	rep, err := sess.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 {
		t.Error("no fault events processed")
	}
	if !rep.Converged {
		t.Errorf("safe instance did not re-converge under the plan: %+v", rep)
	}
	if rep.Time < rep.LastFault {
		t.Errorf("converged at %v, before the last fault at %v", rep.Time, rep.LastFault)
	}
	again, err := sess.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != again.Faults || rep.Dropped != again.Dropped || rep.Time != again.Time {
		t.Errorf("churn run not reproducible: %+v vs %+v", rep, again)
	}
	for _, r := range []RunnerBackend{NDlogRunner(), DeploymentRunner()} {
		bad := NewSession(WithFaultPlan(plan), WithRunner(r))
		if _, err := bad.Run(ctx, in); err == nil {
			t.Errorf("%s backend accepted a fault plan", r.Name())
		}
	}
}

// TestSessionLinkLoss: probabilistic loss drops messages deterministically
// under a fixed seed, and an out-of-range rate is rejected.
func TestSessionLinkLoss(t *testing.T) {
	ctx := context.Background()
	run := func() *RunReport {
		sess := NewSession(WithLinkLoss(0.4), WithSeed(5), WithHorizon(20*time.Second))
		rep, err := sess.Run(ctx, Figure3IBGPFixed())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Dropped == 0 {
		t.Error("40% loss dropped nothing")
	}
	if a.Dropped != b.Dropped || a.Messages != b.Messages || a.Time != b.Time {
		t.Errorf("lossy runs diverged under one seed: %+v vs %+v", a, b)
	}
	if _, err := NewSession(WithLinkLoss(1.5)).Run(ctx, Figure3IBGPFixed()); err == nil {
		t.Error("loss rate 1.5 accepted")
	}
}

func mustGadget(t *testing.T, name string) *SPPInstance {
	t.Helper()
	inst, err := Gadget(name)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBuiltinLookups: name resolution covers the documented sets.
func TestBuiltinLookups(t *testing.T) {
	for _, name := range BuiltinAlgebraNames() {
		if _, err := BuiltinAlgebra(name); err != nil {
			t.Errorf("BuiltinAlgebra(%s): %v", name, err)
		}
	}
	for _, name := range GadgetNames() {
		if _, err := Gadget(name); err != nil {
			t.Errorf("Gadget(%s): %v", name, err)
		}
	}
	if _, err := BuiltinAlgebra("nope"); err == nil {
		t.Error("unknown builtin should error")
	}
	if _, err := Gadget("nope"); err == nil {
		t.Error("unknown gadget should error")
	}
}

// TestSessionConcurrentUse: one session drives analyses and runs from many
// goroutines at once (run with -race).
func TestSessionConcurrentUse(t *testing.T) {
	sess := NewSession(WithBatchWindow(10*time.Millisecond), WithHorizon(20*time.Second))
	ctx := context.Background()
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := sess.Analyze(ctx, GaoRexfordSafe())
			errs <- err
		}()
		go func() {
			rep, err := sess.Run(ctx, Figure3IBGPFixed())
			if err == nil && !rep.Converged {
				err = fmt.Errorf("run did not converge")
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionCampaign: the public campaign API — a mixed sweep classifies
// deterministically, inherits the session's backends, and the corpus
// round-trips through Session.Replay.
func TestSessionCampaign(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(WithParallelism(4))
	spec := CampaignSpec{Count: 18, BaseSeed: 3}
	rep, err := sess.Campaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 18 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	if n := len(rep.Interesting()); n != 0 {
		t.Fatalf("%d interesting outcomes on honest kinds:\n%s", n, rep)
	}
	again, err := sess.Campaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		a, b := rep.Results[i], again.Results[i]
		a.SimTime, b.SimTime = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("campaign not deterministic at #%d:\n  %s\n  %s", i, a, b)
		}
	}
}

// TestSessionCampaignReplay: a shrunk divergent fixture written to a
// corpus reproduces through Session.Replay.
func TestSessionCampaignReplay(t *testing.T) {
	ctx := context.Background()
	sess := NewSession()
	rep, err := sess.Campaign(ctx, CampaignSpec{
		Kinds: []ScenarioKind{ScenarioDivergentFixture}, Count: 1, Shrink: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tally()[OutcomeMismatch]; got != 1 {
		t.Fatalf("fixture not flagged:\n%s", rep)
	}
	if len(rep.Shrunk) != 1 || len(rep.Shrunk[0].Instance.Nodes) > 6 {
		t.Fatalf("fixture not shrunk to ≤ 6 nodes:\n%s", rep)
	}
	entries, err := rep.CorpusEntries()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteScenarioCorpus(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScenarioCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sess.Replay(ctx, back)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range replayed {
		if !rr.Reproduced {
			t.Fatalf("corpus entry did not reproduce: %s", rr)
		}
	}
}

// TestScenarioLookups: the public scenario-kind registry.
func TestScenarioLookups(t *testing.T) {
	if len(ScenarioKinds()) < 4 || len(DefaultScenarioKinds()) != 3 {
		t.Fatalf("kinds = %v, default = %v", ScenarioKinds(), DefaultScenarioKinds())
	}
	for _, k := range ScenarioKinds() {
		got, err := ScenarioKindByName(string(k))
		if err != nil || got != k {
			t.Fatalf("ScenarioKindByName(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ScenarioKindByName("bogus"); err == nil {
		t.Fatal("bogus kind resolved")
	}
	sc, err := GenerateScenario(ScenarioGadgetSplice, 9)
	if err != nil || sc.Instance == nil || sc.Kind != ScenarioGadgetSplice {
		t.Fatalf("GenerateScenario: %v, %v", sc, err)
	}
}
