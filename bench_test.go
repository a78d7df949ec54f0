// Benchmark harness in two parts.
//
// BenchmarkStage* covers the pipeline one stage at a time — constraint
// generation, solving (per backend), NDlog compilation, SPP conversion,
// protocol execution (per runner), and batch fan-out (per parallelism) —
// with benchstat-friendly names (`key=value` sub-benchmarks), so perf
// trajectories across PRs reduce to
//
//	go test -bench=Stage -count=10 | benchstat old.txt new.txt
//
// The Benchmark{Table,Figure,Ablation}* benches regenerate the paper's §VI
// evaluation at reduced-but-representative scale, reporting headline
// metrics through b.ReportMetric. The CLI (`fsr experiment <id> -full`)
// runs the paper-scale variants.
package fsr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/experiments"
	"fsr/internal/ndlog"
	"fsr/internal/pathvector"
	"fsr/internal/scenario"
	"fsr/internal/simnet"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/spp/spptest"
	"fsr/internal/topology"

	enginepkg "fsr/internal/engine"
)

// BenchmarkStageConstraints measures constraint generation alone (§IV-B
// steps 1–3) on the Figure 3 instance.
func BenchmarkStageConstraints(b *testing.B) {
	conv, err := spp.Figure3IBGP().ToAlgebra()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSolve measures the pure decision procedure on the
// pre-generated Figure 3 constraint set.
func BenchmarkStageSolve(b *testing.B) {
	conv, err := spp.Figure3IBGP().ToAlgebra()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
	if err != nil {
		b.Fatal(err)
	}
	asserts := make([]smt.Assertion, len(cons))
	for i, c := range cons {
		asserts[i] = c.Assertion
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := smt.Native{}.Solve(ctx, asserts)
		if err != nil || out.Sat {
			b.Fatalf("want unsat, got sat=%v err=%v", out.Sat, err)
		}
	}
}

// BenchmarkStageCompile measures algebra → NDlog program generation.
func BenchmarkStageCompile(b *testing.B) {
	alg := algebra.GaoRexfordA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ndlog.Generate(alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageConvert measures SPP → algebra conversion with its
// pinpointing maps (§III-B).
func BenchmarkStageConvert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spp.Figure3IBGP().ToAlgebra(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageExecute measures one protocol execution to convergence per
// simulation runner backend (the TCP backend is wall-clock-bound and
// excluded from the stage series).
func BenchmarkStageExecute(b *testing.B) {
	ctx := context.Background()
	for _, runner := range []RunnerBackend{SimulationRunner(), NDlogRunner()} {
		b.Run("runner="+runner.Name(), func(b *testing.B) {
			sess := NewSession(
				WithRunner(runner),
				WithBatchWindow(10*time.Millisecond),
				WithHorizon(20*time.Second),
			)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := sess.Run(ctx, Figure3IBGPFixed())
				if err != nil || !rep.Converged {
					b.Fatalf("run failed: converged=%v err=%v", rep != nil && rep.Converged, err)
				}
			}
		})
	}
}

// analyzeAllBatch builds the fan-out workload: eight converted chain
// instances large enough that each item costs milliseconds (constraint
// generation enumerates the concatenation table), so the worker pool has
// real work to overlap. The original 12-policy batch of closed-form
// algebras was microseconds per item — pure fan-out overhead — and the
// parallelism=1..8 series measured nothing but that overhead.
func analyzeAllBatch(b testing.TB) []Algebra {
	var batch []Algebra
	for i := 0; i < 8; i++ {
		conv, err := spp.ChainGadget(240 + 20*i).ToAlgebra()
		if err != nil {
			b.Fatal(err)
		}
		batch = append(batch, conv.Algebra)
	}
	return batch
}

// BenchmarkStageAnalyzeAll measures the batch fan-out across worker-pool
// sizes on an eight-instance constraint-generation-bound batch.
func BenchmarkStageAnalyzeAll(b *testing.B) {
	ctx := context.Background()
	batch := analyzeAllBatch(b)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			sess := NewSession(WithParallelism(par))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.AnalyzeAll(ctx, batch...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaign measures the scenario engine at growing sweep sizes:
// generation, analysis, and bounded simulation per scenario across the
// worker pool — the scaling point for "as many scenarios as you can
// imagine" workloads. The campaign-sim row is one operation of the
// end-to-end benchmark's campaign-sim workload: the mixed and the churn
// generators, 128 scenarios. Every row also reports allocations per
// delivered message (messages sent less those dropped), the protocol loop's
// shape at campaign scale.
func BenchmarkCampaign(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		spec CampaignSpec
	}{
		{"n=16", CampaignSpec{Count: 16, BaseSeed: 1}},
		{"n=64", CampaignSpec{Count: 64, BaseSeed: 1}},
		{"campaign-sim", CampaignSpec{Count: 128, BaseSeed: 1, Kinds: []ScenarioKind{
			ScenarioGadgetSplice, ScenarioGaoRexford, ScenarioIBGP,
			ScenarioChurnFlap, ScenarioChurnStorm, ScenarioChurnDispute,
		}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sess := NewSession()
			b.ReportAllocs()
			var delivered int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				rep, err := sess.Campaign(ctx, c.spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Interesting()) != 0 {
					b.Fatalf("campaign found divergences:\n%s", rep)
				}
				_, dropped, messages := rep.FaultTotals()
				delivered += int64(messages) - dropped
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(delivered), "allocs/delivered")
		})
	}
}

// BenchmarkTableI regenerates Table I: the policy-configuration spectrum.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI()
		if len(rows) != 4 {
			b.Fatalf("table I has %d rows", len(rows))
		}
	}
}

// BenchmarkTableII regenerates Table II: the algebra → NDlog translation
// (f_pref, f_concatSig, f_import, f_export) for the Gao-Rexford guideline.
func BenchmarkTableII(b *testing.B) {
	alg := algebra.GaoRexfordA()
	for i := 0; i < b.N; i++ {
		prog, err := ndlog.Generate(alg)
		if err != nil {
			b.Fatal(err)
		}
		for _, fn := range []string{"f_pref", "f_concatSig", "f_import", "f_export"} {
			if _, ok := prog.Func(fn); !ok {
				b.Fatalf("missing %s", fn)
			}
		}
	}
}

// BenchmarkFigure1Pipeline runs the whole FSR architecture end to end on
// one policy: analysis plus implementation generation from the same
// algebra.
func BenchmarkFigure1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alg := algebra.GaoRexfordWithHopCount()
		rep, err := analysis.AnalyzeSafetyWith(context.Background(), alg, smt.Native{})
		if err != nil || rep.Verdict != analysis.Safe {
			b.Fatalf("analysis: %v %v", rep.Verdict, err)
		}
		if _, err := ndlog.Generate(algebra.GaoRexfordA()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Analysis analyzes the six-node iBGP gadget: 18
// constraints, unsat, six-element core naming the reflectors (§IV-C).
func BenchmarkFigure3Analysis(b *testing.B) {
	conv, err := spp.Figure3IBGP().ToAlgebra()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var res analysis.Result
	for i := 0; i < b.N; i++ {
		res, err = analysis.CheckWith(context.Background(), conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		if err != nil || res.Sat {
			b.Fatalf("want unsat, got %v %v", res.Sat, err)
		}
	}
	b.ReportMetric(float64(res.NumPreference+res.NumMonotonicity), "constraints")
	b.ReportMetric(float64(len(res.Core)), "core")
}

// BenchmarkFigure4 regenerates the convergence-vs-chain-length series
// (CAIDA-Sim), reporting the deepest point's convergence in batch phases.
func BenchmarkFigure4(b *testing.B) {
	var res experiments.Figure4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure4(experiments.Figure4Options{
			Seed:   1,
			Depths: []int{3, 6, 9, 12},
			Batch:  50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.SimTime.Seconds()/res.Batch.Seconds(), "phases@12")
	b.ReportMetric(float64(2*(last.Depth+1)), "worstcase@12")
}

// BenchmarkFigure5 regenerates the §VI-B iBGP study: extraction, analysis
// (constraint counts, core size) and the bandwidth comparison.
func BenchmarkFigure5(b *testing.B) {
	var res *experiments.Figure5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure5(experiments.Figure5Options{
			Seed:    5,
			Batch:   10 * time.Millisecond,
			Horizon: 1200 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.GadgetAnalysis.NumPreference), "rankingCons")
	b.ReportMetric(float64(res.GadgetAnalysis.NumMonotonicity), "monoCons")
	b.ReportMetric(float64(len(res.GadgetAnalysis.Core)), "core")
	b.ReportMetric(res.CommReduction(), "commReduction%")
	b.ReportMetric(res.ConvReduction(), "convReduction%")
}

// BenchmarkFigure6 regenerates the PV / HLP / HLP-CH comparison, reporting
// per-node communication cost (the paper's 1.75 / 1.09 / 0.59 MB ordering).
func BenchmarkFigure6(b *testing.B) {
	var res *experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure6(experiments.Figure6Options{
			Seed:       3,
			Domains:    4,
			DomainSize: 8,
			CrossLinks: 12,
			Horizon:    10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PVBytes, "PV-B/node")
	b.ReportMetric(res.HLPBytes, "HLP-B/node")
	b.ReportMetric(res.HLPCHBytes, "HLPCH-B/node")
}

// BenchmarkSectionVIBSolver isolates the §VI-B solver call: the paper
// reports the SMT solver answering within 100 ms on the extracted instance.
// The constraint set is built once in setup (the old version ran a full
// Figure 5 experiment here and discarded the result); the loop measures
// pure context construction plus solving.
func BenchmarkSectionVIBSolver(b *testing.B) {
	conv, err := spp.Figure3IBGP().ToAlgebra()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
	if err != nil {
		b.Fatal(err)
	}
	asserts := make([]smt.Assertion, len(cons))
	for i, c := range cons {
		asserts[i] = c.Assertion
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := smt.NewContext()
		s.AssertAll(asserts)
		out, err := s.Check()
		if err != nil || out.Sat {
			b.Fatalf("want unsat")
		}
	}
}

// BenchmarkGadgetGood / Bad / Disagree emulate the §VI-C gadgets.
func benchGadget(b *testing.B, mk func() *spp.Instance, wantConverge bool) {
	for i := 0; i < b.N; i++ {
		net := simnet.New(1, nil)
		_, err := pathvector.BuildSPP(net, mk(), simnet.DefaultLink(), pathvector.Config{
			BatchInterval: 20 * time.Millisecond,
			StartStagger:  10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		res := net.Run(4 * time.Second)
		if res.Converged != wantConverge {
			b.Fatalf("converged=%v, want %v", res.Converged, wantConverge)
		}
	}
}

func BenchmarkGadgetGood(b *testing.B)     { benchGadget(b, spp.GoodGadget, true) }
func BenchmarkGadgetBad(b *testing.B)      { benchGadget(b, spp.BadGadget, false) }
func BenchmarkGadgetDisagree(b *testing.B) { benchGadget(b, spp.Disagree, true) }

// BenchmarkAblationNativeVsNDlogNative and ...NDlog compare the two GPV
// execution paths on the same instance (the compiled-vs-interpreted design
// choice of §V).
func BenchmarkAblationNativeVsNDlogNative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := simnet.New(1, nil)
		_, err := pathvector.BuildSPP(net, spp.Figure3IBGPFixed(), simnet.DefaultLink(), pathvector.Config{
			BatchInterval: 20 * time.Millisecond, StartStagger: 15 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res := net.Run(20 * time.Second); !res.Converged {
			b.Fatal("native run did not converge")
		}
	}
}

func BenchmarkAblationNativeVsNDlogNDlog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := simnet.New(1, nil)
		_, err := enginepkg.BuildSPP(net, spp.Figure3IBGPFixed(), simnet.DefaultLink(), 20*time.Millisecond, 15*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res := net.Run(20 * time.Second); !res.Converged {
			b.Fatal("NDlog run did not converge")
		}
	}
}

// BenchmarkAblationBatching sweeps the route-propagation batch interval
// (the paper uses 1 s in §VI-A) and reports convergence in phases.
func BenchmarkAblationBatching(b *testing.B) {
	for _, batch := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		b.Run("batch="+batch.String(), func(b *testing.B) {
			var conv time.Duration
			for i := 0; i < b.N; i++ {
				res, err := experiments.Figure4(experiments.Figure4Options{
					Seed: 1, Depths: []int{6}, Batch: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				conv = res.Rows[0].SimTime
			}
			b.ReportMetric(conv.Seconds(), "convergence-s")
		})
	}
}

// BenchmarkAblationCostHiding sweeps the HLP cost-hiding threshold.
func BenchmarkAblationCostHiding(b *testing.B) {
	for _, hiding := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("hiding=%d", hiding), func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Figure6(experiments.Figure6Options{
					Seed: 3, Domains: 3, DomainSize: 6, CrossLinks: 8,
					Hiding: hiding, Horizon: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.HLPCHBytes
			}
			b.ReportMetric(bytes, "B/node")
		})
	}
}

// BenchmarkObsOverhead measures the observability tax on the hottest
// full-pipeline call (Figure 3 analysis): mode=off is the default
// nil-tracer path, whose delta against BenchmarkFigure3Analysis bounds the
// cost of the always-on metric counters; mode=on attaches a fresh tracer
// per iteration, pricing span recording for -trace-out users.
func BenchmarkObsOverhead(b *testing.B) {
	conv, err := spp.Figure3IBGP().ToAlgebra()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ctx context.Context) {
		res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
		if err != nil || res.Sat {
			b.Fatalf("want unsat, got %v %v", res.Sat, err)
		}
	}
	b.Run("mode=off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, ctx)
		}
	})
	b.Run("mode=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, WithTracer(context.Background(), NewTracer()))
		}
	})
}

// BenchmarkSolverScaling measures the SMT substrate on growing chain
// instances (pure solver throughput: context construction, incremental
// graph build, the condensed decision, model extraction). The n=1000 and
// n=5000 points anchor the scaling trajectory future PRs are held to; the
// n=20000 and n=50000 points are the internet-scale additions, set up
// through spp.ShardedConstraints (the classic concatenation-table path is
// quadratic in instance size and infeasible there) and reporting retained
// solver memory per node at the top size.
func BenchmarkSolverScaling(b *testing.B) {
	for _, n := range []int{10, 50, 200, 1000, 5000, 20000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := spp.ChainGadget(n)
			var asserts []smt.Assertion
			if n >= 20000 {
				cons, ok, err := spp.ShardedConstraints(in, 0)
				if err != nil || !ok {
					b.Fatalf("sharded gen: ok=%v err=%v", ok, err)
				}
				asserts = make([]smt.Assertion, len(cons))
				for i, c := range cons {
					asserts[i] = c.Assertion
				}
			} else {
				conv, err := in.ToAlgebra()
				if err != nil {
					b.Fatal(err)
				}
				cons, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
				if err != nil {
					b.Fatal(err)
				}
				asserts = make([]smt.Assertion, len(cons))
				for i, c := range cons {
					asserts[i] = c.Assertion
				}
			}
			perNode := 0.0
			if n >= 50000 {
				// Retained bytes per node once the context holds the full
				// assertion set (the engine's graph is pooled and excluded).
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s := smt.NewContext()
				s.AssertAll(asserts)
				runtime.GC()
				runtime.ReadMemStats(&after)
				if after.HeapAlloc > before.HeapAlloc {
					perNode = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
				}
				runtime.KeepAlive(s)
			}
			b.ResetTimer() // clears extra metrics — report perNode after, not before
			b.ReportAllocs()
			if perNode > 0 {
				b.ReportMetric(perNode, "B/node")
			}
			for i := 0; i < b.N; i++ {
				s := smt.NewContext()
				s.AssertAll(asserts)
				if out, err := s.Check(); err != nil || !out.Sat {
					b.Fatal("chain should be sat")
				}
			}
		})
	}
}

// BenchmarkConstraintGen compares constraint generation on power-law
// internet instances: the classic concatenation-table pipeline (mode=table,
// at n=1500 only — SPP → algebra conversion plus table enumeration, the
// quadratic wall every earlier PR hit) against spp.ShardedConstraints on one
// core (mode=sharded/procs=1) and on all of them (procs=default). Its prep
// shards; its rendering, one position at a time as an unsat core's members
// are rendered, runs on the calling goroutine. table/sharded is the
// algorithmic win. default/1 at n=20000 is what sharding the prep wins on
// multi-core hosts; at n=1500 every pass is below the shard floor, so both
// rows run on the calling goroutine.
func BenchmarkConstraintGen(b *testing.B) {
	for _, n := range []int{1500, 20000} {
		g := topology.GenerateInternet(1, topology.InternetParams{N: n})
		in := scenario.InternetSPP(fmt.Sprintf("gen-internet-%d", n), g, 3)
		if n == 1500 {
			b.Run(fmt.Sprintf("n=%d/mode=table", n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					conv, err := in.ToAlgebra()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/mode=sharded", n), func(b *testing.B) {
			for _, procs := range []int{1, 0} {
				name := "procs=default"
				if procs > 0 {
					name = fmt.Sprintf("procs=%d", procs)
				}
				b.Run(name, func(b *testing.B) {
					if procs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						cons, ok, err := spp.ShardedConstraints(in, 0)
						if err != nil || !ok || len(cons) == 0 {
							b.Fatalf("sharded gen: %d cons ok=%v err=%v", len(cons), ok, err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkInternetScale is the scale measurement: full analysis of a
// 50000-AS power-law instance. mode=undecomposed is the provenance list
// through the string door — spp.ShardedConstraints, every position rendered
// with its provenance, feeding smt.Native{}, which interns every variable
// name before it condenses and solves. mode=scc is AnalyzeScale: the dense encoding straight into the
// same engine, skipping provenance materialization on the sat path; it also
// reports retained analysis memory per node. mode=scc-planted is the same
// door on the instance with a DISAGREE pair planted on its first session —
// the unsafe leg of a scale-session operation. Both scc rows report gc/op,
// the garbage-collection cycles an analysis triggers, beside B/op. All rows
// run the one condensed solve (the names date from when only mode=scc did);
// the ns/op ratio between mode=undecomposed and mode=scc is what rendering
// the provenance and interning the variables cost.
func BenchmarkInternetScale(b *testing.B) {
	const n = 50000
	ctx := context.Background()
	g := topology.GenerateInternet(9, topology.InternetParams{N: n})
	in := scenario.InternetSPP(fmt.Sprintf("internet-%d", n), g, 3)
	planted := plantDisagree(in.Clone(), "rx_a", "rx_b")
	// analyses runs b.N analyses of the instance and reports the GC cycles
	// they triggered per analysis.
	analyses := func(b *testing.B, in *spp.Instance, wantSat bool) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			res, _, ok, err := spp.AnalyzeScale(ctx, in, 0)
			if err != nil || !ok || res.Sat != wantSat {
				b.Fatalf("scale analysis: sat=%v ok=%v err=%v, want sat=%v", res.Sat, ok, err, wantSat)
			}
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
	}
	b.Run("mode=undecomposed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cons, ok, err := spp.ShardedConstraints(in, 1)
			if err != nil || !ok {
				b.Fatalf("sharded gen: ok=%v err=%v", ok, err)
			}
			res, err := analysis.CheckPrepared(ctx, "spp-"+in.Name, analysis.StrictMonotonicity, cons, smt.Native{})
			if err != nil || !res.Sat {
				b.Fatalf("want sat, got sat=%v err=%v", res.Sat, err)
			}
		}
	})
	// Two cycles empty the solver's and the emitter's pools (the first moves
	// pooled scratch to the victim cache, the second frees it), so B/node is
	// what the result itself retains.
	settle := func() { runtime.GC(); runtime.GC() }
	b.Run("mode=scc", func(b *testing.B) {
		settle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, ok, err := spp.AnalyzeScale(ctx, in, 0)
		if err != nil || !ok || !res.Sat {
			b.Fatalf("scale analysis: sat=%v ok=%v err=%v", res.Sat, ok, err)
		}
		settle()
		runtime.ReadMemStats(&after)
		perNode := 0.0
		if after.HeapAlloc > before.HeapAlloc {
			perNode = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		}
		runtime.KeepAlive(res)
		// Refill the pools settle emptied, so the loop measures steady state.
		if _, _, _, err := spp.AnalyzeScale(ctx, in, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer() // clears extra metrics — report perNode after, not before
		b.ReportAllocs()
		if perNode > 0 {
			b.ReportMetric(perNode, "B/node")
		}
		analyses(b, in, true)
		b.ReportMetric(float64(res.Stats.Components), "components")
		b.ReportMetric(float64(res.Stats.TrivialComponents), "trivial")
	})
	b.Run("mode=scc-planted", func(b *testing.B) {
		b.ReportAllocs()
		analyses(b, planted, false)
	})
}

// BenchmarkDeltaVerify measures the serve-mode what-if loop on the n=5000
// chain instance: one ranking edit followed by re-verification. mode=full
// is the pre-daemon cost (SPP → algebra conversion, constraint generation,
// fresh solve — what every edit paid before delta re-verification);
// mode=delta patches the resident verifier's constraint system and
// re-probes only the affected dispute-digraph region. The ≥5× gap between
// the two is the PR's acceptance trajectory point.
func BenchmarkDeltaVerify(b *testing.B) {
	const n = 5000
	ctx := context.Background()
	// The edited node flips between its two orderings (direct egress
	// first vs learned route first); both keep the chain satisfiable, so
	// delta iterations exercise the re-probe path rather than the
	// unsat-core fallback.
	mid := fmt.Sprintf("n%d", n/2)
	next, tok := fmt.Sprintf("n%d", n/2+1), fmt.Sprintf("r%d", n/2+1)
	direct := spp.Path{spp.Node(mid), spp.Node("r" + mid[1:])}
	via := spp.Path{spp.Node(mid), spp.Node(next), spp.Node(tok)}
	orders := [2][]spp.Path{{direct, via}, {via, direct}}

	b.Run("mode=full", func(b *testing.B) {
		in := spp.ChainGadget(n)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Rank(spp.Node(mid), orders[i%2]...)
			conv, err := in.ToAlgebra()
			if err != nil {
				b.Fatal(err)
			}
			res, err := analysis.CheckWith(ctx, conv.Algebra, analysis.StrictMonotonicity, smt.Native{})
			if err != nil || !res.Sat {
				b.Fatalf("chain should be sat (err=%v)", err)
			}
		}
	})
	b.Run("mode=delta", func(b *testing.B) {
		v, err := spp.NewDeltaVerifier(spp.ChainGadget(n))
		if err != nil {
			b.Fatal(err)
		}
		// Prime with the flipped ordering so iteration 0's re-rank is a
		// real edit (re-ranking to the standing order is a no-op answered
		// from cache, which would make a 1-iteration run vacuous).
		if err := v.ReRank(spp.Node(mid), orders[1]...); err != nil {
			b.Fatal(err)
		}
		if _, _, err := v.Verify(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := v.ReRank(spp.Node(mid), orders[i%2]...); err != nil {
				b.Fatal(err)
			}
			res, _, err := v.Verify(ctx)
			if err != nil || !res.Sat {
				b.Fatalf("chain should be sat (err=%v)", err)
			}
		}
		b.StopTimer()
		st := v.DeltaStats()
		if st.DeltaSolves == 0 {
			b.Fatal("delta mode never delta-solved")
		}
		b.ReportMetric(float64(st.DeltaSolves)/float64(st.Checks), "delta-ratio")
	})
	// The power-law modes edit twins: a dispute pair and an ordinary node of
	// internet:5000 that internet:20000 has too, shape for shape and reach
	// for reach (spptest.Twins), so the two sizes are asked for the same
	// work. The verifiers are built once, when a mode first needs them.
	sizes := []int{5000, 20000}
	var (
		twins       sync.Once
		reach       [2]*spptest.Reach
		resident    [2]*spp.DeltaVerifier
		pairs, ones [2][]spp.Node
	)
	internet := func(b *testing.B, i int) (v *spp.DeltaVerifier, in *spp.Instance, pair, one []spp.Node) {
		twins.Do(func() {
			for i, size := range sizes {
				reach[i] = spptest.NewReach(GenerateInternetSPP("internet", size, 1))
				v, err := spp.NewDeltaVerifier(reach[i].In)
				if err != nil {
					b.Fatal(err)
				}
				if res, _, err := v.Verify(ctx); err != nil || !res.Sat {
					b.Fatalf("internet:%d should be sat (err=%v)", size, err)
				}
				resident[i] = v
			}
			pairs[0], pairs[1] = spptest.Twins(reach[0], reach[1], (*spptest.Reach).DisputePairs)
			ones[0], ones[1] = spptest.Twins(reach[0], reach[1], func(r *spptest.Reach) (out [][]spp.Node) {
				for _, c := range r.Swappable() { // not an end of either pair
					if !slices.Contains(append(pairs[0], pairs[1]...), c[0]) {
						out = append(out, c)
					}
				}
				return out
			})
		})
		if pairs[0] == nil || ones[0] == nil {
			b.Fatal("internet:5000 and internet:20000 share no dispute pair or no swappable node of one shape and reach")
		}
		return resident[i], reach[i].In, pairs[i], ones[i]
	}
	// mode=discard is the daemon's pure query — Begin, a top-two swap on an
	// ordinary node, Verify, Rollback: ns/op, steps/op, B/op and allocs/op
	// are the edit's, the same at both sizes.
	for i, size := range sizes {
		b.Run(fmt.Sprintf("mode=discard/internet:%d", size), func(b *testing.B) {
			v, in, _, one := internet(b, i)
			node := one[0]
			paths := in.Permitted[node]
			swapped := append([]spp.Path{paths[1], paths[0]}, paths[2:]...)
			before := v.DeltaStats()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.Begin()
				if err := v.ReRank(node, swapped...); err != nil {
					b.Fatal(err)
				}
				res, _, err := v.Verify(ctx)
				if err != nil || !res.Sat {
					b.Fatalf("swap should stay sat (err=%v)", err)
				}
				v.Rollback()
			}
			b.StopTimer()
			st := v.DeltaStats()
			if st.DeltaSolves != before.DeltaSolves+b.N {
				b.Fatalf("%d discarded swaps moved the solver from %+v to %+v", b.N, before, st)
			}
			b.ReportMetric(float64(st.Steps-before.Steps)/float64(b.N), "steps/op")
		})
	}
	// mode=break-repair is the operator's session on the unsafe path, each
	// step a committed transaction: plant a two-node dispute on a session
	// whose ends have five sessions between them, read the four-constraint
	// core, put the rankings back, then swap and unswap the ordinary node's
	// top two. ns/op and steps/op are the dispute's and the edits', the same
	// at both sizes; no step solves the whole list.
	for i, size := range sizes {
		b.Run(fmt.Sprintf("mode=break-repair/internet:%d", size), func(b *testing.B) {
			v, in, pair, one := internet(b, i)
			pu, pv, w := pair[0], pair[1], one[0]
			ou, ov := spp.Node("rx_"+string(pu)), spp.Node("rx_"+string(pv))
			wp := in.Permitted[w]
			steps := [4]map[spp.Node][]spp.Path{
				{pu: {{pu, pv, ov}, {pu, ou}}, pv: {{pv, pu, ou}, {pv, ov}}},
				{pu: in.Permitted[pu], pv: in.Permitted[pv]},
				{w: append([]spp.Path{wp[1], wp[0]}, wp[2:]...)},
				{w: wp},
			}
			before := v.DeltaStats()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, ranks := range steps {
					v.Begin()
					for _, n := range []spp.Node{pu, pv, w} {
						if paths, ok := ranks[n]; ok {
							if err := v.ReRank(n, paths...); err != nil {
								b.Fatal(err)
							}
						}
					}
					res, sus, err := v.Verify(ctx)
					if err != nil || res.Sat != (k > 0) || (k == 0 && (len(res.Core) != 4 || len(sus) != 2)) {
						b.Fatalf("step %d: sat=%v core=%d suspects=%v err=%v", k, res.Sat, len(res.Core), sus, err)
					}
					v.Commit()
				}
			}
			b.StopTimer()
			st := v.DeltaStats()
			if st.FullSolves != before.FullSolves || st.DeltaSolves != before.DeltaSolves+4*b.N {
				b.Fatalf("%d sessions moved the solver from %+v to %+v", b.N, before, st)
			}
			b.ReportMetric(float64(st.Steps-before.Steps)/float64(b.N), "steps/op")
		})
	}
}
