// Command fsr is the FSR toolkit CLI: analyze policy configurations for
// safety, compile them to NDlog implementations, run protocol executions,
// and regenerate the paper's tables and figures. It is a thin client of the
// public fsr package: every subcommand builds an fsr.Session from its flags
// and drives the pipeline through it.
//
// Usage:
//
//	fsr analyze  [-config FILE | -builtin NAME | -spp NAME]
//	             [-trace-out FILE]                            safety analysis
//	fsr compile  [-config FILE | -builtin NAME | -spp NAME]   emit the NDlog program
//	fsr yices    [-config FILE | -builtin NAME | -spp NAME]   emit the solver encoding
//	fsr run      [-gadget NAME] [-runner B] [-horizon D] [-batch D]
//	             [-churn] [-churn-seed S] [-loss P]           execute a gadget under GPV
//	fsr campaign [-count N] [-seed S] [-kinds K,K | -churn] [-shard i/n]
//	             [-shrink] [-corpus FILE | -replay FILE] [-trace-out FILE]
//	             [-metrics-addr HOST:PORT] [-quiet]           differential campaign
//	fsr serve    [-addr HOST:PORT] [-check-oracle] [-pprof]
//	             [-slow-op D]                                 verification-as-a-service daemon
//	fsr top      [-addr HOST:PORT] [-interval D] [-once]      live view of a running endpoint
//	fsr experiment <table1|table2|fig3|fig4|fig5|fig6|vic> [flags]
//	fsr topo     [-depth N] [-seed S]                         print a generated AS hierarchy
//
// Built-in policies: gao-rexford-a, gao-rexford-b, gao-rexford-safe,
// hop-count, backup. Built-in gadgets: goodgadget, badgadget, disagree,
// fig3, fig3-fixed, plus the parameterized forms chain:N and
// internet:N[:SEED] which generate instances on the fly. Constraints are
// decided in process by the native difference-logic engine; fsr yices prints
// the paper's Yices text. Runner backends: sim, sim-ndlog, tcp.
// Scenario kinds: gadget-splice, gao-rexford, ibgp, gao-rexford-internet,
// lexical-product, divergent-fixture, partial-spec, churn-flap,
// churn-storm, churn-dispute (the last three inject seed-derived fault
// plans; -churn selects them all).
//
// Observability: -trace-out writes a Chrome trace-event JSON file (open in
// Perfetto) covering every pipeline span under the command; -metrics-addr
// binds an HTTP listener for the campaign's duration serving the
// process-global metrics registry at /metrics, Go profiling at
// /debug/pprof/, retained time series at /v1/timeseries, the flight
// recorder's recent-operations ring at /v1/flightrecorder, and a
// zero-dependency live dashboard at /dashboard. fsr serve mounts the same
// diagnosis endpoints, and -slow-op sets the latency threshold beyond
// which an operation's full span tree is retained. fsr top renders the
// ring and the live registry as a refreshing terminal view against either
// listener. serve and campaign log structured lines to stderr through one
// leveled logger shaped by -log-format (text|json) and -log-level
// (debug|info|warn|error); -quiet silences it entirely, including the
// campaign progress lines and final summary.
//
// Exit codes distinguish outcomes for campaign scripting: 0 means the
// command succeeded (and, where applicable, the analysis proved safety),
// 1 means the toolkit worked and found unsafety (an unsafe verdict, a
// campaign divergence/mismatch, or a replay that does not reproduce), and
// 2 means a tool error (bad flags, unreadable files, backend failures).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fsr"
)

// errUnsafe marks "the analysis worked and found unsafety": the command
// already printed its report, and the process exits 1 (vs 2 for tool
// errors), so campaign scripts can tell a finding from a failure.
var errUnsafe = errors.New("analysis found unsafety")

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "yices":
		err = cmdYices(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "topo":
		err = cmdTopo(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fsr: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	switch {
	case err == nil:
	case errors.Is(err, errUnsafe):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "fsr:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: fsr <command> [flags]

commands:
  analyze     safety analysis of a policy configuration
  compile     emit the generated NDlog implementation
  yices       emit the Yices-syntax solver encoding
  run         execute a gadget instance under GPV
  campaign    differential analysis-vs-simulation campaign over generated scenarios
  serve       HTTP verification daemon with delta re-verification
  experiment  regenerate a table or figure of the paper
  topo        print a generated AS hierarchy
  top         live terminal view of a running serve/campaign endpoint

exit codes: 0 success/safe, 1 finding (unsafe verdict, campaign
divergence/mismatch, or a replay that does not reproduce), 2 tool error
`)
}

// loadPolicy resolves -builtin/-config/-spp flags to an algebra.
func loadPolicy(builtin, configPath, sppName string) (fsr.Algebra, *fsr.SPPConversion, error) {
	if configPath != "" {
		data, err := os.ReadFile(configPath)
		if err != nil {
			return nil, nil, err
		}
		file, err := fsr.ParseConfig(string(data))
		if err != nil {
			return nil, nil, err
		}
		if len(file.Algebras) > 0 {
			return file.Algebras[0], nil, nil
		}
		if len(file.Instances) > 0 {
			conv, err := fsr.ConvertSPP(file.Instances[0])
			if err != nil {
				return nil, nil, err
			}
			return conv.Algebra, conv, nil
		}
		return nil, nil, fmt.Errorf("config %s defines no algebra or spp instance", configPath)
	}
	if sppName != "" {
		inst, err := fsr.Gadget(sppName)
		if err != nil {
			return nil, nil, err
		}
		conv, err := fsr.ConvertSPP(inst)
		if err != nil {
			return nil, nil, err
		}
		return conv.Algebra, conv, nil
	}
	alg, err := fsr.BuiltinAlgebra(builtin)
	if err != nil {
		return nil, nil, err
	}
	return alg, nil, nil
}

// withTraceOut attaches a fresh tracer to the context when path is
// non-empty, returning a flush func that writes the recorded spans as
// Chrome trace-event JSON (Perfetto-loadable) once the command is done.
func withTraceOut(ctx context.Context, path string) (context.Context, func() error) {
	if path == "" {
		return ctx, func() error { return nil }
	}
	tr := fsr.NewTracer()
	return fsr.WithTracer(ctx, tr), func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fsr: wrote %d span(s) to %s\n", tr.SpanCount(), path)
		return nil
	}
}

// startMetricsListener binds addr and serves the process-global metrics
// registry at /metrics, the diagnosis surface (/dashboard, /v1/timeseries,
// /v1/flightrecorder), and Go profiling at /debug/pprof/ for the life of
// the process. The flight recorder is switched on so campaign scenarios
// land in the ring. Returns the bound address (addr may use port 0).
func startMetricsListener(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", fsr.MetricsHandler())
	fsr.MountPprof(mux)
	fsr.EnableFlightRecorder(true)
	fsr.MountDiagnostics(mux, 0, 0) // sampler runs for the process lifetime
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// sessionFromFlags builds the Session every subcommand drives.
func sessionFromFlags(runnerName string, opts ...fsr.Option) (*fsr.Session, error) {
	runner, err := fsr.RunnerBackendByName(runnerName)
	if err != nil {
		return nil, err
	}
	opts = append([]fsr.Option{fsr.WithRunner(runner)}, opts...)
	return fsr.NewSession(opts...), nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	builtin := fs.String("builtin", "", "built-in policy name")
	configPath := fs.String("config", "", "configuration file")
	sppName := fs.String("spp", "", "built-in SPP gadget name")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file of the analysis spans")
	fs.Parse(args)
	alg, conv, err := loadPolicy(*builtin, *configPath, *sppName)
	if err != nil {
		return err
	}
	sess, err := sessionFromFlags("sim")
	if err != nil {
		return err
	}
	ctx, flush := withTraceOut(context.Background(), *traceOut)
	rep, err := sess.Analyze(ctx, alg)
	if ferr := flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if conv != nil && rep.Verdict == fsr.Unsafe && len(rep.Steps) > 0 {
		suspects := conv.SuspectNodes(rep.Steps[0].Core)
		fmt.Printf("suspect nodes: %v\n", suspects)
	}
	if rep.Verdict == fsr.Unsafe {
		return errUnsafe
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	count := fs.Int("count", 64, "total number of scenarios across all shards")
	seed := fs.Int64("seed", 1, "base seed; scenario i uses seed+i")
	kindsFlag := fs.String("kinds", "", "comma-separated scenario kinds (default: gadget-splice,gao-rexford,ibgp)")
	churn := fs.Bool("churn", false, "run the fault-injection workload (churn-flap, churn-storm, churn-dispute)")
	shardFlag := fs.String("shard", "", "contiguous shard of the seed range, as i/n (e.g. 0/4)")
	horizon := fs.Duration("horizon", 2*time.Second, "per-scenario simulation horizon (virtual time)")
	deadline := fs.Duration("deadline", 0, "overall wall-clock deadline for the campaign (0 = none)")
	noSim := fs.Bool("no-sim", false, "skip the differential simulation, classify on analysis alone")
	shrink := fs.Bool("shrink", false, "delta-debug divergences and mismatches to minimal instances")
	corpusPath := fs.String("corpus", "", "write interesting outcomes (shrunk where possible) to this JSON Lines file")
	replayPath := fs.String("replay", "", "replay a corpus file instead of generating scenarios")
	runnerName := fs.String("runner", "sim", "runner backend: sim|sim-ndlog|tcp")
	verbose := fs.Bool("v", false, "print every scenario result, not just the summary")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file of the campaign spans")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /dashboard, /v1/timeseries, /v1/flightrecorder, and /debug/pprof/ on this address for the campaign's duration")
	logFormat, logLevel := logFlags(fs)
	quiet := fs.Bool("quiet", false, "suppress the periodic progress records and final summary on stderr")
	fs.Parse(args)
	logger, err := buildLogger(*logFormat, *logLevel, *quiet)
	if err != nil {
		return err
	}

	if *replayPath != "" {
		// -replay is a mode of its own: generation flags would be silently
		// ignored, so reject the combination instead of surprising scripts.
		var conflicting []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "count", "seed", "kinds", "churn", "shard", "horizon", "no-sim", "shrink", "corpus":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return fmt.Errorf("-replay re-creates each entry's recorded conditions and cannot be combined with %s", strings.Join(conflicting, ", "))
		}
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be nonzero (0 is the library's use-the-default sentinel and would silently rebase to 1)")
	}
	if *count <= 0 {
		return fmt.Errorf("-count must be positive (0 is the library's use-the-default sentinel and would silently rebase to 64)")
	}
	sess, err := sessionFromFlags(*runnerName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	if *metricsAddr != "" {
		bound, err := startMetricsListener(*metricsAddr)
		if err != nil {
			return err
		}
		if logger != nil {
			logger.Info("fsr campaign: serving diagnostics", "addr", bound,
				"metrics", "http://"+bound+"/metrics", "dashboard", "http://"+bound+"/dashboard")
		}
	}
	ctx, flush := withTraceOut(ctx, *traceOut)

	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		entries, err := fsr.ReadScenarioCorpus(f)
		if err != nil {
			return err
		}
		results, err := sess.Replay(ctx, entries)
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
		failed, errored := 0, 0
		for _, rr := range results {
			fmt.Println(rr)
			switch {
			case rr.Err != "":
				errored++
			case !rr.Reproduced:
				failed++
			}
		}
		msg := fmt.Sprintf("replayed %d corpus entr(ies), %d not reproduced", len(results), failed)
		if errored > 0 {
			msg += fmt.Sprintf(", %d errored", errored)
		}
		fmt.Println(msg)
		if failed > 0 {
			return errUnsafe
		}
		if errored > 0 {
			return fmt.Errorf("replay: %d entr(ies) failed to evaluate", errored)
		}
		return nil
	}

	spec := fsr.CampaignSpec{
		Count:    *count,
		BaseSeed: *seed,
		Horizon:  *horizon,
		NoSim:    *noSim,
		Shrink:   *shrink,
		Logger:   logger,
	}
	switch {
	case *churn && *kindsFlag != "":
		return fmt.Errorf("-churn is shorthand for -kinds churn-flap,churn-storm,churn-dispute; give one or the other")
	case *churn && *noSim:
		return fmt.Errorf("-churn scenarios classify by executing their fault plans; -no-sim would skip them")
	case *churn:
		spec.Kinds = fsr.ChurnScenarioKinds()
	case *kindsFlag != "":
		for _, name := range strings.Split(*kindsFlag, ",") {
			kind, err := fsr.ScenarioKindByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			spec.Kinds = append(spec.Kinds, kind)
		}
	}
	if *shardFlag != "" {
		i := strings.IndexByte(*shardFlag, '/')
		if i < 0 {
			return fmt.Errorf("-shard wants i/n, got %q", *shardFlag)
		}
		s, err1 := strconv.Atoi((*shardFlag)[:i])
		n, err2 := strconv.Atoi((*shardFlag)[i+1:])
		if err1 != nil || err2 != nil || n < 1 || s < 0 || s >= n {
			return fmt.Errorf("-shard wants i/n with 0 ≤ i < n, got %q", *shardFlag)
		}
		spec.Shard, spec.NumShards = s, n
	}
	rep, err := sess.Campaign(ctx, spec)
	if ferr := flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if *verbose {
		for _, r := range rep.Results {
			fmt.Println(r)
		}
	}
	fmt.Println(rep)
	if *corpusPath != "" {
		entries, err := rep.CorpusEntries()
		if err != nil {
			return err
		}
		f, err := os.Create(*corpusPath)
		if err != nil {
			return err
		}
		if err := fsr.WriteScenarioCorpus(f, entries); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d corpus entr(ies) to %s\n", len(entries), *corpusPath)
	}
	// Exit-code contract: 1 is reserved for genuine analysis-vs-simulation
	// disagreements; scenarios that timed out or errored are infrastructure
	// failures and exit 2 (unless a real disagreement was also found, which
	// takes precedence as the more actionable signal).
	tally := rep.Tally()
	if tally[fsr.OutcomeDivergence]+tally[fsr.OutcomeMismatch] > 0 {
		return errUnsafe
	}
	if n := tally[fsr.OutcomeTimeout] + tally[fsr.OutcomeError]; n > 0 {
		return fmt.Errorf("campaign: %d scenario(s) timed out or errored", n)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	checkOracle := fs.Bool("check-oracle", false,
		"differentially validate every delta verification against a full rebuild")
	pprofFlag := fs.Bool("pprof", false,
		"mount Go profiling at /debug/pprof/ (profiles expose heap contents; trusted listeners only)")
	slowOp := fs.Duration("slow-op", 0,
		"retain full span trees for operations slower than this (0 = the 100ms default)")
	logFormat, logLevel := logFlags(fs)
	quiet := fs.Bool("quiet", false, "suppress request and lifecycle logging")
	fs.Parse(args)
	logger, err := buildLogger(*logFormat, *logLevel, *quiet)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return fsr.Serve(ctx, fsr.ServeOptions{
		Addr:            *addr,
		CheckOracle:     *checkOracle,
		Pprof:           *pprofFlag,
		Logger:          logger,
		SlowOpThreshold: *slowOp,
	})
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	builtin := fs.String("builtin", "", "built-in policy name")
	configPath := fs.String("config", "", "configuration file")
	sppName := fs.String("spp", "", "built-in SPP gadget name")
	fs.Parse(args)
	alg, _, err := loadPolicy(*builtin, *configPath, *sppName)
	if err != nil {
		return err
	}
	prog, err := fsr.NewSession().Compile(alg)
	if err != nil {
		return err
	}
	fmt.Print(prog)
	return nil
}

func cmdYices(args []string) error {
	fs := flag.NewFlagSet("yices", flag.ExitOnError)
	builtin := fs.String("builtin", "", "built-in policy name")
	configPath := fs.String("config", "", "configuration file")
	sppName := fs.String("spp", "", "built-in SPP gadget name")
	fs.Parse(args)
	alg, _, err := loadPolicy(*builtin, *configPath, *sppName)
	if err != nil {
		return err
	}
	text, err := fsr.NewSession().SolverEncoding(alg)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	gadget := fs.String("gadget", "fig3-fixed", "gadget instance to execute")
	runnerName := fs.String("runner", "sim", "runner backend: sim|sim-ndlog|tcp")
	horizon := fs.Duration("horizon", 5*time.Second, "simulation horizon")
	batch := fs.Duration("batch", 20*time.Millisecond, "route propagation batch interval")
	churn := fs.Bool("churn", false, "inject a seed-derived fault plan (link flaps, a restart) into the run")
	churnSeed := fs.Int64("churn-seed", 1, "seed deriving the -churn fault plan")
	loss := fs.Float64("loss", 0, "probabilistic per-message link loss rate in [0, 1)")
	fs.Parse(args)
	inst, err := fsr.Gadget(*gadget)
	if err != nil {
		return err
	}
	opts := []fsr.Option{
		fsr.WithHorizon(*horizon),
		fsr.WithBatchWindow(*batch),
	}
	if *loss != 0 {
		opts = append(opts, fsr.WithLinkLoss(*loss))
	}
	if *churn {
		var nodes []string
		for _, n := range inst.Nodes {
			nodes = append(nodes, string(n))
		}
		var sessions [][2]string
		seen := map[[2]string]bool{}
		for _, l := range inst.Links {
			a, b := string(l.From), string(l.To)
			if seen[[2]string{a, b}] || seen[[2]string{b, a}] {
				continue
			}
			seen[[2]string{a, b}] = true
			sessions = append(sessions, [2]string{a, b})
		}
		plan := fsr.BuildFaultPlan(*churnSeed, nodes, sessions, fsr.FaultPlanSpec{Flaps: 2, Restarts: 1})
		opts = append(opts, fsr.WithFaultPlan(plan))
	}
	sess, err := sessionFromFlags(*runnerName, opts...)
	if err != nil {
		return err
	}
	rep, err := sess.Run(context.Background(), inst)
	if err != nil {
		return err
	}
	fmt.Printf("%s [%s]: converged=%v time=%v messages=%d bytes=%d\n",
		rep.Instance, rep.Runner, rep.Converged, rep.Time, rep.Messages, rep.Bytes)
	if rep.Faults > 0 || rep.Dropped > 0 {
		line := fmt.Sprintf("  faults=%d dropped=%d route-changes=%d", rep.Faults, rep.Dropped, rep.RouteChanges)
		if rep.Faults > 0 && rep.Converged {
			line += fmt.Sprintf(" reconverged=%v after last fault (at %v)", rep.Time-rep.LastFault, rep.LastFault)
		}
		fmt.Println(line)
	}
	for _, n := range inst.Nodes {
		if best, ok := rep.Best[string(n)]; ok {
			fmt.Printf("  %s → %v (%s)\n", n, best.Path, best.Sig)
		} else {
			fmt.Printf("  %s → no route\n", n)
		}
	}
	return nil
}

func cmdExperiment(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("experiment wants a name: table1 table2 fig3 fig4 fig5 fig6 vic")
	}
	name := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generation seed")
	full := fs.Bool("full", false, "paper-scale parameters (slower)")
	deployment := fs.Bool("deployment", false, "also run deployment (real-socket) series where applicable")
	fs.Parse(args[1:])
	switch name {
	case "table1":
		fmt.Print(fsr.FormatTableI(fsr.TableI()))
		return nil
	case "table2":
		prog, err := fsr.NewSession().Compile(fsr.GaoRexfordA())
		if err != nil {
			return err
		}
		fmt.Println("Table II: algebra → NDlog mapping (generated for gao-rexford-a)")
		for _, fn := range []string{"f_pref", "f_concatSig", "f_import", "f_export"} {
			def, ok := prog.Func(fn)
			if !ok {
				return fmt.Errorf("generated program lacks %s", fn)
			}
			if def.Text != "" {
				fmt.Println(def.Text)
			}
		}
		return nil
	case "fig3":
		sess := fsr.NewSession()
		res, suspects, err := sess.AnalyzeSPP(context.Background(), fsr.Figure3IBGP())
		if err != nil {
			return err
		}
		fmt.Println(res)
		fmt.Printf("suspect nodes: %v\n", suspects)
		fixed, _, err := sess.AnalyzeSPP(context.Background(), fsr.Figure3IBGPFixed())
		if err != nil {
			return err
		}
		fmt.Println(fixed)
		return nil
	case "fig4":
		opts := fsr.Figure4Options{Seed: *seed, Deployment: *deployment}
		if !*full {
			opts.Depths = []int{3, 5, 7, 9, 11}
			opts.Batch = 100 * time.Millisecond
		}
		res, err := fsr.Figure4(opts)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	case "fig5":
		opts := fsr.Figure5Options{Seed: *seed}
		if !*full {
			opts.ISP = fsr.ISPParams{Routers: 40, Links: 120, Reflectors: 24, Levels: 6}
		}
		res, err := fsr.Figure5(opts)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	case "fig6":
		opts := fsr.Figure6Options{Seed: *seed}
		if !*full {
			opts.Domains = 4
			opts.DomainSize = 8
			opts.CrossLinks = 16
		}
		res, err := fsr.Figure6(opts)
		if err != nil {
			return err
		}
		fmt.Print(res)
		return nil
	case "vic":
		reps, err := fsr.SectionVIC(fsr.SectionVICOptions{Seed: *seed})
		if err != nil {
			return err
		}
		for _, r := range reps {
			fmt.Printf("%-12s sat=%-5v converged=%-5v time=%-10v msgs=%d\n",
				r.Name, r.Sat, r.Converged, r.Time, r.Messages)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	depth := fs.Int("depth", 5, "longest customer-provider chain")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)
	g := fsr.GenerateHierarchy(*seed, fsr.HierarchyParams{Depth: *depth})
	fmt.Printf("AS hierarchy: %d nodes, %d edges, depth %d\n", len(g.Nodes), len(g.Edges), g.Depth)
	for _, e := range g.Edges {
		rel := "provider-of"
		if e.Rel == fsr.PeerPeer {
			rel = "peer"
		}
		fmt.Printf("  %s %s %s\n", e.A, rel, e.B)
	}
	return nil
}
