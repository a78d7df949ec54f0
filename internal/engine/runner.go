package engine

import (
	"context"
	"fmt"
	"time"

	"fsr/internal/obs"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/spp"
	"fsr/internal/trace"
)

// This file defines the Runner backend interface: one execution contract
// over the toolkit's two platforms (discrete-event simulation and real TCP
// sockets) and two GPV implementations (the compiled pathvector protocol and
// this package's NDlog interpreter). It mirrors RapidNet's simulation/
// deployment duality (§VI-A): callers pick a backend by value, hand it an
// SPP instance, and get back one uniform report. Only the interpreter
// converts the instance to its algebra (NDlog is generated from it).

// RunOptions parameterizes one protocol execution, whichever backend runs
// it. The zero value is usable: default link, immediate (unbatched) sends,
// seed 1, a 5 s horizon.
type RunOptions struct {
	// Seed drives all deterministic randomness (simulation scheduling,
	// batch jitter, start stagger). Zero means seed 1.
	Seed int64
	// Link configures simulated links; unless LinkExplicit is set, the
	// zero value means the paper's standard link (100 Mbps, 10 ms).
	// Ignored by deployment backends, where timing reflects the real
	// network stack.
	Link simnet.LinkConfig
	// LinkExplicit marks Link as deliberately chosen, letting callers
	// request a genuine zero-latency, infinite-bandwidth link (the zero
	// LinkConfig) without it being swapped for the default.
	LinkExplicit bool
	// BatchInterval batches route propagation (§VI-A uses 1 s). Zero sends
	// on the next event.
	BatchInterval time.Duration
	// StartStagger delays each node's start by a deterministic offset in
	// [0, StartStagger), desynchronizing batch phases.
	StartStagger time.Duration
	// Horizon bounds the run: virtual time in simulation, wall clock in
	// deployment. Zero means 5 s.
	Horizon time.Duration
	// IdleWindow is the deployment-mode quiescence window (no in-flight
	// work for this long means converged). Zero means 200 ms.
	IdleWindow time.Duration
	// Collector receives traffic metrics; nil allocates a private one.
	Collector *trace.Collector
	// Plan schedules fault injection (link flaps, restarts, policy changes)
	// into the run. Only the compiled simulation backend supports it; the
	// interpreter and the TCP deployment reject non-empty plans (driving the
	// same plan against DeployRunner is future groundwork).
	Plan *FaultPlan
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if !o.LinkExplicit && o.Link == (simnet.LinkConfig{}) {
		o.Link = simnet.DefaultLink()
	}
	if o.Horizon <= 0 {
		o.Horizon = 5 * time.Second
	}
	if o.Collector == nil {
		o.Collector = trace.NewCollector(10 * time.Millisecond)
	}
	return o
}

// NodeRoute is one node's selected route in a RunReport.
type NodeRoute struct {
	Path []string
	Sig  string
}

// RunReport is the uniform outcome of a Runner execution.
type RunReport struct {
	// Runner names the backend that produced the report.
	Runner string
	// Instance is the executed SPP instance's name.
	Instance string
	// Converged reports protocol quiescence before the horizon.
	Converged bool
	// Time is the convergence instant (or the horizon when !Converged):
	// virtual time in simulation, wall clock in deployment.
	Time time.Duration
	// Delivered counts delivered protocol messages (simulation only).
	Delivered int64
	// Messages and Bytes are the collector's traffic totals.
	Messages int
	Bytes    int64
	// Best maps each instance node to its selected route for the implicit
	// destination; nodes with no route are absent.
	Best map[string]NodeRoute
	// Dropped counts messages lost to injected faults or probabilistic link
	// loss (simulation only).
	Dropped int64
	// Faults counts processed fault events; LastFault is the instant of the
	// last one. Time − LastFault is the re-convergence time under churn when
	// Converged.
	Faults    int64
	LastFault time.Duration
	// RouteChanges sums every node's selection changes (compiled sim only) —
	// the churn-severity measure campaign reports aggregate.
	RouteChanges int64
	// NodeChanges maps each node to its selection-change count (compiled sim
	// only); under churn, the nodes with outsized counts are the oscillators
	// the §VI-B suspect set should predict.
	NodeChanges map[string]int64
}

// Runner executes an SPP instance on one backend; an instance ToAlgebra
// rejects fails with its error. Implementations are stateless values; all
// per-run state lives inside Run. Cancelling ctx aborts the execution with
// ctx.Err().
type Runner interface {
	// Name identifies the backend ("sim", "sim-ndlog", "tcp").
	Name() string
	// Run executes the instance to quiescence or the horizon.
	Run(ctx context.Context, in *spp.Instance, opts RunOptions) (*RunReport, error)
}

// SimRunner executes over the deterministic discrete-event simulator.
// Interpreted selects the NDlog interpreter (this package) instead of the
// compiled pathvector protocol; both implement the same GPV rules, and the
// equivalence of the two is tested.
type SimRunner struct {
	Interpreted bool
}

// Name implements Runner.
func (r SimRunner) Name() string {
	if r.Interpreted {
		return "sim-ndlog"
	}
	return "sim"
}

// Run implements Runner. Under a tracer the caller's span gains three
// children: build (wire the network), run (the event loop) and collect.
func (r SimRunner) Run(ctx context.Context, in *spp.Instance, opts RunOptions) (*RunReport, error) {
	opts = opts.withDefaults()
	net := simnet.New(opts.Seed, opts.Collector)
	var (
		native map[simnet.NodeID]*pathvector.Node
		interp map[simnet.NodeID]*Node
		err    error
	)
	_, bsp := obs.StartSpan(ctx, "build")
	switch {
	case !r.Interpreted:
		native, err = pathvector.BuildSPP(net, in, opts.Link, pathvector.Config{
			BatchInterval: opts.BatchInterval,
			StartStagger:  opts.StartStagger,
		})
		if err == nil && !opts.Plan.Empty() {
			applyPlan(net, native, opts.Plan)
		}
	case !opts.Plan.Empty():
		err = fmt.Errorf("engine: fault plans require the compiled sim backend, not %s", r.Name())
	default:
		var conv *spp.Conversion
		if conv, err = in.ToAlgebra(); err == nil {
			interp, err = BuildSPP(net, conv, opts.Link, opts.BatchInterval, opts.StartStagger)
		}
	}
	bsp.End()
	if err != nil {
		return nil, err
	}
	return r.simulate(ctx, net, in.Name, native, interp, opts)
}

// simulate is Run's run and collect steps on a wired network of compiled
// (native) or interpreted (interp) nodes.
func (r SimRunner) simulate(ctx context.Context, net *simnet.Network, name string, native map[simnet.NodeID]*pathvector.Node, interp map[simnet.NodeID]*Node, opts RunOptions) (*RunReport, error) {
	rctx, rsp := obs.StartSpan(ctx, "run")
	res, err := net.RunContext(rctx, opts.Horizon)
	var routeChanges int64
	var nodeChanges map[string]int64
	if !r.Interpreted {
		nodeChanges = make(map[string]int64, len(native))
		for id, n := range native {
			nodeChanges[string(id)] = n.SelectionChanges()
			routeChanges += n.SelectionChanges()
		}
	}
	rsp.AttrInt("events", res.Events)
	rsp.AttrInt("delivered", res.Delivered)
	rsp.AttrInt("route_changes", routeChanges)
	rsp.End()
	if err != nil {
		return nil, err
	}
	_, csp := obs.StartSpan(ctx, "collect")
	defer csp.End()
	best := map[string]NodeRoute{}
	collectNative(native, best)
	for id, n := range interp {
		if path, sig, ok := n.BestPath(SPPDest); ok {
			best[string(id)] = NodeRoute{Path: path, Sig: sig}
		}
	}
	msgs, bytes := opts.Collector.Totals()
	return &RunReport{
		Runner:       r.Name(),
		Instance:     name,
		Converged:    res.Converged,
		Time:         res.Time,
		Delivered:    res.Delivered,
		Messages:     msgs,
		Bytes:        bytes,
		Best:         best,
		Dropped:      res.Dropped,
		Faults:       res.Faults,
		LastFault:    res.LastFault,
		RouteChanges: routeChanges,
		NodeChanges:  nodeChanges,
	}, nil
}

// collectNative reads the compiled nodes' selections into best and flushes
// their protocol counters to the registry, once per run.
func collectNative(nodes map[simnet.NodeID]*pathvector.Node, best map[string]NodeRoute) {
	for id, n := range nodes {
		if rt, ok := n.Best(pathvector.SPPDest); ok {
			best[string(id)] = NodeRoute{Path: pathStrings(rt.Path), Sig: sigString(rt)}
		}
		n.FlushObs()
	}
}

// DeployRunner executes the compiled pathvector protocol over real TCP
// sockets on loopback — the paper's deployment mode. Timing is wall clock;
// link shaping does not apply.
type DeployRunner struct{}

// Name implements Runner.
func (DeployRunner) Name() string { return "tcp" }

// Run implements Runner.
func (d DeployRunner) Run(ctx context.Context, in *spp.Instance, opts RunOptions) (*RunReport, error) {
	opts = opts.withDefaults()
	if !opts.Plan.Empty() {
		return nil, fmt.Errorf("engine: fault plans are not yet supported by the %s backend", d.Name())
	}
	idle := opts.IdleWindow
	if idle <= 0 {
		idle = 200 * time.Millisecond
	}
	dep := simnet.NewDeployment(opts.Collector)
	nodes, err := pathvector.BuildSPPDeployment(dep, in, pathvector.Config{
		BatchInterval: opts.BatchInterval,
		StartStagger:  opts.StartStagger,
	})
	if err != nil {
		return nil, err
	}
	res, err := dep.RunContext(ctx, opts.Horizon, idle)
	if err != nil {
		return nil, err
	}
	best := map[string]NodeRoute{}
	collectNative(nodes, best)
	msgs, bytes := opts.Collector.Totals()
	return &RunReport{
		Runner:    d.Name(),
		Instance:  in.Name,
		Converged: res.Converged,
		Time:      res.Time,
		Messages:  msgs,
		Bytes:     bytes,
		Best:      best,
	}, nil
}

func pathStrings(p []simnet.NodeID) []string {
	out := make([]string, len(p))
	for i, n := range p {
		out[i] = string(n)
	}
	return out
}

func sigString(rt pathvector.Route) string {
	if rt.Sig == nil {
		return ""
	}
	return rt.Sig.String()
}

// Runners returns every built-in runner backend, in preference order.
func Runners() []Runner {
	return []Runner{SimRunner{}, SimRunner{Interpreted: true}, DeployRunner{}}
}

// RunnerByName resolves a backend by its Name; it returns an error naming
// the known backends for an unknown name.
func RunnerByName(name string) (Runner, error) {
	switch name {
	case "", "sim":
		return SimRunner{}, nil
	case "sim-ndlog", "ndlog":
		return SimRunner{Interpreted: true}, nil
	case "tcp", "deploy", "deployment":
		return DeployRunner{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown runner backend %q (have: sim, sim-ndlog, tcp)", name)
	}
}
