package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/engine"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/spp"
	"fsr/internal/topology"
	"fsr/internal/trace"
)

// Figure5Result bundles the §VI-B experiment: iBGP configuration analysis
// on a Rocketfuel-style ISP with an embedded Figure 3 gadget, plus the
// bandwidth comparison of Figure 5.
type Figure5Result struct {
	// Analysis of the extracted SPP instance with the embedded gadget, by
	// spp.Analyze; its Stats.Duration, the reported solver time, is that
	// analysis's dense solve.
	GadgetAnalysis analysis.Result
	// Suspects are the nodes implicated by the unsat core — expected to be
	// the embedded reflectors.
	Suspects []spp.Node
	// EmbeddedReflectors are the routers the gadget was embedded on.
	EmbeddedReflectors []spp.Node
	// FixedAnalysis is the post-fix verification (expected sat).
	FixedAnalysis analysis.Result
	// Gadget and NoGadget are the bandwidth series of Figure 5.
	Gadget, NoGadget []trace.Point
	// GadgetBytes and NoGadgetBytes are total bytes sent.
	GadgetBytes, NoGadgetBytes int64
	// GadgetConv and NoGadgetConv are convergence times (horizon-capped
	// for the oscillating configuration).
	GadgetConv, NoGadgetConv time.Duration
	// Routers and Sessions describe the topology scale.
	Routers, Sessions int
}

// CommReduction returns the percentage decrease in communication overhead
// after the fix (the paper reports ≈91%).
func (r Figure5Result) CommReduction() float64 {
	if r.GadgetBytes == 0 {
		return 0
	}
	return 100 * (1 - float64(r.NoGadgetBytes)/float64(r.GadgetBytes))
}

// ConvReduction returns the percentage decrease in convergence time (the
// paper reports ≈82%).
func (r Figure5Result) ConvReduction() float64 {
	if r.GadgetConv == 0 {
		return 0
	}
	return 100 * (1 - r.NoGadgetConv.Seconds()/r.GadgetConv.Seconds())
}

// String renders the experiment summary and both series.
func (r Figure5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 / §VI-B: iBGP configuration analysis (%d routers, %d sessions)\n", r.Routers, r.Sessions)
	fmt.Fprintf(&b, "gadget instance: %d ranking + %d strict-monotonicity constraints, sat=%v, core=%d, solver=%v\n",
		r.GadgetAnalysis.NumPreference, r.GadgetAnalysis.NumMonotonicity,
		r.GadgetAnalysis.Sat, len(r.GadgetAnalysis.Core), r.GadgetAnalysis.Stats.Duration)
	fmt.Fprintf(&b, "suspect nodes: %v (embedded: %v)\n", r.Suspects, r.EmbeddedReflectors)
	fmt.Fprintf(&b, "fixed instance: sat=%v\n", r.FixedAnalysis.Sat)
	fmt.Fprintf(&b, "bandwidth: gadget %.2f KB total, fixed %.2f KB total (%.0f%% decrease)\n",
		float64(r.GadgetBytes)/1e3, float64(r.NoGadgetBytes)/1e3, r.CommReduction())
	fmt.Fprintf(&b, "convergence: gadget %v, fixed %v (%.0f%% decrease)\n", r.GadgetConv, r.NoGadgetConv, r.ConvReduction())
	b.WriteString("series Gadget (time s, MBps):\n" + trace.FormatSeries(r.Gadget))
	b.WriteString("series NoGadget (time s, MBps):\n" + trace.FormatSeries(r.NoGadget))
	return b.String()
}

// Figure5Options tunes the experiment scale (defaults reproduce §VI-B:
// 87 routers, 322 links, 53 reflectors, 6 levels).
type Figure5Options struct {
	Seed    int64
	ISP     topology.ISPParams
	Batch   time.Duration
	Horizon time.Duration // execution horizon; the gadget run may not converge
	SeriesH time.Duration // figure x-axis span (paper: 0.4 s)
	MaxRank int           // permitted paths kept per router (path harvest cap)
}

// Figure5 reproduces the §VI-B workflow end to end:
//
//  1. generate the ISP topology and iBGP session graph;
//  2. embed the Figure 3 gadget on three connected reflectors and their
//     client egresses;
//  3. run GPV to harvest each router's permitted paths from its incoming
//     advertisements, ranked by IGP path cost (the extraction of §VI-B);
//  4. analyze the extracted SPP instance — unsat, with the minimal core
//     naming the embedded reflectors;
//  5. fix (revert to pure IGP-cost rankings), re-analyze — sat;
//  6. execute both configurations and compare bandwidth and convergence
//     (Figure 5's Gadget vs NoGadget).
func Figure5(opts Figure5Options) (*Figure5Result, error) {
	if opts.Batch == 0 {
		opts.Batch = 10 * time.Millisecond
	}
	if opts.Horizon == 0 {
		opts.Horizon = 2 * time.Second
	}
	if opts.SeriesH == 0 {
		opts.SeriesH = 400 * time.Millisecond
	}
	if opts.MaxRank == 0 {
		opts.MaxRank = 4
	}
	g := topology.GenerateISP(opts.Seed, opts.ISP)
	sessions := g.SessionGraph()

	// Choose the embedding: three reflectors forming a connected triple in
	// the session graph, each with a distinct neighbor as client egress.
	refA, refB, refC, egress, err := chooseEmbedding(g, sessions)
	if err != nil {
		return nil, err
	}
	embedded := []spp.Node{spp.Node(refA), spp.Node(refB), spp.Node(refC)}

	// Harvest permitted paths by executing GPV with the IGP-cost policy
	// (§VI-B: "populate the permitted paths of each router based on its
	// incoming route advertisements").
	links, costs, obs, err := harvestPaths(g, sessions, egress, opts)
	if err != nil {
		return nil, err
	}
	ranker := spp.IGPCostRanker(costs)
	fixedInst, err := spp.Extract("isp-igp", links, costs, obs, ranker)
	if err != nil {
		return nil, err
	}
	capRankings(fixedInst, opts.MaxRank)

	gadgetInst, err := spp.Extract("isp-gadget", links, costs, obs, ranker)
	if err != nil {
		return nil, err
	}
	capRankings(gadgetInst, opts.MaxRank)
	embedGadget(gadgetInst, refA, refB, refC, egress)

	res := &Figure5Result{
		Routers:            len(g.Routers),
		Sessions:           len(sessions),
		EmbeddedReflectors: embedded,
	}

	// Analysis.
	ctx := context.TODO()
	res.GadgetAnalysis, res.Suspects, err = spp.Analyze(ctx, gadgetInst)
	if err != nil {
		return nil, err
	}
	res.FixedAnalysis, _, err = spp.Analyze(ctx, fixedInst)
	if err != nil {
		return nil, err
	}

	// Execution: Figure 5's bandwidth comparison.
	res.Gadget, res.GadgetBytes, res.GadgetConv, err = runInstance(gadgetInst, opts)
	if err != nil {
		return nil, err
	}
	res.NoGadget, res.NoGadgetBytes, res.NoGadgetConv, err = runInstance(fixedInst, opts)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// chooseEmbedding finds three mutually reachable reflectors and one
// distinct client neighbor each; missing triangle sessions are added by the
// embedding itself (the paper "embeds a gadget similar to Figure 3").
func chooseEmbedding(g *topology.RouterGraph, sessions []topology.WLink) (a, b, c string, egress map[string]string, err error) {
	adj := map[string]map[string]bool{}
	for _, l := range sessions {
		if adj[l.A] == nil {
			adj[l.A] = map[string]bool{}
		}
		if adj[l.B] == nil {
			adj[l.B] = map[string]bool{}
		}
		adj[l.A][l.B] = true
		adj[l.B][l.A] = true
	}
	var reflectors []string
	for r := range g.ReflectorLevel {
		reflectors = append(reflectors, r)
	}
	sort.Strings(reflectors)
	pickClient := func(r string, taken map[string]bool) string {
		var ns []string
		for n := range adj[r] {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		for _, n := range ns {
			if !taken[n] {
				return n
			}
		}
		return ""
	}
	for _, ra := range reflectors {
		var nbs []string
		for n := range adj[ra] {
			if _, isRef := g.ReflectorLevel[n]; isRef {
				nbs = append(nbs, n)
			}
		}
		sort.Strings(nbs)
		for _, rb := range nbs {
			for _, rc := range nbs {
				if rb >= rc {
					continue
				}
				taken := map[string]bool{ra: true, rb: true, rc: true}
				ca := pickClient(ra, taken)
				taken[ca] = true
				cb := pickClient(rb, taken)
				taken[cb] = true
				cc := pickClient(rc, taken)
				if ca != "" && cb != "" && cc != "" {
					return ra, rb, rc, map[string]string{ra: ca, rb: cb, rc: cc}, nil
				}
			}
		}
	}
	return "", "", "", nil, fmt.Errorf("experiments: no embedding site found in session graph")
}

// harvestPaths runs the IGP-cost GPV over the session graph, recording
// every imported advertisement.
func harvestPaths(g *topology.RouterGraph, sessions []topology.WLink, egress map[string]string, opts Figure5Options) ([]spp.Link, map[spp.Link]int, []spp.Observation, error) {
	weight := map[[2]string]int{}
	var links []spp.Link
	costs := map[spp.Link]int{}
	for _, l := range sessions {
		weight[[2]string{l.A, l.B}] = l.Weight
		weight[[2]string{l.B, l.A}] = l.Weight
		links = append(links, spp.Link{From: spp.Node(l.A), To: spp.Node(l.B)}, spp.Link{From: spp.Node(l.B), To: spp.Node(l.A)})
		costs[spp.Link{From: spp.Node(l.A), To: spp.Node(l.B)}] = l.Weight
		costs[spp.Link{From: spp.Node(l.B), To: spp.Node(l.A)}] = l.Weight
	}
	alg := algebra.IGPCost{}
	var obs []spp.Observation
	base := pathvector.Config{
		Algebra: alg,
		Label: func(from, to simnet.NodeID) algebra.Label {
			w := weight[[2]string{string(from), string(to)}]
			if w == 0 {
				w = 1
			}
			return algebra.LNum(w)
		},
		BatchInterval: opts.Batch,
		StartStagger:  opts.Batch / 2,
		MaxPathLen:    8,
		OnAdvert: func(node simnet.NodeID, rt pathvector.Route) {
			p := make(spp.Path, len(rt.Path))
			for i, h := range rt.Path {
				p[i] = spp.Node(h)
			}
			obs = append(obs, spp.Observation{Node: spp.Node(node), Path: p})
		},
	}
	net := simnet.New(opts.Seed+17, nil)
	inSession := map[string]bool{}
	for _, l := range sessions {
		inSession[l.A] = true
		inSession[l.B] = true
	}
	tokens := []string{"r1", "r2", "r3"}
	ti := 0
	egressToken := map[string]string{}
	var egressNames []string
	for _, e := range egress {
		egressNames = append(egressNames, e)
	}
	sort.Strings(egressNames)
	for _, e := range egressNames {
		egressToken[e] = tokens[ti%len(tokens)]
		ti++
	}
	for _, r := range g.Routers {
		if !inSession[r] {
			continue
		}
		cfg := base
		if tok, isEgress := egressToken[r]; isEgress {
			cfg.Originations = []pathvector.Route{{
				Dest: pathvector.SPPDest,
				Path: []simnet.NodeID{simnet.NodeID(r), simnet.NodeID(tok)},
				Sig:  algebra.Num(1),
			}}
			// The egress also observes its own externally learned route.
			obs = append(obs, spp.Observation{Node: spp.Node(r), Path: spp.P(r, tok)})
		}
		if err := net.AddNode(simnet.NodeID(r), pathvector.NewNode(cfg)); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, l := range sessions {
		if err := net.Connect(simnet.NodeID(l.A), simnet.NodeID(l.B), simnet.DefaultLink()); err != nil {
			return nil, nil, nil, err
		}
	}
	net.Run(opts.Horizon * 2)
	return links, costs, obs, nil
}

// capRankings keeps only the top-k permitted paths per node.
func capRankings(in *spp.Instance, k int) {
	for n, paths := range in.Permitted {
		if len(paths) > k {
			in.Permitted[n] = paths[:k]
		}
	}
}

// embedGadget overrides the rankings of the three chosen reflectors and
// their client egresses with the Figure 3 preference cycle: each reflector
// prefers the route through the next reflector's client over its own
// client's route.
func embedGadget(in *spp.Instance, ra, rb, rc string, egress map[string]string) {
	ca, cb, cc := egress[ra], egress[rb], egress[rc]
	token := func(c string) string {
		for _, p := range in.Permitted[spp.Node(c)] {
			if len(p) == 2 {
				return string(p[1])
			}
		}
		return "r1"
	}
	ta, tb, tc := token(ca), token(cb), token(cc)
	// Sessions the gadget needs (reflector triangle and client legs) are
	// part of the embedding.
	ensure := func(a, b string) {
		if !in.HasLink(spp.Node(a), spp.Node(b)) {
			in.AddSession(spp.Node(a), spp.Node(b), 10)
		}
	}
	ensure(ra, rb)
	ensure(rb, rc)
	ensure(rc, ra)
	ensure(ra, ca)
	ensure(rb, cb)
	ensure(rc, cc)
	in.Rank(spp.Node(ra), spp.P(ra, rb, cb, tb), spp.P(ra, ca, ta))
	in.Rank(spp.Node(rb), spp.P(rb, rc, cc, tc), spp.P(rb, cb, tb))
	in.Rank(spp.Node(rc), spp.P(rc, ra, ca, ta), spp.P(rc, cc, tc))
	in.Rank(spp.Node(ca), spp.P(ca, ta), spp.P(ca, ra, rb, cb, tb))
	in.Rank(spp.Node(cb), spp.P(cb, tb), spp.P(cb, rb, rc, cc, tc))
	in.Rank(spp.Node(cc), spp.P(cc, tc), spp.P(cc, rc, ra, ca, ta))
}

// runInstance executes an SPP instance under GPV and reports its bandwidth
// series, total bytes, and (horizon-capped) convergence time.
func runInstance(in *spp.Instance, opts Figure5Options) ([]trace.Point, int64, time.Duration, error) {
	col := trace.NewCollector(10 * time.Millisecond)
	rep, err := engine.SimRunner{}.Run(context.TODO(), in, engine.RunOptions{
		Seed:          opts.Seed + 29,
		Link:          simnet.LinkConfig{Latency: 10 * time.Millisecond, Jitter: 3 * time.Millisecond, Bandwidth: 100e6},
		BatchInterval: opts.Batch,
		StartStagger:  opts.Batch / 2,
		Horizon:       opts.Horizon,
		Collector:     col,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return col.BandwidthSeries(len(in.Nodes), opts.SeriesH), rep.Bytes, rep.Time, nil
}
