package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/hlp"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/trace"
)

// Figure6Result is the §VI-D alternative-mechanism comparison: path vector
// vs HLP vs HLP with cost hiding on a 10-domain hierarchy network.
type Figure6Result struct {
	// PV, HLP and HLPCH are the bandwidth series of Figure 6.
	PV, HLP, HLPCH []trace.Point
	// Convergence times per mechanism.
	PVConv, HLPConv, HLPCHConv time.Duration
	// Per-node communication cost in bytes (paper: PV 1.75 MB, HLP
	// 1.09 MB, HLP-CH 0.59 MB).
	PVBytes, HLPBytes, HLPCHBytes float64
	// Topology scale.
	Nodes, Domains, CrossLinks int
}

// String renders the comparison.
func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 / §VI-D: %d domains, %d nodes, %d cross-domain links\n", r.Domains, r.Nodes, r.CrossLinks)
	fmt.Fprintf(&b, "%-8s %-14s %-16s\n", "proto", "convergence", "per-node bytes")
	fmt.Fprintf(&b, "%-8s %-14v %-16.0f\n", "PV", r.PVConv, r.PVBytes)
	fmt.Fprintf(&b, "%-8s %-14v %-16.0f\n", "HLP", r.HLPConv, r.HLPBytes)
	fmt.Fprintf(&b, "%-8s %-14v %-16.0f\n", "HLP-CH", r.HLPCHConv, r.HLPCHBytes)
	b.WriteString("series PV (time s, MBps):\n" + trace.FormatSeries(r.PV))
	b.WriteString("series HLP (time s, MBps):\n" + trace.FormatSeries(r.HLP))
	b.WriteString("series HLP-CH (time s, MBps):\n" + trace.FormatSeries(r.HLPCH))
	return b.String()
}

// Figure6Options tunes the experiment (defaults reproduce §VI-D: 10
// domains of 20 nodes, 84 cross-domain links, 10/50 ms latencies, cost
// hiding threshold 5).
type Figure6Options struct {
	Seed       int64
	Domains    int
	DomainSize int
	CrossLinks int
	Hiding     int
	Batch      time.Duration
	Horizon    time.Duration
	SeriesH    time.Duration
	IntraLat   time.Duration
	CrossLat   time.Duration
}

// hierNet is the generated 10-domain topology.
type hierNet struct {
	nodes      []string // all node names
	domainOf   map[string]string
	roots      []string // one top provider per domain
	intraLinks [][2]string
	intraW     map[[2]string]int
	crossLinks [][2]string
}

// buildHierNet synthesizes the §VI-D topology: each domain is a 20-node
// acyclic hierarchy rooted at a top provider (every other node has 1–2
// providers), plus cross-domain links.
func buildHierNet(opts Figure6Options) *hierNet {
	rng := rand.New(rand.NewSource(opts.Seed))
	h := &hierNet{domainOf: map[string]string{}, intraW: map[[2]string]int{}}
	for d := 0; d < opts.Domains; d++ {
		dom := fmt.Sprintf("D%d", d)
		var members []string
		for i := 0; i < opts.DomainSize; i++ {
			n := fmt.Sprintf("%s_n%02d", dom, i)
			members = append(members, n)
			h.nodes = append(h.nodes, n)
			h.domainOf[n] = dom
			if i == 0 {
				h.roots = append(h.roots, n)
				continue
			}
			// One or two providers among earlier members: acyclic, rooted.
			p1 := members[rng.Intn(i)]
			h.addIntra(p1, n, 1+rng.Intn(5))
			if i > 1 && rng.Float64() < 0.5 {
				p2 := members[rng.Intn(i)]
				if p2 != p1 {
					h.addIntra(p2, n, 1+rng.Intn(5))
				}
			}
		}
	}
	// Cross-domain links between random members of distinct domains.
	have := map[[2]string]bool{}
	for len(h.crossLinks) < opts.CrossLinks {
		a := h.nodes[rng.Intn(len(h.nodes))]
		b := h.nodes[rng.Intn(len(h.nodes))]
		if h.domainOf[a] == h.domainOf[b] {
			continue
		}
		k := [2]string{a, b}
		if a > b {
			k = [2]string{b, a}
		}
		if have[k] {
			continue
		}
		have[k] = true
		h.crossLinks = append(h.crossLinks, k)
	}
	return h
}

func (h *hierNet) addIntra(a, b string, w int) {
	for _, l := range h.intraLinks {
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			return
		}
	}
	h.intraLinks = append(h.intraLinks, [2]string{a, b})
	h.intraW[[2]string{a, b}] = w
	h.intraW[[2]string{b, a}] = w
}

// Figure6 runs the three mechanisms over the same topology and workload
// (routes to each domain's top provider) and reports the Figure 6 series.
func Figure6(opts Figure6Options) (*Figure6Result, error) {
	if opts.Domains == 0 {
		opts.Domains = 10
	}
	if opts.DomainSize == 0 {
		opts.DomainSize = 20
	}
	if opts.CrossLinks == 0 {
		opts.CrossLinks = 84
	}
	if opts.Hiding == 0 {
		opts.Hiding = 5
	}
	if opts.Batch == 0 {
		opts.Batch = 10 * time.Millisecond
	}
	if opts.Horizon == 0 {
		opts.Horizon = 5 * time.Second
	}
	if opts.SeriesH == 0 {
		opts.SeriesH = 400 * time.Millisecond
	}
	if opts.IntraLat == 0 {
		opts.IntraLat = 10 * time.Millisecond
	}
	if opts.CrossLat == 0 {
		opts.CrossLat = 50 * time.Millisecond
	}
	h := buildHierNet(opts)
	res := &Figure6Result{
		Nodes:      len(h.nodes),
		Domains:    opts.Domains,
		CrossLinks: len(h.crossLinks),
	}
	var err error
	if res.PV, res.PVConv, res.PVBytes, err = runPV(h, opts); err != nil {
		return nil, err
	}
	if res.HLP, res.HLPConv, res.HLPBytes, err = runHLP(h, opts, 0); err != nil {
		return nil, err
	}
	if res.HLPCH, res.HLPCHConv, res.HLPCHBytes, err = runHLP(h, opts, opts.Hiding); err != nil {
		return nil, err
	}
	return res, nil
}

// connectAll wires the topology into a network with the two latency
// classes.
func connectAll(h *hierNet, opts Figure6Options, add func(a, b string, cfg simnet.LinkConfig) error) error {
	intra := simnet.LinkConfig{Latency: opts.IntraLat, Bandwidth: 100e6}
	cross := simnet.LinkConfig{Latency: opts.CrossLat, Bandwidth: 100e6}
	for _, l := range h.intraLinks {
		if err := add(l[0], l[1], intra); err != nil {
			return err
		}
	}
	for _, l := range h.crossLinks {
		if err := add(l[0], l[1], cross); err != nil {
			return err
		}
	}
	return nil
}

// runPV executes the plain path-vector baseline: weighted shortest-path
// GPV in which every router is a destination, the workload BGP-like path
// vector actually carries (it scales with prefixes, where HLP scales with
// domains — the premise of §VI-D's comparison).
func runPV(h *hierNet, opts Figure6Options) ([]trace.Point, time.Duration, float64, error) {
	col := trace.NewCollector(10 * time.Millisecond)
	net := simnet.New(opts.Seed+3, col)
	alg := algebra.IGPCost{}
	label := func(from, to simnet.NodeID) algebra.Label {
		if w, ok := h.intraW[[2]string{string(from), string(to)}]; ok {
			return algebra.LNum(w)
		}
		return algebra.LNum(10) // cross-domain links
	}
	for _, n := range h.nodes {
		cfg := pathvector.Config{
			Algebra:       alg,
			Label:         label,
			SelfOriginate: true,
			BatchInterval: opts.Batch,
			StartStagger:  opts.Batch / 2,
		}
		if err := net.AddNode(simnet.NodeID(n), pathvector.NewNode(cfg)); err != nil {
			return nil, 0, 0, err
		}
	}
	err := connectAll(h, opts, func(a, b string, cfg simnet.LinkConfig) error {
		return net.Connect(simnet.NodeID(a), simnet.NodeID(b), cfg)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	run := net.Run(opts.Horizon)
	_, bytes := col.Totals()
	return col.BandwidthSeries(len(h.nodes), opts.SeriesH), run.Time, float64(bytes) / float64(len(h.nodes)), nil
}

// runHLP executes HLP with the given cost-hiding threshold.
func runHLP(h *hierNet, opts Figure6Options, hiding int) ([]trace.Point, time.Duration, float64, error) {
	col := trace.NewCollector(10 * time.Millisecond)
	net := simnet.New(opts.Seed+5, col)
	domainRoot := map[string]bool{}
	for _, r := range h.roots {
		domainRoot[r] = true
	}
	neighborsOf := map[string]map[string]int{}
	addNb := func(a, b string, w int) {
		if neighborsOf[a] == nil {
			neighborsOf[a] = map[string]int{}
		}
		neighborsOf[a][b] = w
	}
	for _, l := range h.intraLinks {
		w := h.intraW[[2]string{l[0], l[1]}]
		addNb(l[0], l[1], w)
		addNb(l[1], l[0], w)
	}
	for _, l := range h.crossLinks {
		addNb(l[0], l[1], 10)
		addNb(l[1], l[0], 10)
	}
	for _, n := range h.nodes {
		domOf := map[simnet.NodeID]string{}
		weight := map[simnet.NodeID]int{}
		for nb, w := range neighborsOf[n] {
			domOf[simnet.NodeID(nb)] = h.domainOf[nb]
			weight[simnet.NodeID(nb)] = w
		}
		cfg := hlp.Config{
			Domain:        h.domainOf[n],
			DomainOf:      domOf,
			Weight:        weight,
			CostHiding:    hiding,
			BatchInterval: opts.Batch,
			StartStagger:  opts.Batch / 2,
		}
		if domainRoot[n] {
			cfg.OriginDomains = []string{h.domainOf[n]}
		}
		if err := net.AddNode(simnet.NodeID(n), hlp.NewNode(cfg)); err != nil {
			return nil, 0, 0, err
		}
	}
	err := connectAll(h, opts, func(a, b string, cfg simnet.LinkConfig) error {
		return net.Connect(simnet.NodeID(a), simnet.NodeID(b), cfg)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	run := net.Run(opts.Horizon)
	_, bytes := col.Totals()
	return col.BandwidthSeries(len(h.nodes), opts.SeriesH), run.Time, float64(bytes) / float64(len(h.nodes)), nil
}
