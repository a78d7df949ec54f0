package engine

import (
	"context"
	"fmt"

	"fsr/internal/algebra"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/spp"
)

// The reference execution: SimRunner.Run as it ran on ToAlgebra's Tabular.
// Compiled nodes are wired from the conversion — conv.LabelOf, a SigCodec
// over conv.Algebra, conv.Originations() — and interpreted nodes run the
// NDlog program generated from it. Whatever algebra the conversion carries
// runs, so a test may rebuild it with entries an instance cannot state.

// tabularNodes builds one compiled node per instance node on conv.Algebra.
func tabularNodes(conv *spp.Conversion, base pathvector.Config) map[simnet.NodeID]*pathvector.Node {
	label := func(from, to simnet.NodeID) algebra.Label {
		l := conv.LabelOf[spp.Link{From: spp.Node(from), To: spp.Node(to)}]
		if l == nil {
			panic(fmt.Sprintf("no label for link %s→%s", from, to))
		}
		return l
	}
	codec := pathvector.NewSigCodec(conv.Algebra)
	origs := map[spp.Node][]pathvector.Route{}
	for _, o := range conv.Originations() {
		path := make([]simnet.NodeID, len(o.Path))
		for i, n := range o.Path {
			path[i] = simnet.NodeID(n)
		}
		origs[o.Node] = append(origs[o.Node], pathvector.Route{Dest: pathvector.SPPDest, Path: path, Sig: o.Sig})
	}
	nodes := map[simnet.NodeID]*pathvector.Node{}
	for _, n := range conv.Instance.Nodes {
		cfg := base
		cfg.Algebra = conv.Algebra
		cfg.Label = label
		cfg.Originations = origs[n]
		cfg.SigFromKey = codec.FromKey
		nodes[simnet.NodeID(n)] = pathvector.NewNode(cfg)
	}
	return nodes
}

// runTabular is r.Run on a conversion: the NDlog nodes when r.Interpreted,
// otherwise tabularNodes under opts.Plan, through the runner's own event
// loop and report.
func runTabular(ctx context.Context, r SimRunner, conv *spp.Conversion, opts RunOptions) (*RunReport, error) {
	opts = opts.withDefaults()
	net := simnet.New(opts.Seed, opts.Collector)
	name := conv.Instance.Name
	if r.Interpreted {
		interp, err := BuildSPP(net, conv, opts.Link, opts.BatchInterval, opts.StartStagger)
		if err != nil {
			return nil, err
		}
		return r.simulate(ctx, net, name, nil, interp, opts)
	}
	native := tabularNodes(conv, pathvector.Config{BatchInterval: opts.BatchInterval, StartStagger: opts.StartStagger})
	for _, n := range conv.Instance.Nodes {
		if err := net.AddNode(simnet.NodeID(n), native[simnet.NodeID(n)]); err != nil {
			return nil, err
		}
	}
	for _, l := range conv.Instance.Sessions() {
		if err := net.Connect(simnet.NodeID(l.From), simnet.NodeID(l.To), opts.Link); err != nil {
			return nil, err
		}
	}
	if !opts.Plan.Empty() {
		applyPlan(net, native, opts.Plan)
	}
	return r.simulate(ctx, net, name, native, nil, opts)
}
