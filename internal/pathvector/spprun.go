package pathvector

import (
	"fmt"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
	"fsr/internal/spp"
)

// SPPDest is the implicit destination used when executing an SPP instance:
// all externally learned routes (r1, r2, …) reach the same destination
// outside the modeled network.
const SPPDest simnet.NodeID = "_dest"

// BuildSPP wires a GPV network for an SPP instance onto an existing
// simulated network: one node per real instance node, one link per session,
// originations from the instance's egress paths, and the instance's
// execution table (spp.NewTable) as policy, failing with ToAlgebra's error
// on an instance that has no algebra. base supplies the runtime knobs
// (batching, stagger, hooks); policy fields are filled in per node. It
// returns the protocol nodes for post-run inspection.
func BuildSPP(net *simnet.Network, in *spp.Instance, link simnet.LinkConfig, base Config) (map[simnet.NodeID]*Node, error) {
	return buildSPP(in, base, net.AddNode, func(a, b simnet.NodeID) error { return net.Connect(a, b, link) })
}

// BuildSPPDeployment wires a GPV deployment (real TCP sockets) for an SPP
// instance — the same per-node configuration BuildSPP derives, attached to
// the deployment runtime instead of the simulator.
func BuildSPPDeployment(dep *simnet.Deployment, in *spp.Instance, base Config) (map[simnet.NodeID]*Node, error) {
	return buildSPP(in, base, dep.AddNode, dep.Connect)
}

// buildSPP builds one node per instance node on the instance's execution
// table — its labels, its originations, its signature names for decoding
// adverts — attaching each with add, then connects every session.
func buildSPP(in *spp.Instance, base Config, add func(simnet.NodeID, simnet.Handler) error, connect func(a, b simnet.NodeID) error) (map[simnet.NodeID]*Node, error) {
	t, err := spp.NewTable(in)
	if err != nil {
		return nil, err
	}
	label := func(from, to simnet.NodeID) algebra.Label {
		l := t.LabelOf(spp.Link{From: spp.Node(from), To: spp.Node(to)})
		if l == nil {
			panic(fmt.Sprintf("pathvector: no label for link %s→%s", from, to))
		}
		return l
	}
	origs := map[spp.Node][]Route{}
	for _, o := range t.Originations() {
		path := make([]simnet.NodeID, len(o.Path))
		for i, n := range o.Path {
			path[i] = simnet.NodeID(n)
		}
		origs[o.Node] = append(origs[o.Node], Route{Dest: SPPDest, Path: path, Sig: o.Sig})
	}
	sigByName := t.SigByName
	nodes := map[simnet.NodeID]*Node{}
	for _, n := range in.Nodes {
		cfg := base
		cfg.Algebra = t
		cfg.Label = label
		cfg.Originations = origs[n]
		cfg.SelfOriginate = false
		cfg.SigFromKey = sigByName
		id := simnet.NodeID(n)
		nodes[id] = NewNode(cfg)
		if err := add(id, nodes[id]); err != nil {
			return nil, err
		}
	}
	for _, s := range in.Sessions() {
		if err := connect(simnet.NodeID(s.From), simnet.NodeID(s.To)); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}
