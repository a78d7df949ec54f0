package engine

import (
	"time"

	"fsr/internal/algebra"
	"fsr/internal/ndlog"
	"fsr/internal/simnet"
	"fsr/internal/spp"
)

// SPPDest is the implicit destination used when executing an SPP instance,
// matching the native GPV runner.
const SPPDest = "_dest"

// BuildSPP wires an NDlog-interpreted GPV network for an SPP instance: it
// generates the GPV program from the instance's algebra (spp.NewTable, §V-B)
// and installs each node's step-4 configuration tuples — label rows for its
// links and sig rows for its externally learned routes. An instance NewTable
// rejects fails with its error.
func BuildSPP(net *simnet.Network, in *spp.Instance, link simnet.LinkConfig, batch, stagger time.Duration) (map[simnet.NodeID]*Node, error) {
	t, err := spp.NewTable(in)
	if err != nil {
		return nil, err
	}
	return buildNDlog(net, in, t, t.LabelOf, t.Originations(), link, batch, stagger)
}

// buildNDlog is BuildSPP on a given algebra of the instance: labelOf labels
// its links and origs are its originations.
func buildNDlog(net *simnet.Network, in *spp.Instance, alg algebra.Algebra, labelOf func(spp.Link) algebra.Label, origs []spp.Origination, link simnet.LinkConfig, batch, stagger time.Duration) (map[simnet.NodeID]*Node, error) {
	prog, err := ndlog.Generate(alg)
	if err != nil {
		return nil, err
	}
	initial := map[spp.Node][]Tuple{}
	for _, l := range in.Links {
		initial[l.From] = append(initial[l.From], Tuple{
			Pred: "label",
			Args: []ndlog.Value{string(l.From), string(l.To), labelOf(l).String()},
		})
	}
	for _, o := range origs {
		path := make(ndlog.List, len(o.Path))
		for i, n := range o.Path {
			path[i] = string(n)
		}
		initial[o.Node] = append(initial[o.Node], Tuple{
			Pred: "sig",
			Args: []ndlog.Value{string(o.Node), string(o.Node), SPPDest, o.Sig.String(), path},
		})
	}

	nodes := map[simnet.NodeID]*Node{}
	for _, n := range in.Nodes {
		en, err := NewNode(Config{
			Program:       prog,
			Initial:       initial[n],
			BatchInterval: batch,
			StartStagger:  stagger,
		})
		if err != nil {
			return nil, err
		}
		nodes[simnet.NodeID(n)] = en
		if err := net.AddNode(simnet.NodeID(n), en); err != nil {
			return nil, err
		}
	}
	for _, l := range in.Sessions() {
		if err := net.Connect(simnet.NodeID(l.From), simnet.NodeID(l.To), link); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// BestPath reads a node's selected path for dest from its localOpt table,
// the NDlog counterpart of pathvector.Node.Best.
func (n *Node) BestPath(dest string) ([]string, string, bool) {
	for _, row := range n.Table("localOpt") {
		if len(row) != 4 {
			continue
		}
		if d, ok := row[1].(string); !ok || d != dest {
			continue
		}
		sig, _ := row[2].(string)
		list, _ := row[3].(ndlog.List)
		path := make([]string, len(list))
		for i, v := range list {
			path[i], _ = v.(string)
		}
		return path, sig, true
	}
	return nil, "", false
}
