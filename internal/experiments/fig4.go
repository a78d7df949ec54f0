// Package experiments implements one runner per table and figure of the
// paper's evaluation (§VI), producing the same rows and series the paper
// reports. Each runner is deterministic in its seed and returns structured
// results that the CLI renders and the test suite asserts shape properties
// on (who wins, trends, crossovers) — absolute constants belong to the
// authors' testbed, not to this substrate.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/topology"
)

// Figure4Row is one point of Figure 4: convergence time against the length
// of the longest customer-provider chain.
type Figure4Row struct {
	Depth     int
	Nodes     int
	SimTime   time.Duration // CAIDA-Sim series
	TestTime  time.Duration // CAIDA-Testbed series (deployment mode); 0 when skipped
	WorstCase time.Duration // theoretical bound 2×(d+1) phases
	Converged bool
}

// Figure4Result is the full figure.
type Figure4Result struct {
	Rows  []Figure4Row
	Batch time.Duration
}

// String renders the figure's data as the paper's plot series.
func (r Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: convergence time vs longest customer-provider chain (batch %v)\n", r.Batch)
	fmt.Fprintf(&b, "%-6s %-6s %-12s %-14s %-12s\n", "chain", "nodes", "CAIDA-Sim", "CAIDA-Testbed", "WorstCase")
	for _, row := range r.Rows {
		tb := "-"
		if row.TestTime > 0 {
			tb = fmt.Sprintf("%.2fs", row.TestTime.Seconds())
		}
		fmt.Fprintf(&b, "%-6d %-6d %-12s %-14s %-12s\n", row.Depth, row.Nodes,
			fmt.Sprintf("%.2fs", row.SimTime.Seconds()), tb,
			fmt.Sprintf("%.2fs", row.WorstCase.Seconds()))
	}
	return b.String()
}

// Figure4Options tunes the experiment. The paper uses depths 3–16 and a 1 s
// propagation batch; tests shrink both to stay fast.
type Figure4Options struct {
	Seed       int64
	Depths     []int
	Batch      time.Duration
	Deployment bool // also run the CAIDA-Testbed series over real sockets
}

// Figure4 reproduces §VI-A: the Gao-Rexford guideline A composed with
// shortest hop-count (proven safe in §IV-C) executed as GPV over annotated
// AS hierarchies of increasing depth, against the theoretical worst case of
// 2×(d+1) phases (Sami, Schapira, Zohar).
func Figure4(opts Figure4Options) (Figure4Result, error) {
	if len(opts.Depths) == 0 {
		opts.Depths = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	}
	if opts.Batch == 0 {
		opts.Batch = time.Second
	}
	res := Figure4Result{Batch: opts.Batch}
	for _, depth := range opts.Depths {
		g := topology.GenerateHierarchy(opts.Seed+int64(depth), topology.HierarchyParams{Depth: depth})
		row := Figure4Row{
			Depth:     depth,
			Nodes:     len(g.Nodes),
			WorstCase: time.Duration(2*(depth+1)) * opts.Batch,
		}
		simTime, converged, err := runGaoRexfordSim(g, opts.Batch, row.WorstCase*4)
		if err != nil {
			return res, err
		}
		row.SimTime, row.Converged = simTime, converged
		if opts.Deployment {
			tb, err := runGaoRexfordDeployment(g, opts.Batch, row.WorstCase*4)
			if err != nil {
				return res, err
			}
			row.TestTime = tb
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// gaoRexfordConfig builds the per-node GPV configuration for an annotated
// AS graph under guideline A ⊗ hop count.
func gaoRexfordConfig(g *topology.ASGraph, batch time.Duration) (algebra.Algebra, func(from, to simnet.NodeID) algebra.Label, pathvector.Config) {
	alg := algebra.GaoRexfordWithHopCount()
	label := func(from, to simnet.NodeID) algebra.Label {
		class := g.Class(string(from), string(to))
		var l algebra.Label
		switch class {
		case "c":
			l = algebra.LabC
		case "p":
			l = algebra.LabP
		default:
			l = algebra.LabR
		}
		return algebra.LabelPair{A: l, B: algebra.LNum(1)}
	}
	base := pathvector.Config{
		Algebra:       alg,
		Label:         label,
		SelfOriginate: true,
		BatchInterval: batch,
		StartStagger:  batch / 4,
	}
	return alg, label, base
}

// runGaoRexfordSim executes the workload in simulation mode.
func runGaoRexfordSim(g *topology.ASGraph, batch, horizon time.Duration) (time.Duration, bool, error) {
	_, _, base := gaoRexfordConfig(g, batch)
	net := simnet.New(7, nil)
	for _, n := range g.Nodes {
		if err := net.AddNode(simnet.NodeID(n), pathvector.NewNode(base)); err != nil {
			return 0, false, err
		}
	}
	for _, e := range g.Edges {
		if err := net.Connect(simnet.NodeID(e.A), simnet.NodeID(e.B), simnet.DefaultLink()); err != nil {
			return 0, false, err
		}
	}
	res := net.Run(horizon)
	return res.Time, res.Converged, nil
}

// runGaoRexfordDeployment executes the same workload over loopback TCP
// (RapidNet deployment mode).
func runGaoRexfordDeployment(g *topology.ASGraph, batch, horizon time.Duration) (time.Duration, error) {
	_, _, base := gaoRexfordConfig(g, batch)
	dep := simnet.NewDeployment(nil)
	for _, n := range g.Nodes {
		if err := dep.AddNode(simnet.NodeID(n), pathvector.NewNode(base)); err != nil {
			return 0, err
		}
	}
	for _, e := range g.Edges {
		if err := dep.Connect(simnet.NodeID(e.A), simnet.NodeID(e.B)); err != nil {
			return 0, err
		}
	}
	res, err := dep.Run(horizon, batch/2)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}
