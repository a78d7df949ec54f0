package engine

import (
	"testing"
	"time"

	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/spp"
)

func runNDlogSPP(t *testing.T, in *spp.Instance, horizon time.Duration) (map[simnet.NodeID]*Node, simnet.RunResult) {
	t.Helper()
	conv, err := in.ToAlgebra()
	if err != nil {
		t.Fatalf("ToAlgebra(%s): %v", in.Name, err)
	}
	net := simnet.New(1, nil)
	nodes, err := BuildSPP(net, conv, simnet.DefaultLink(), 20*time.Millisecond, 15*time.Millisecond)
	if err != nil {
		t.Fatalf("BuildSPP(%s): %v", in.Name, err)
	}
	return nodes, net.Run(horizon)
}

// TestNDlogGoodGadget: the NDlog-interpreted GPV reaches the same stable
// selections as the native GPV on GOODGADGET.
func TestNDlogGoodGadget(t *testing.T) {
	nodes, res := runNDlogSPP(t, spp.GoodGadget(), 10*time.Second)
	if !res.Converged {
		t.Fatalf("NDlog GOODGADGET should converge")
	}
	path, sig, ok := nodes["1"].BestPath(SPPDest)
	if !ok {
		t.Fatalf("node 1 has no localOpt")
	}
	if sig != "r_13r3" {
		t.Errorf("node 1 selected signature %s, want r_13r3 (path %v)", sig, path)
	}
}

// TestNDlogBadGadgetOscillates: BADGADGET oscillates under the NDlog
// runtime too.
func TestNDlogBadGadgetOscillates(t *testing.T) {
	_, res := runNDlogSPP(t, spp.BadGadget(), 2*time.Second)
	if res.Converged {
		t.Fatalf("NDlog BADGADGET should not converge")
	}
}

// TestNDlogMatchesNative runs the NDlog-interpreted and native GPV on the
// same instances and compares the final selection at every node — the
// implementation-equivalence check backing the §V correctness argument
// (Theorem 5.1: the generated NDlog program computes the same signatures).
func TestNDlogMatchesNative(t *testing.T) {
	for _, mk := range []func() *spp.Instance{
		spp.GoodGadget,
		spp.Figure3IBGPFixed,
		func() *spp.Instance { return spp.ChainGadget(6) },
	} {
		in := mk()
		ndNodes, ndRes := runNDlogSPP(t, in, 20*time.Second)
		if !ndRes.Converged {
			t.Fatalf("%s: NDlog run did not converge", in.Name)
		}

		net := simnet.New(1, nil)
		natNodes, err := pathvector.BuildSPP(net, mk(), simnet.DefaultLink(), pathvector.Config{
			BatchInterval: 20 * time.Millisecond,
			StartStagger:  15 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: BuildSPP: %v", in.Name, err)
		}
		natRes := net.Run(20 * time.Second)
		if !natRes.Converged {
			t.Fatalf("%s: native run did not converge", in.Name)
		}

		for _, n := range in.Nodes {
			id := simnet.NodeID(n)
			natBest, natOK := natNodes[id].Best(pathvector.SPPDest)
			ndPath, ndSig, ndOK := ndNodes[id].BestPath(SPPDest)
			if natOK != ndOK {
				t.Errorf("%s node %s: native has route=%v, NDlog has route=%v", in.Name, n, natOK, ndOK)
				continue
			}
			if !natOK {
				continue
			}
			if got, want := ndSig, natBest.Sig.String(); got != want {
				t.Errorf("%s node %s: NDlog sig %s, native sig %s", in.Name, n, got, want)
			}
			if len(ndPath) != len(natBest.Path) {
				t.Errorf("%s node %s: NDlog path %v, native path %v", in.Name, n, ndPath, natBest.Path)
			}
		}
	}
}
