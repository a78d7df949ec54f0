package pathvector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/simnet"
	"fsr/internal/spp"
)

// runSPP executes an SPP instance under GPV in simulation mode.
func runSPP(t *testing.T, in *spp.Instance, base Config, horizon time.Duration) (map[simnet.NodeID]*Node, simnet.RunResult) {
	t.Helper()
	net := simnet.New(1, nil)
	nodes, err := BuildSPP(net, in, simnet.DefaultLink(), base)
	if err != nil {
		t.Fatalf("BuildSPP(%s): %v", in.Name, err)
	}
	return nodes, net.Run(horizon)
}

var testBase = Config{
	BatchInterval: 20 * time.Millisecond,
	StartStagger:  15 * time.Millisecond,
}

// TestGoodGadgetConverges: GOODGADGET converges, and node 1 ends on its
// preferred (longer) path through node 3 — the route-recomputation behavior
// §VI-C describes.
func TestGoodGadgetConverges(t *testing.T) {
	nodes, res := runSPP(t, spp.GoodGadget(), testBase, 10*time.Second)
	if !res.Converged {
		t.Fatalf("GOODGADGET should converge")
	}
	best, ok := nodes["1"].Best(SPPDest)
	if !ok {
		t.Fatalf("node 1 has no route")
	}
	want := []simnet.NodeID{"1", "3", "r3"}
	if !slices.Equal(best.Path, want) {
		t.Errorf("node 1 selected %v, want %v", best.Path, want)
	}
}

// TestBadGadgetOscillates: BADGADGET has no stable assignment, so the
// network keeps exchanging updates to the horizon ("the protocol continued
// to transmit a high rate of update messages indefinitely", §VI-C).
func TestBadGadgetOscillates(t *testing.T) {
	_, res := runSPP(t, spp.BadGadget(), testBase, 3*time.Second)
	if res.Converged {
		t.Fatalf("BADGADGET should not converge (took %v)", res.Time)
	}
	if res.Delivered < 100 {
		t.Errorf("expected a sustained update rate, got only %d deliveries", res.Delivered)
	}
}

// TestDisagreeConverges: DISAGREE oscillates transiently but converges to
// one of its two stable states once the nodes desynchronize.
func TestDisagreeConverges(t *testing.T) {
	nodes, res := runSPP(t, spp.Disagree(), testBase, 10*time.Second)
	if !res.Converged {
		t.Fatalf("DISAGREE should eventually converge")
	}
	b1, ok1 := nodes["1"].Best(SPPDest)
	b2, ok2 := nodes["2"].Best(SPPDest)
	if !ok1 || !ok2 {
		t.Fatalf("nodes lost their routes")
	}
	// Stable states: exactly one node gets its preferred indirect path.
	oneIndirect := (len(b1.Path) == 3) != (len(b2.Path) == 3)
	if !oneIndirect {
		t.Errorf("not a stable state: 1→%v, 2→%v", b1.Path, b2.Path)
	}
}

// TestFigure3GadgetOscillates: the Figure 3 iBGP gadget oscillates — each
// reflector prefers another reflector's client, so route changes chase each
// other around the reflector triangle.
func TestFigure3GadgetOscillates(t *testing.T) {
	_, res := runSPP(t, spp.Figure3IBGP(), testBase, 3*time.Second)
	if res.Converged {
		t.Fatalf("Figure 3 gadget should oscillate (converged at %v)", res.Time)
	}
}

// TestFigure3FixedConverges: with the preference cycle removed, the same
// topology converges, and every reflector selects its own client's route.
func TestFigure3FixedConverges(t *testing.T) {
	nodes, res := runSPP(t, spp.Figure3IBGPFixed(), testBase, 10*time.Second)
	if !res.Converged {
		t.Fatalf("fixed Figure 3 instance should converge")
	}
	for node, want := range map[simnet.NodeID][]simnet.NodeID{
		"a": {"a", "d", "r1"},
		"b": {"b", "e", "r2"},
		"c": {"c", "f", "r3"},
	} {
		best, ok := nodes[node].Best(SPPDest)
		if !ok {
			t.Fatalf("node %s has no route", node)
		}
		if !slices.Equal(best.Path, want) {
			t.Errorf("node %s selected %v, want %v", node, best.Path, want)
		}
	}
}

// TestChainGadgetScales: safe chains converge for a range of sizes.
func TestChainGadgetScales(t *testing.T) {
	for _, n := range []int{2, 5, 10, 20} {
		_, res := runSPP(t, spp.ChainGadget(n), testBase, 30*time.Second)
		if !res.Converged {
			t.Errorf("chain(%d) should converge", n)
		}
	}
}

// TestSafeConvergesDeterministically: two runs from one seed are the same
// run.
func TestSafeConvergesDeterministically(t *testing.T) {
	_, res1 := runSPP(t, spp.GoodGadget(), testBase, 10*time.Second)
	_, res2 := runSPP(t, spp.GoodGadget(), testBase, 10*time.Second)
	if res1.Time != res2.Time || res1.Events != res2.Events {
		t.Errorf("simulation should be deterministic: %v/%d vs %v/%d",
			res1.Time, res1.Events, res2.Time, res2.Events)
	}
}

// TestSeededStreamPinned holds batched, staggered runs — the ones that draw
// from the per-node generators, for the start offset and the batch jitter —
// to the instants and counts they had when simnet seeded every node's
// generator eagerly at AddNode. DISAGREE settles only through that jitter.
func TestSeededStreamPinned(t *testing.T) {
	base := Config{BatchInterval: 10 * time.Millisecond, StartStagger: 5 * time.Millisecond}
	for _, want := range []struct {
		in                *spp.Instance
		time              time.Duration
		events, delivered int64
	}{
		{spp.GoodGadget(), 74376053, 24, 12},
		{spp.Disagree(), 154579679, 31, 13},
		{spp.Figure3IBGPFixed(), 49433208, 34, 16},
	} {
		_, res := runSPP(t, want.in, base, 10*time.Second)
		if !res.Converged || res.Time != want.time || res.Events != want.events || res.Delivered != want.delivered {
			t.Errorf("%s: converged=%v at %d ns after %d events, %d delivered; pinned %d ns, %d, %d",
				want.in.Name, res.Converged, res.Time, res.Events, res.Delivered, want.time, want.events, want.delivered)
		}
	}
}

// scriptEnv is a one-node platform for scripting single messages at a Node:
// timers run immediately, sends are counted.
type scriptEnv struct {
	self  simnet.NodeID
	nbrs  []simnet.NodeID
	sends int
}

func (e *scriptEnv) Self() simnet.NodeID                 { return e.self }
func (e *scriptEnv) Now() time.Duration                  { return 0 }
func (e *scriptEnv) Neighbors() []simnet.NodeID          { return e.nbrs }
func (e *scriptEnv) Send(int, any, int)                  { e.sends++ }
func (e *scriptEnv) Schedule(_ time.Duration, fn func()) { fn() }
func (e *scriptEnv) Rand() *rand.Rand                    { return nil }

// TestImportFilteredReplacementRetracts: an advert the import filter
// rejects still replaces — and so retracts — the neighbour's previous
// announcement, like every other rejected advert and like the NDlog
// program's f_concatSigChecked.
func TestImportFilteredReplacementRetracts(t *testing.T) {
	s1, s2, out := algebra.Symbol("s1"), algebra.Symbol("s2"), algebra.Symbol("out")
	l := algebra.LSym("l")
	alg := algebra.NewBuilder("import-filter").Sigs(s1, s2, out).Labels(l).
		Concat(l, s1, out).Concat(l, s2, out).Import(l, s2, false).MustBuild()
	n := NewNode(Config{Algebra: alg, Label: func(from, to simnet.NodeID) algebra.Label { return l }})
	env := &scriptEnv{self: "u", nbrs: []simnet.NodeID{"v"}}
	n.Start(env)
	n.Receive(env, 0, Advert{Dest: "d", Path: []simnet.NodeID{"v"}, SigKey: "s1"})
	if best, ok := n.Best("d"); !ok || !slices.Equal(best.Path, []simnet.NodeID{"u", "v"}) || best.Sig != out {
		t.Fatalf("after the imported advert: best %v (ok=%v), want [u v] with %s", best, ok, out)
	}
	n.Receive(env, 0, Advert{Dest: "d", Path: []simnet.NodeID{"v"}, SigKey: "s2"})
	if best, ok := n.Best("d"); ok {
		t.Errorf("after the filtered replacement: stale route %v %s survives", best.Path, best.Sig)
	}
	// GPV has no split horizon: u advertised the route back to v, then
	// withdrew it.
	if env.sends != 2 {
		t.Errorf("want an advert and a withdraw, got %d sends", env.sends)
	}
}

// TestWarmFlushAllocatesNothing: a flush sends the selected record itself
// and a withdraw boxed once per destination, so once a node is warm a flush
// that re-advertises and withdraws allocates nothing.
func TestWarmFlushAllocatesNothing(t *testing.T) {
	s1, out := algebra.Symbol("s1"), algebra.Symbol("out")
	l := algebra.LSym("l")
	alg := algebra.NewBuilder("flush").Sigs(s1, out).Labels(l).Concat(l, s1, out).MustBuild()
	n := NewNode(Config{Algebra: alg, Label: func(from, to simnet.NodeID) algebra.Label { return l }})
	env := &scriptEnv{self: "u", nbrs: []simnet.NodeID{"v", "w"}}
	n.Start(env)
	n.Receive(env, 0, Advert{Dest: "d", Path: []simnet.NodeID{"v"}, SigKey: "s1"})
	n.Receive(env, 1, Advert{Dest: "d", Path: []simnet.NodeID{"w"}, SigKey: "s1"})
	e := n.dests["d"]
	viaV, viaW := e.slots[0].cand, e.slots[1].cand
	if viaV == nil || viaW == nil {
		t.Fatalf("both adverts should be imported")
	}
	selections := []*route{viaV, viaW, nil}
	i, sends := 0, env.sends
	allocs := testing.AllocsPerRun(30, func() {
		e.best = selections[i%len(selections)]
		i++
		n.markDirty(env, e) // scriptEnv runs the flush timer at once
	})
	if allocs != 0 {
		t.Errorf("a warm flush allocates %.1f objects, want 0", allocs)
	}
	if env.sends-sends < 2*30 {
		t.Errorf("the flushes sent %d messages; each should advertise or withdraw to both neighbours", env.sends-sends)
	}
}

// TestDeploymentGPV is the cross-representation oracle: the simulator
// shares route records between nodes, while the TCP deployment copies every
// advert through its wire form (Advert, gob, SigFromKey). Every node's Best —
// path and signature rendering — must come out the same either way. On an
// instance with one stable state (GOODGADGET, fixed Figure 3, a 12-node
// chain) the deployed selections equal the simulated ones; on DISAGREE (two
// stable states, picked by timing) and on BADGADGET and the Figure 3 gadget
// (none; the run is cut at the horizon) each deployed selection must be a
// route the simulated node imported or originated over three seeds.
func TestDeploymentGPV(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	for _, c := range []struct {
		in     *spp.Instance
		unique bool
	}{
		{spp.GoodGadget(), true},
		{spp.Figure3IBGPFixed(), true},
		{spp.ChainGadget(12), true},
		{spp.Disagree(), false},
		{spp.BadGadget(), false},
		{spp.Figure3IBGP(), false},
	} {
		t.Run(c.in.Name, func(t *testing.T) {
			horizon := 10 * time.Second
			if !c.unique {
				horizon = time.Second
			}
			dep := simnet.NewDeployment(nil)
			deployed, err := BuildSPPDeployment(dep, c.in, testBase)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dep.Run(horizon, 150*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if c.unique && !res.Converged {
				t.Fatalf("deployment run should quiesce")
			}
			if c.unique {
				simulated, run := runSPP(t, c.in, testBase, horizon)
				if !run.Converged {
					t.Fatalf("simulated run should converge")
				}
				for id, sn := range simulated {
					want, wantOK := sn.Best(SPPDest)
					got, gotOK := deployed[id].Best(SPPDest)
					if gotOK != wantOK || routeKey(got) != routeKey(want) {
						t.Errorf("node %s: deployed %s (ok=%v), simulated %s (ok=%v)", id, routeKey(got), gotOK, routeKey(want), wantOK)
					}
				}
				return
			}
			seen := map[simnet.NodeID]map[string]bool{}
			note := func(node simnet.NodeID, rt Route) {
				if seen[node] == nil {
					seen[node] = map[string]bool{}
				}
				seen[node][routeKey(rt)] = true
			}
			for seed := int64(1); seed <= 3; seed++ {
				base := testBase
				base.OnAdvert = note
				net := simnet.New(seed, nil)
				nodes, err := BuildSPP(net, c.in, simnet.DefaultLink(), base)
				if err != nil {
					t.Fatal(err)
				}
				net.Run(3 * time.Second)
				for id, n := range nodes {
					for _, o := range n.cfg.Originations {
						note(id, o)
					}
				}
			}
			for id, dn := range deployed {
				if got, ok := dn.Best(SPPDest); ok && !seen[id][routeKey(got)] {
					t.Errorf("node %s: deployed %s, which no simulated run imported or originated", id, routeKey(got))
				}
			}
		})
	}
}

// routeKey renders a route's path and signature.
func routeKey(rt Route) string { return fmt.Sprint(rt.Path, " ", rt.Sig) }
