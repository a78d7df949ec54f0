package pathvector

import (
	"slices"
	"testing"
	"time"

	"fsr/internal/simnet"
	"fsr/internal/spp"
)

// buildGoodGadget wires GOODGADGET onto a fresh simulated network.
func buildGoodGadget(t *testing.T) (*simnet.Network, map[simnet.NodeID]*Node) {
	t.Helper()
	net := simnet.New(1, nil)
	nodes, err := BuildSPP(net, spp.GoodGadget(), simnet.DefaultLink(), testBase)
	if err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

// wantPath asserts a node's selection for SPPDest.
func wantPath(t *testing.T, nodes map[simnet.NodeID]*Node, id simnet.NodeID, want ...simnet.NodeID) {
	t.Helper()
	best, ok := nodes[id].Best(SPPDest)
	if !ok {
		t.Fatalf("node %s has no route", id)
	}
	if !slices.Equal(best.Path, want) {
		t.Errorf("node %s selected %v, want %v", id, best.Path, want)
	}
}

// TestLinkFlapReconverges: GOODGADGET's node 1 loses its preferred path
// when link 1–3 goes down, falls back, and regains it after the link
// recovers — the protocol re-converges to the original stable assignment.
func TestLinkFlapReconverges(t *testing.T) {
	net, nodes := buildGoodGadget(t)
	down := simnet.FaultEvent{Kind: simnet.FaultLinkDown, A: "1", B: "3"}
	up := simnet.FaultEvent{Kind: simnet.FaultLinkUp, A: "1", B: "3"}
	if err := net.ScheduleFault(2*time.Second, down); err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleFault(4*time.Second, up); err != nil {
		t.Fatal(err)
	}
	res := net.Run(30 * time.Second)
	if !res.Converged {
		t.Fatalf("should re-converge after the flap (ran to %v)", res.Time)
	}
	if res.Faults != 2 {
		t.Errorf("want 2 faults, got %d", res.Faults)
	}
	if res.Time <= res.LastFault {
		t.Errorf("convergence (%v) should postdate the last fault (%v)", res.Time, res.LastFault)
	}
	wantPath(t, nodes, "1", "1", "3", "r3")
	wantPath(t, nodes, "2", "2", "r2")
}

// TestRestartReconverges: restarting node 3 mid-run wipes its RIB; the
// LinkUp re-advertisements from its neighbors and its own re-origination
// restore the original stable assignment.
func TestRestartReconverges(t *testing.T) {
	net, nodes := buildGoodGadget(t)
	if err := net.ScheduleFault(2*time.Second, simnet.FaultEvent{Kind: simnet.FaultRestart, A: "3"}); err != nil {
		t.Fatal(err)
	}
	res := net.Run(30 * time.Second)
	if !res.Converged {
		t.Fatalf("should re-converge after the restart (ran to %v)", res.Time)
	}
	wantPath(t, nodes, "1", "1", "3", "r3")
	wantPath(t, nodes, "3", "3", "r3")
	if nodes["3"].SelectionChanges() == 0 {
		t.Errorf("node 3 should have recorded selection changes")
	}
}

// TestOriginationFlapReconverges: withdrawing node 3's externally learned
// route (the policy-change fault) forces the network onto fallbacks;
// restoring it brings the original assignment back.
func TestOriginationFlapReconverges(t *testing.T) {
	net, nodes := buildGoodGadget(t)
	flip := func(on bool) func(simnet.Env) {
		return func(env simnet.Env) { nodes["3"].SetOriginationsEnabled(env, on) }
	}
	if err := net.ScheduleCall(2*time.Second, "3", flip(false)); err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleCall(4*time.Second, "3", flip(true)); err != nil {
		t.Fatal(err)
	}
	res := net.Run(30 * time.Second)
	if !res.Converged {
		t.Fatalf("should re-converge after the origination flap (ran to %v)", res.Time)
	}
	wantPath(t, nodes, "1", "1", "3", "r3")
	wantPath(t, nodes, "3", "3", "r3")
}
