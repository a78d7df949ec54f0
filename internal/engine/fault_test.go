package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fsr/internal/spp"
)

var (
	planNodes    = []string{"1", "2", "3"}
	planSessions = [][2]string{{"1", "2"}, {"2", "3"}, {"3", "1"}}
	fullSpec     = FaultPlanSpec{Flaps: 2, StormFlaps: 3, Partitions: 1, Restarts: 1, PolicyChanges: 1}
)

// TestBuildFaultPlanDeterminism: identical inputs yield the identical
// schedule; a different seed yields a different one.
func TestBuildFaultPlanDeterminism(t *testing.T) {
	p1 := BuildFaultPlan(9, planNodes, planSessions, fullSpec)
	p2 := BuildFaultPlan(9, planNodes, planSessions, fullSpec)
	if fmt.Sprint(p1.Ops) != fmt.Sprint(p2.Ops) {
		t.Errorf("same seed, different plans:\n%v\n%v", p1.Ops, p2.Ops)
	}
	p3 := BuildFaultPlan(10, planNodes, planSessions, fullSpec)
	if fmt.Sprint(p1.Ops) == fmt.Sprint(p3.Ops) {
		t.Errorf("different seeds produced the same plan: %v", p1.Ops)
	}
	if len(p1.Ops) == 0 || p1.LastFault() == 0 {
		t.Fatalf("plan should schedule something: %v", p1.Ops)
	}
	for i := 1; i < len(p1.Ops); i++ {
		if p1.Ops[i].At < p1.Ops[i-1].At {
			t.Fatalf("ops not time-ordered: %v", p1.Ops)
		}
	}
	if BuildFaultPlan(9, nil, nil, fullSpec).LastFault() != 0 {
		t.Errorf("empty topology should yield an empty plan")
	}
}

// TestSimRunnerWithPlan: a churn plan runs on the compiled sim backend, the
// report carries fault accounting, and GOODGADGET re-converges after the
// last fault.
func TestSimRunnerWithPlan(t *testing.T) {
	in := spp.GoodGadget()
	plan := BuildFaultPlan(3, planNodes, planSessions,
		FaultPlanSpec{Flaps: 2, Restarts: 1, PolicyChanges: 1})
	// Restart every node once more, late, one after the other: each loses its
	// whole RIB (Reset) and re-Starts on the neighbour slots it bound at
	// first start, while its neighbours see the session bounce.
	for i, n := range planNodes {
		plan.Ops = append(plan.Ops, FaultOp{At: 20*time.Second + time.Duration(i)*time.Second, Kind: FaultRestart, A: n})
	}
	run := func() *RunReport {
		rep, err := SimRunner{}.Run(context.Background(), in, RunOptions{
			Seed: 3, Horizon: 60 * time.Second, Plan: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if !rep.Converged {
		t.Fatalf("GOODGADGET should re-converge under churn (ran to %v)", rep.Time)
	}
	if rep.Faults == 0 || rep.LastFault == 0 {
		t.Errorf("fault accounting missing: %+v", rep)
	}
	if rep.Time <= rep.LastFault {
		t.Errorf("convergence (%v) should postdate the last fault (%v)", rep.Time, rep.LastFault)
	}
	if rep.RouteChanges == 0 || len(rep.NodeChanges) != 3 {
		t.Errorf("route-change accounting missing: changes=%d per-node=%v", rep.RouteChanges, rep.NodeChanges)
	}
	// The stable assignment is back at every node, not only the first.
	for node, want := range map[string]string{"1": "[1 3 r3]", "2": "[2 r2]", "3": "[3 r3]"} {
		if got := rep.Best[node]; fmt.Sprint(got.Path) != want {
			t.Errorf("node %s should return to %s, got %v", node, want, got.Path)
		}
	}
	// Bit-identical reproduction from the same seed and plan.
	rep2 := run()
	if fmt.Sprint(rep) != fmt.Sprint(rep2) {
		t.Errorf("seeded churn runs differ:\n%+v\n%+v", rep, rep2)
	}
}

// TestPlanDanglingRefsSkipped: ops referencing nodes or links the instance
// doesn't have are skipped (the shrinker removes topology out from under a
// plan), and the run still executes the valid remainder.
func TestPlanDanglingRefsSkipped(t *testing.T) {
	in := spp.GoodGadget()
	plan := &FaultPlan{Ops: []FaultOp{
		{At: time.Second, Kind: FaultLinkDown, A: "1", B: "99"},
		{At: time.Second, Kind: FaultRestart, A: "99"},
		{At: time.Second, Kind: FaultPolicyWithdraw, A: "99"},
		{At: 2 * time.Second, Kind: FaultRestart, A: "2"},
	}}
	rep, err := SimRunner{}.Run(context.Background(), in, RunOptions{
		Seed: 1, Horizon: 60 * time.Second, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 1 {
		t.Errorf("only the valid restart should inject, got %d faults", rep.Faults)
	}
	if !rep.Converged {
		t.Errorf("run should still converge")
	}
}

// TestPlanRejectedByOtherBackends: the interpreter and the TCP deployment
// refuse fault plans instead of silently ignoring them.
func TestPlanRejectedByOtherBackends(t *testing.T) {
	in := spp.GoodGadget()
	plan := &FaultPlan{Ops: []FaultOp{{At: time.Second, Kind: FaultRestart, A: "1"}}}
	opts := RunOptions{Horizon: time.Second, Plan: plan}
	if _, err := (SimRunner{Interpreted: true}).Run(context.Background(), in, opts); err == nil {
		t.Errorf("interpreter should reject fault plans")
	}
	if _, err := (DeployRunner{}).Run(context.Background(), in, opts); err == nil {
		t.Errorf("deployment should reject fault plans")
	}
}
