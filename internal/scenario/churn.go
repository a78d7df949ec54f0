// Churn scenario kinds: known-verdict instances paired with seed-derived
// fault plans, so a campaign cross-validates the analysis against
// executions under link flaps, flap storms, partitions, node restarts, and
// mid-run policy changes — not just against the static runs the paper's
// experiments use.
//
// Plan timing is compressed to finish well inside the campaign's default
// 2 s horizon: fault events sit in the simulation's own queue, so a run can
// only report convergence after the last fault is processed — "converged"
// for a churn scenario therefore always means "re-converged after the final
// fault", and the unchanged classifier applies verbatim.

package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"fsr/internal/engine"
	"fsr/internal/spp"
)

// churnTiming compresses spec timing so the whole plan lands in the first
// simulated second, leaving the rest of the horizon for re-convergence.
func churnTiming(spec engine.FaultPlanSpec) engine.FaultPlanSpec {
	spec.Start = 200 * time.Millisecond
	spec.Window = 600 * time.Millisecond
	spec.MinOutage = 50 * time.Millisecond
	spec.MaxOutage = 200 * time.Millisecond
	return spec
}

// planTopology extracts the node and undirected session lists BuildFaultPlan
// draws from.
func planTopology(in *spp.Instance) (nodes []string, sessions [][2]string) {
	for _, n := range in.Nodes {
		nodes = append(nodes, string(n))
	}
	for _, l := range in.Sessions() {
		sessions = append(sessions, [2]string{string(l.From), string(l.To)})
	}
	return nodes, sessions
}

// churnScenario attaches a seed-derived plan to an instance and annotates
// the note with the plan's shape.
func churnScenario(kind Kind, seed int64, exp Expectation, in *spp.Instance, note string, spec engine.FaultPlanSpec) *Scenario {
	nodes, sessions := planTopology(in)
	plan := engine.BuildFaultPlan(seed, nodes, sessions, churnTiming(spec))
	note = fmt.Sprintf("%s; plan: %d op(s), last fault %v", note, len(plan.Ops), plan.LastFault())
	return &Scenario{Kind: kind, Seed: seed, Expected: exp, Note: note, Instance: in, Plan: plan}
}

// genChurnFlap implements churn-flap: a safe-by-construction gadget
// composition under a light plan — a few link flaps, possibly a restart.
func genChurnFlap(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	in, _, note := composeGadgets(fmt.Sprintf("churn-flap-%d", seed), rng, coreSafeOnly)
	spec := engine.FaultPlanSpec{
		Flaps:    1 + rng.Intn(3),
		Restarts: rng.Intn(2),
	}
	return churnScenario(ChurnFlap, seed, ExpectSafe, in, note, spec), nil
}

// genChurnStorm implements churn-storm: a violation-free Gao-Rexford
// hierarchy under a heavy plan — a flap storm, a partition, restarts, and a
// mid-run policy change.
func genChurnStorm(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	in, _, note := buildGaoRexford(fmt.Sprintf("churn-storm-%d", seed), seed, rng)
	spec := engine.FaultPlanSpec{
		Flaps:         1 + rng.Intn(2),
		StormFlaps:    3 + rng.Intn(4),
		Partitions:    1,
		Restarts:      1,
		PolicyChanges: 1,
	}
	return churnScenario(ChurnStorm, seed, ExpectSafe, in, note, spec), nil
}

// genChurnDispute implements churn-dispute: a composition that always
// embeds a dispute core, run under a flap storm. The analysis must flag it
// unsafe, and its suspect set should predict the nodes observed
// oscillating during the storm.
func genChurnDispute(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	in, _, note := composeGadgets(fmt.Sprintf("churn-dispute-%d", seed), rng, coreForceBad)
	spec := engine.FaultPlanSpec{
		Flaps:      1 + rng.Intn(2),
		StormFlaps: 3 + rng.Intn(3),
	}
	return churnScenario(ChurnDispute, seed, ExpectUnsafe, in, note, spec), nil
}
