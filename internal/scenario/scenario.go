// Package scenario is FSR's procedural workload engine: seeded,
// deterministic generators of Stable Paths Problem instances, a campaign
// driver that cross-validates the safety analysis against bounded protocol
// executions at scale, and a delta-debugging shrinker that reduces any
// divergence to a minimal replayable counterexample.
//
// The paper exercises FSR on five hand-written gadgets and two synthetic
// topologies; this package is the "as many scenarios as you can imagine"
// generalization. Each generator derives a Scenario — an SPP instance plus
// the verdict its construction guarantees — from nothing but a seed, so a
// campaign over a seed range is reproducible bit for bit:
//
//   - gadget-splice composes renamed Disagree / Bad-Gadget / Figure-3 /
//     Good-Gadget / Chain cores into larger graphs through glue nodes; the
//     composition is unsafe exactly when a dispute core was spliced in
//     (unsat cores survive supersets; safe compositions admit an explicit
//     rank assignment);
//   - gao-rexford derives valley-free policies from topology.GenerateHierarchy
//     and optionally injects a violation (a peering-leak dispute cycle or a
//     preference inversion), which plants a Disagree/Bad-Gadget preference
//     cycle and hence a guaranteed-unsat analysis;
//   - ibgp builds IGP-cost route-reflector configurations from
//     topology.GenerateISP, optionally embedding a Figure-3-style preference
//     cycle on adjacent routers;
//   - divergent-fixture is gadget-splice with a dispute core always present
//     but deliberately mislabeled safe — the campaign's built-in
//     self-test that the differential pipeline flags, shrinks, and
//     serializes counterexamples.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"fsr/internal/engine"
	"fsr/internal/spp"
)

// Kind names a scenario generator.
type Kind string

// Built-in generator kinds.
const (
	// GadgetSplice composes classic gadget cores into larger graphs.
	GadgetSplice Kind = "gadget-splice"
	// GaoRexford derives valley-free AS policies with optional violation
	// injection.
	GaoRexford Kind = "gao-rexford"
	// IBGP derives route-reflector configurations with optional embedded
	// preference cycles.
	IBGP Kind = "ibgp"
	// DivergentFixture is a deliberately mislabeled dispute composition used
	// to exercise the divergence → shrink → corpus pipeline.
	DivergentFixture Kind = "divergent-fixture"
	// PartialSpec composes gadgets with overlap glue that ranks two path
	// extensions against each other, making the verdict genuinely unknown
	// at generation time (ExpectAny): the campaign cross-checks analysis
	// against execution without a construction guarantee.
	PartialSpec Kind = "partial-spec"
	// ChurnFlap is a safe gadget composition run under a light seed-derived
	// fault plan (a few link flaps, maybe a restart): the safe policy must
	// re-converge after the last fault.
	ChurnFlap Kind = "churn-flap"
	// ChurnStorm is a violation-free Gao-Rexford hierarchy under a heavy
	// plan (flap storm, a partition, restarts, a mid-run policy change).
	ChurnStorm Kind = "churn-storm"
	// ChurnDispute is a dispute-embedding composition under a flap storm:
	// expected unsafe, and the §VI-B suspect set should predict the nodes
	// observed oscillating.
	ChurnDispute Kind = "churn-dispute"
	// GaoRexfordInternet derives valley-free policies over a power-law
	// (preferential-attachment) AS graph with a tier-1 peering clique and
	// multihomed stubs — the Internet-shaped workload of the scale
	// campaigns — with optional violation injection.
	GaoRexfordInternet Kind = "gao-rexford-internet"
	// LexicalProduct ranks valley-free paths by the §IV-B lexical product
	// of business class and IGP path cost, with optional violation
	// injection.
	LexicalProduct Kind = "lexical-product"
)

// Expectation is the verdict a generator guarantees by construction.
type Expectation int

const (
	// ExpectAny makes no claim; the campaign only cross-checks analysis
	// against execution.
	ExpectAny Expectation = iota
	// ExpectSafe: the instance admits a strict-monotonicity witness (sat).
	ExpectSafe
	// ExpectUnsafe: the instance embeds a dispute cycle (unsat).
	ExpectUnsafe
)

// String returns "any", "safe" or "unsafe".
func (e Expectation) String() string {
	switch e {
	case ExpectSafe:
		return "safe"
	case ExpectUnsafe:
		return "unsafe"
	default:
		return "any"
	}
}

// Scenario is one self-describing generated workload: the instance, the
// seed and kind that deterministically reproduce it, and the verdict its
// construction guarantees.
type Scenario struct {
	Kind     Kind
	Seed     int64
	Expected Expectation
	// Note records the generator's construction choices (cores spliced,
	// violation injected and where) for campaign reports.
	Note string
	// Instance is the generated SPP instance.
	Instance *spp.Instance
	// Plan, when non-nil, is the seed-derived fault schedule the execution
	// runs under (churn kinds). Regenerating the scenario from (Kind, Seed)
	// rebuilds the identical plan.
	Plan *engine.FaultPlan
}

// GeneratorFunc derives a scenario from a seed. Implementations must be
// deterministic: equal seeds yield structurally equal scenarios.
type GeneratorFunc func(seed int64) (*Scenario, error)

// generators is the built-in registry, in the order Kinds reports.
var generators = []struct {
	kind Kind
	gen  GeneratorFunc
}{
	{GadgetSplice, genGadgetSplice},
	{GaoRexford, genGaoRexford},
	{IBGP, genIBGP},
	{DivergentFixture, genDivergentFixture},
	{PartialSpec, genPartialSpec},
	{ChurnFlap, genChurnFlap},
	{ChurnStorm, genChurnStorm},
	{ChurnDispute, genChurnDispute},
	{GaoRexfordInternet, genGaoRexfordInternet},
	{LexicalProduct, genLexicalProduct},
}

// Kinds lists every registered generator kind.
func Kinds() []Kind {
	out := make([]Kind, len(generators))
	for i, g := range generators {
		out[i] = g.kind
	}
	return out
}

// DefaultKinds is the mixed workload a campaign runs when none is named:
// the three "honest" generators (divergent-fixture is opt-in, being a
// deliberate self-test of the divergence pipeline; churn kinds are opt-in
// via ChurnKinds).
func DefaultKinds() []Kind { return []Kind{GadgetSplice, GaoRexford, IBGP} }

// ChurnKinds is the fault-injection workload: every generator whose
// scenarios carry a seed-derived FaultPlan.
func ChurnKinds() []Kind { return []Kind{ChurnFlap, ChurnStorm, ChurnDispute} }

// KindByName resolves a kind, erroring with the known names.
func KindByName(name string) (Kind, error) {
	for _, g := range generators {
		if string(g.kind) == name {
			return g.kind, nil
		}
	}
	known := make([]string, len(generators))
	for i, g := range generators {
		known[i] = string(g.kind)
	}
	sort.Strings(known)
	return "", fmt.Errorf("scenario: unknown kind %q (have: %s)", name, strings.Join(known, ", "))
}

// Generate derives the scenario for (kind, seed).
func Generate(kind Kind, seed int64) (*Scenario, error) {
	for _, g := range generators {
		if g.kind == kind {
			sc, err := g.gen(seed)
			if err != nil {
				return nil, fmt.Errorf("scenario %s seed %d: %w", kind, seed, err)
			}
			return sc, nil
		}
	}
	_, err := KindByName(string(kind))
	return nil, err
}
