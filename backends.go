package fsr

import (
	"io"

	"fsr/internal/engine"
	"fsr/internal/scenario"
)

// Runner selection. A Session executes the generated protocol on a
// RunnerBackend, selected by value through WithRunner; the constructors below
// are the only way to obtain one from outside the module, so commands and
// examples never import internal packages.

// RunnerBackend executes an SPP instance. Implementations:
// SimulationRunner, NDlogRunner, DeploymentRunner.
type RunnerBackend = engine.Runner

// SimulationRunner returns the default execution backend: the compiled GPV
// protocol over the deterministic discrete-event simulator.
func SimulationRunner() RunnerBackend { return engine.SimRunner{} }

// NDlogRunner returns the interpreted execution backend: the generated
// NDlog program evaluated by the engine package over the simulator — the
// RapidNet-style path, slower but exercising the generated code itself.
func NDlogRunner() RunnerBackend { return engine.SimRunner{Interpreted: true} }

// DeploymentRunner returns the deployment backend: the compiled GPV
// protocol over real TCP sockets on loopback, timed by the wall clock.
func DeploymentRunner() RunnerBackend { return engine.DeployRunner{} }

// RunnerBackends returns every built-in runner backend.
func RunnerBackends() []RunnerBackend { return engine.Runners() }

// RunnerBackendByName resolves "sim", "sim-ndlog" (alias "ndlog"), or "tcp"
// (aliases "deploy", "deployment").
func RunnerBackendByName(name string) (RunnerBackend, error) { return engine.RunnerByName(name) }

// Scenario engine. The second pluggable axis beside runners: seeded
// generators of whole workloads, consumed by Session.Campaign. See
// the internal/scenario package for the generator guarantees.

type (
	// ScenarioKind names a scenario generator.
	ScenarioKind = scenario.Kind
	// Scenario is one generated workload: instance, seed, and the verdict
	// its construction guarantees.
	Scenario = scenario.Scenario
	// ScenarioExpectation is a generator's guaranteed verdict.
	ScenarioExpectation = scenario.Expectation
	// CampaignSpec parameterizes Session.Campaign.
	CampaignSpec = scenario.Spec
	// CampaignReport is a campaign's classified outcome.
	CampaignReport = scenario.Report
	// CampaignResult is one scenario's campaign record.
	CampaignResult = scenario.Result
	// CampaignOutcome classifies one scenario's analysis-vs-execution result.
	CampaignOutcome = scenario.Outcome
	// CorpusEntry is one replayable counterexample record.
	CorpusEntry = scenario.CorpusEntry
	// ReplayResult is one corpus entry's reproduction check.
	ReplayResult = scenario.ReplayResult
)

// Scenario generator kinds and campaign outcome classes.
const (
	ScenarioGadgetSplice       = scenario.GadgetSplice
	ScenarioGaoRexford         = scenario.GaoRexford
	ScenarioIBGP               = scenario.IBGP
	ScenarioGaoRexfordInternet = scenario.GaoRexfordInternet
	ScenarioLexicalProduct     = scenario.LexicalProduct
	ScenarioDivergentFixture   = scenario.DivergentFixture
	ScenarioPartialSpec        = scenario.PartialSpec
	ScenarioChurnFlap          = scenario.ChurnFlap
	ScenarioChurnStorm         = scenario.ChurnStorm
	ScenarioChurnDispute       = scenario.ChurnDispute

	ExpectAny    = scenario.ExpectAny
	ExpectSafe   = scenario.ExpectSafe
	ExpectUnsafe = scenario.ExpectUnsafe

	OutcomeAgreement    = scenario.OutcomeAgreement
	OutcomeConservative = scenario.OutcomeConservative
	OutcomeDivergence   = scenario.OutcomeDivergence
	OutcomeMismatch     = scenario.OutcomeMismatch
	OutcomeTimeout      = scenario.OutcomeTimeout
	OutcomeError        = scenario.OutcomeError
)

// ScenarioKinds lists every registered scenario generator.
func ScenarioKinds() []ScenarioKind { return scenario.Kinds() }

// DefaultScenarioKinds is the mixed workload campaigns run when no kinds
// are named.
func DefaultScenarioKinds() []ScenarioKind { return scenario.DefaultKinds() }

// ChurnScenarioKinds is the fault-injection workload: every generator whose
// scenarios carry a fault plan (link flaps, flap storms, partitions, node
// restarts, mid-run policy changes).
func ChurnScenarioKinds() []ScenarioKind { return scenario.ChurnKinds() }

// ScenarioKindByName resolves a generator kind by name.
func ScenarioKindByName(name string) (ScenarioKind, error) { return scenario.KindByName(name) }

// GenerateScenario derives the deterministic scenario for (kind, seed).
func GenerateScenario(kind ScenarioKind, seed int64) (*Scenario, error) {
	return scenario.Generate(kind, seed)
}

// WriteScenarioCorpus writes corpus entries as JSON Lines.
func WriteScenarioCorpus(w io.Writer, entries []CorpusEntry) error {
	return scenario.WriteCorpus(w, entries)
}

// ReadScenarioCorpus parses a JSON Lines corpus.
func ReadScenarioCorpus(r io.Reader) ([]CorpusEntry, error) { return scenario.ReadCorpus(r) }

// Fault injection. A FaultPlan is a deterministic, seed-derived schedule of
// faults a simulated run injects mid-execution: link flaps, flap storms,
// partitions, node restarts, and mid-run policy changes. Attach one to a
// session with WithFaultPlan, or let the churn scenario kinds derive one
// per scenario. Only the compiled simulation backend executes plans.

type (
	// FaultPlan is a time-ordered schedule of fault operations.
	FaultPlan = engine.FaultPlan
	// FaultOp is one scheduled fault operation.
	FaultOp = engine.FaultOp
	// FaultOpKind names a fault operation's type.
	FaultOpKind = engine.FaultOpKind
	// FaultPlanSpec parameterizes BuildFaultPlan.
	FaultPlanSpec = engine.FaultPlanSpec
)

// Fault operation kinds.
const (
	FaultLinkDown       = engine.FaultLinkDown
	FaultLinkUp         = engine.FaultLinkUp
	FaultRestart        = engine.FaultRestart
	FaultPolicyWithdraw = engine.FaultPolicyWithdraw
	FaultPolicyRestore  = engine.FaultPolicyRestore
)

// BuildFaultPlan derives a deterministic fault schedule from a seed, the
// node set, and the undirected session list. Equal inputs yield equal
// plans, byte for byte — the property that keeps churn campaigns
// reproducible.
func BuildFaultPlan(seed int64, nodes []string, sessions [][2]string, spec FaultPlanSpec) *FaultPlan {
	return engine.BuildFaultPlan(seed, nodes, sessions, spec)
}
