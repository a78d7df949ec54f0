// Package fsr is the public facade of the Formally Safe Routing toolkit, a
// from-scratch reproduction of "FSR: Formal Analysis and Implementation
// Toolkit for Safe Inter-Domain Routing" (Wang et al., SIGCOMM 2011).
//
// FSR takes a routing-policy configuration — a high-level guideline such as
// Gao-Rexford, or a concrete instance such as an iBGP configuration — in a
// single algebraic representation, and derives from it both:
//
//   - a safety analysis: the policy is translated to integer constraints
//     and checked for strict monotonicity with an SMT solver; sat proves
//     convergence on every topology (Sobrinho's theorem), unsat yields a
//     minimal unsatisfiable core pinpointing the offending policy
//     statements; and
//   - a distributed implementation: the same algebra is compiled to an
//     NDlog program (the generalized path-vector protocol plus the four
//     policy functions) executable in simulation or over real sockets.
//
// # Sessions
//
// The entry point is a [Session], which owns the full pipeline — policy →
// constraints → solver verdict → NDlog program → simulated or socket
// deployment — and is configured once with functional options:
//
//	sess := fsr.NewSession(
//		fsr.WithRunner(fsr.DeploymentRunner()),
//		fsr.WithSeed(42),
//		fsr.WithBatchWindow(50*time.Millisecond),
//	)
//	rep, err := sess.Analyze(ctx, fsr.GaoRexfordSafe())
//	run, err := sess.Run(ctx, fsr.Figure3IBGPFixed())
//
// Every long-running stage is context-aware: cancelling the context aborts
// a solve mid-minimization or a protocol execution mid-run. Constraints are
// decided in process by one difference-logic engine, the stand-in for the
// paper's Yices; [Session.SolverEncoding] renders the Yices text itself.
// The runner is chosen by option, never by importing a different package:
// [WithRunner] selects between discrete-event simulation (compiled or
// NDlog-interpreted GPV) and real-TCP deployment. [Session.AnalyzeAll] fans
// a batch of policies, and [Session.Campaign] its scenarios, out over worker
// pools sized by [WithParallelism].
//
// The zero-configuration path: fsr.NewSession() uses the simulation runner,
// seed 1, and unbatched sends.
//
// The heavy lifting lives in the internal packages (algebra, smt, analysis,
// spp, ndlog, engine, simnet, pathvector, hlp, topology, experiments); this
// package re-exports the entry points a downstream user needs, so the
// commands and examples read like client code and import nothing internal.
package fsr

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/config"
	"fsr/internal/engine"
	"fsr/internal/ndlog"
	"fsr/internal/scenario"
	"fsr/internal/smt"
	"fsr/internal/spp"
	"fsr/internal/topology"
	"fsr/internal/trace"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Algebra is a routing-policy configuration ⟨Σ, ⪯, L, ⊕I, ⊕P, ⊕E⟩.
	Algebra = algebra.Algebra
	// AnalysisResult is the outcome of one monotonicity check.
	AnalysisResult = analysis.Result
	// SafetyReport is the overall safety verdict with its reasoning chain.
	SafetyReport = analysis.Report
	// SPPInstance is a Stable Paths Problem instance.
	SPPInstance = spp.Instance
	// SPPConversion is an SPP instance converted to its algebra, with the
	// pinpointing maps that translate unsat cores back to nodes.
	SPPConversion = spp.Conversion
	// SPPNode names a node of an SPP instance.
	SPPNode = spp.Node
	// SPPPath is one permitted path of an SPP instance.
	SPPPath = spp.Path
	// DeltaVerifier is a resident incremental safety verifier over one SPP
	// instance: ranking, session, and topology edits re-verify by patching
	// the standing constraint system instead of rebuilding it, and a
	// transaction (Begin, then Commit or Rollback) tries edits without
	// keeping them or copying anything.
	DeltaVerifier = spp.DeltaVerifier
	// DeltaStats counts how a DeltaVerifier's checks were discharged
	// (cache hits, delta solves, whole-list solves).
	DeltaStats = smt.DeltaStats
	// NDlogProgram is a generated or parsed NDlog program.
	NDlogProgram = ndlog.Program
	// RunReport is the uniform outcome of a protocol execution on any
	// runner backend.
	RunReport = engine.RunReport
	// NodeRoute is one node's selected route in a RunReport.
	NodeRoute = engine.NodeRoute
	// ConfigFile is a parsed FSR configuration file.
	ConfigFile = config.File
	// TraceCollector totals the traffic of a run: messages, bytes, and a
	// bandwidth series.
	TraceCollector = trace.Collector
)

// Verdicts.
const (
	Safe   = analysis.Safe
	Unsafe = analysis.Unsafe
)

// GaoRexfordA returns the paper's running example guideline (§II-B).
func GaoRexfordA() Algebra { return algebra.GaoRexfordA() }

// GaoRexfordB returns Gao-Rexford guideline B.
func GaoRexfordB() Algebra { return algebra.GaoRexfordB() }

// HopCount returns the shortest hop-count algebra (§II-A).
func HopCount() Algebra { return algebra.HopCount{} }

// GaoRexfordSafe returns the provably safe composition of guideline A with
// shortest hop-count as tie-breaker (§IV-C).
func GaoRexfordSafe() Algebra { return algebra.GaoRexfordWithHopCount() }

// BackupRouting returns the backup-routing algebra with the given number of
// backup levels (Table I's topology-specific guideline).
func BackupRouting(levels int) Algebra { return algebra.BackupRouting(levels) }

// Compose returns the lexical product a ⊗ b (§II-A).
func Compose(a, b Algebra) Algebra { return algebra.NewProduct(a, b) }

// builtinAlgebras is the single table behind BuiltinAlgebra and
// BuiltinAlgebraNames; the first entry is the default for the empty name.
var builtinAlgebras = []struct {
	name string
	ctor func() Algebra
}{
	{"gao-rexford-a", GaoRexfordA},
	{"gao-rexford-b", GaoRexfordB},
	{"gao-rexford-safe", GaoRexfordSafe},
	{"hop-count", HopCount},
	{"backup", func() Algebra { return BackupRouting(2) }},
}

// BuiltinAlgebra resolves a built-in policy configuration by name:
// gao-rexford-a, gao-rexford-b, gao-rexford-safe, hop-count, backup. The
// empty name resolves to gao-rexford-a.
func BuiltinAlgebra(name string) (Algebra, error) {
	if name == "" {
		return builtinAlgebras[0].ctor(), nil
	}
	for _, b := range builtinAlgebras {
		if b.name == name {
			return b.ctor(), nil
		}
	}
	return nil, errUnknown("builtin policy", name, BuiltinAlgebraNames())
}

// BuiltinAlgebraNames lists the names BuiltinAlgebra accepts.
func BuiltinAlgebraNames() []string {
	out := make([]string, len(builtinAlgebras))
	for i, b := range builtinAlgebras {
		out[i] = b.name
	}
	return out
}

// Figure3IBGP returns the paper's six-node iBGP gadget (Figure 3).
func Figure3IBGP() *SPPInstance { return spp.Figure3IBGP() }

// Figure3IBGPFixed returns the corrected version of the Figure 3 gadget.
func Figure3IBGPFixed() *SPPInstance { return spp.Figure3IBGPFixed() }

// Gadgets returns the classic eBGP gadgets of §VI-C.
func Gadgets() []*SPPInstance {
	return []*SPPInstance{spp.GoodGadget(), spp.BadGadget(), spp.Disagree()}
}

// builtinGadgets is the single table behind Gadget and GadgetNames.
var builtinGadgets = []struct {
	name string
	ctor func() *SPPInstance
}{
	{"goodgadget", spp.GoodGadget},
	{"badgadget", spp.BadGadget},
	{"disagree", spp.Disagree},
	{"fig3", spp.Figure3IBGP},
	{"fig3-fixed", spp.Figure3IBGPFixed},
}

// Gadget resolves a built-in SPP gadget by name: goodgadget, badgadget,
// disagree, fig3, fig3-fixed. Parameterized forms generate instances on
// the fly: "chain:N" is [ChainGadget](N), and "internet:N" (or
// "internet:N:SEED", default seed 1) is a power-law Gao-Rexford topology
// of N ASes via [GenerateInternetSPP] — how the verification daemon is
// driven at internet scale without shipping a multi-megabyte instance in
// the request body.
func Gadget(name string) (*SPPInstance, error) {
	for _, g := range builtinGadgets {
		if g.name == name {
			return g.ctor(), nil
		}
	}
	if in, ok, err := paramGadget(name); ok {
		return in, err
	}
	return nil, errUnknown("gadget", name, GadgetNames())
}

// paramGadget parses the parameterized gadget forms. ok=false means the
// name is not parameterized at all and the caller should report its own
// unknown-name error.
func paramGadget(name string) (*SPPInstance, bool, error) {
	kind, rest, found := strings.Cut(name, ":")
	if !found {
		return nil, false, nil
	}
	switch kind {
	case "chain":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 2 {
			return nil, true, fmt.Errorf("fsr: gadget %q: want chain:N with N ≥ 2", name)
		}
		return ChainGadget(n), true, nil
	case "internet":
		sizeStr, seedStr, hasSeed := strings.Cut(rest, ":")
		n, err := strconv.Atoi(sizeStr)
		if err != nil || n < 2 {
			return nil, true, fmt.Errorf("fsr: gadget %q: want internet:N[:SEED] with N ≥ 2", name)
		}
		seed := int64(1)
		if hasSeed {
			s, err := strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return nil, true, fmt.Errorf("fsr: gadget %q: bad seed %q", name, seedStr)
			}
			seed = s
		}
		return GenerateInternetSPP(name, n, seed), true, nil
	}
	return nil, false, nil
}

// GenerateInternetSPP generates a power-law AS topology of n nodes
// (deterministic in seed) and derives its single-destination Gao-Rexford
// SPP instance — the standing internet-scale workload of the scaling
// benchmarks and the "internet:N[:SEED]" gadget form.
func GenerateInternetSPP(name string, n int, seed int64) *SPPInstance {
	g := topology.GenerateInternet(seed, topology.InternetParams{N: n})
	return scenario.InternetSPP(name, g, 3)
}

// GadgetNames lists the names Gadget accepts.
func GadgetNames() []string {
	out := make([]string, len(builtinGadgets))
	for i, g := range builtinGadgets {
		out[i] = g.name
	}
	return out
}

// ChainGadget returns a satisfiable chain instance of n nodes, used for
// solver scaling studies.
func ChainGadget(n int) *SPPInstance { return spp.ChainGadget(n) }

// ConvertSPP translates an SPP instance to its algebraic representation
// (§III-B), returning the conversion with its pinpointing maps.
func ConvertSPP(in *SPPInstance) (*SPPConversion, error) { return in.ToAlgebra() }

// ParseConfig reads the FSR configuration language (algebras, SPP
// instances, AS relationship graphs).
func ParseConfig(src string) (*ConfigFile, error) { return config.Parse(src) }

// NewTraceCollector returns a traffic collector with the given bandwidth-
// series bucket width, for use with WithTrace.
func NewTraceCollector(bucketWidth time.Duration) *TraceCollector {
	return trace.NewCollector(bucketWidth)
}

func errUnknown(kind, name string, known []string) error {
	return fmt.Errorf("fsr: unknown %s %q (have: %s)", kind, name, strings.Join(known, ", "))
}
