// Solver introspection counters, exported through the process-global obs
// registry (scraped by fsr serve's /metrics and by fsr campaign
// -metrics-addr).
//
// The engine's inner loops count into plain int fields on the pooled
// dlEngine — a register increment, invisible to the solve benchmarks —
// and flushStats drains them into the atomic counters once per solve; a
// delta re-probe counts in locals and adds them once. The
// DeltaContext-level counters (segment replacements, delta vs full
// discharges) mirror the per-context DeltaStats the daemon already reports.

package smt

import "fsr/internal/obs"

var (
	obsProbes = obs.Default().Counter("fsr_smt_probes_total",
		"Satisfiability probes decided by the difference-logic engine.")
	obsRelaxations = obs.Default().Counter("fsr_smt_relaxations_total",
		"Successful edge relaxations across SPFA and Bellman-Ford passes.")
	obsMinimizeIters = obs.Default().Counter("fsr_smt_minimize_iterations_total",
		"Core-minimization deletion-loop iterations.")
	obsDeltaSplices = obs.Default().Counter("fsr_smt_delta_splices_total",
		"Assertion-list segments replaced in delta contexts.")
	obsDeltaSolves = obs.Default().Counter("fsr_smt_delta_solves_total",
		"Delta-context checks discharged from the affected region: the re-probe and, when unsat, the region's core.")
	obsFullSolves = obs.Default().Counter("fsr_smt_full_solves_total",
		"Delta-context checks that solved the whole assertion list (no fixed point stood yet).")
	obsCacheHits = obs.Default().Counter("fsr_smt_cache_hits_total",
		"Delta-context checks answered from the memoized result.")

	// Condensation introspection, one observation per engine solve on any
	// door (string, dense, and a delta context's induced solve, of the whole
	// list before a fixed point stands or of a region core after): plan shape
	// plus Tarjan plan-building latency. The histogram handle is pre-resolved
	// so the per-solve Observe is alloc-free.
	obsSCCSolves = obs.Default().Counter("fsr_scc_solves_total",
		"Whole-system solves (every one runs on the SCC condensation; delta re-probes excluded).")
	obsSCCComponents = obs.Default().Counter("fsr_scc_components_total",
		"Strongly connected components condensed across all solves.")
	obsSCCTrivial = obs.Default().Counter("fsr_scc_trivial_components_total",
		"Singleton components with no internal edge (decided without a solver queue).")
	obsSCCLevels = obs.Default().Gauge("fsr_scc_levels",
		"Topological levels in the most recent solve's plan.")
	obsSCCMaxWidth = obs.Default().Gauge("fsr_scc_max_level_width",
		"Widest topological level's component count in the most recent solve's condensation.")
	obsSCCTarjan = obs.Default().HistogramVec("fsr_scc_tarjan_seconds",
		"Iterative Tarjan condensation time per solve.").With()
)

// snapshotStats copies the engine's accumulated per-solve loop effort into
// st — the per-operation counterpart of flushStats' process-global drain.
// Call before the deferred flushStats zeroes the fields.
func (e *dlEngine) snapshotStats(st *Stats) {
	st.Probes = e.statProbes
	st.Relaxations = e.statRelax
}

// recordPlan publishes one condensation plan's shape into the registry and
// into st. A few atomic adds and one pre-resolved histogram observe per
// solve — invisible next to the solve itself.
func (s *sccPlan) recordPlan(st *Stats) {
	st.Components = s.ncomp
	st.TrivialComponents = s.trivial
	st.Levels = s.nLevels
	st.MaxLevelWidth = s.maxWidth
	st.TarjanDuration = s.tarjan
	obsSCCSolves.Inc()
	obsSCCComponents.Add(int64(s.ncomp))
	obsSCCTrivial.Add(int64(s.trivial))
	obsSCCLevels.Set(float64(s.nLevels))
	obsSCCMaxWidth.Set(float64(s.maxWidth))
	obsSCCTarjan.Observe(s.tarjan.Seconds())
}

// flushStats drains the engine's locally accumulated loop counts into the
// shared registry. Called once per solve, so the hot loops never touch an
// atomic.
func (e *dlEngine) flushStats() {
	if e.statProbes > 0 {
		obsProbes.Add(int64(e.statProbes))
		e.statProbes = 0
	}
	if e.statRelax > 0 {
		obsRelaxations.Add(int64(e.statRelax))
		e.statRelax = 0
	}
	if e.statMinIter > 0 {
		obsMinimizeIters.Add(int64(e.statMinIter))
		e.statMinIter = 0
	}
}
