// Emitter introspection: which route Analyze took, how often solver-variable
// names collided, and where sharded emission time goes.
//
// Histogram and counter handles are pre-resolved at init so the per-shard
// timing observes are label-lookup-free — the emission passes run at
// memory bandwidth and must stay there.

package spp

import (
	"time"

	"fsr/internal/obs"
)

var (
	obsScalePath = obs.Default().CounterVec("fsr_spp_scale_path_total",
		"Analyze outcomes by route taken: dense = sat on dense ids; resolve = dense unsat, core minimised on dense ids.", "path")
	// dense: sat decided entirely on the dense id encoding.
	obsPathDense = obsScalePath.With("dense")
	// resolve: unsat on the dense id encoding, the core minimised there too
	// and only its members materialized (the label name is what dashboards
	// and smoke scripts already key on).
	obsPathResolve = obsScalePath.With("resolve")

	obsShardCollisions = obs.Default().Counter("fsr_spp_shard_collisions_total",
		"Instances whose solver-variable names collided (suffixed, or rejected as duplicate paths).")

	obsShardEmit = obs.Default().HistogramVec("fsr_spp_shard_emit_seconds",
		"Sharded emission pass latency by stage.", "stage")
	obsEmitDensePref = obsShardEmit.With("dense-pref")
	obsEmitDenseMono = obsShardEmit.With("dense-mono")
	obsEmitSyms      = obsShardEmit.With("syms")
	obsEmitPref      = obsShardEmit.With("pref")
	obsEmitMono      = obsShardEmit.With("mono")
)

// timeEmit observes one emission pass's duration on a pre-resolved stage
// handle: t := time.Now() ... defer-free, called at pass exit.
func timeEmit(h *obs.HistogramHandle, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
