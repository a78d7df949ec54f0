// Simulator counters on the process-global obs registry, flushed once per
// run (not per event) so the allocation-free event loop stays untouched.

package simnet

import (
	"time"

	"fsr/internal/obs"
)

var (
	obsEvents = obs.Default().Counter("fsr_simnet_events_total",
		"Events popped from the simulation heap.")
	obsArenaHighWater = obs.Default().Gauge("fsr_simnet_arena_high_water",
		"Largest event-arena size reached by any simulation run.")
	obsFaults = obs.Default().Counter("fsr_simnet_faults_injected_total",
		"Fault events processed (link down/up transitions and node restarts).")
	obsDropped = obs.Default().Counter("fsr_simnet_msgs_dropped_total",
		"Messages dropped by downed links, probabilistic loss, or restarts.")
	obsRestarts = obs.Default().Counter("fsr_simnet_node_restarts_total",
		"Node restarts processed.")
	obsConvergence = obs.Default().HistogramVec("fsr_simnet_convergence_seconds",
		"Virtual time at which a converged simulation run drained its event queue.").With()
	obsRunBytes = obs.Default().HistogramVecBuckets("fsr_simnet_run_bytes",
		"Bytes sent per simulation run.",
		[]float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}).With()
)

// flushObs records one finished (or aborted) resume loop: the events it
// processed, the arena high-water mark it drove, its fault totals, the
// bytes it sent and, when it converged at t, its convergence time. It
// merges the loop's send tally into the collector. Counters are flushed as
// deltas since the previous flush so resume can be re-entered without
// double-counting.
func (n *Network) flushObs(processed int64, converged bool, t time.Duration) {
	if processed > 0 {
		obsEvents.Add(processed)
	}
	if converged {
		obsConvergence.Observe(t.Seconds())
	}
	obsRunBytes.Observe(float64(n.tally.Bytes()))
	n.collector.Merge(&n.tally)
	obsArenaHighWater.SetMax(float64(len(n.events)))
	if d := n.faults - n.flushedFaults; d > 0 {
		obsFaults.Add(d)
		n.flushedFaults = n.faults
	}
	if d := n.dropped - n.flushedDropped; d > 0 {
		obsDropped.Add(d)
		n.flushedDropped = n.dropped
	}
	if d := n.restarts - n.flushedRestarts; d > 0 {
		obsRestarts.Add(d)
		n.flushedRestarts = n.restarts
	}
}
