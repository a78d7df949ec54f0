// Protocol counters on the process-global obs registry. A node counts in
// plain integers and its runner flushes them once per run, so the
// per-message path touches no atomic.

package pathvector

import "fsr/internal/obs"

var (
	obsAdverts   = obs.Default().Counter("fsr_pathvector_adverts_sent_total", "Route advertisements sent.")
	obsWithdraws = obs.Default().Counter("fsr_pathvector_withdraws_sent_total", "Withdraws sent.")
	obsChanges   = obs.Default().Counter("fsr_pathvector_selection_changes_total", "Selection changes.")
	obsRejected  = obs.Default().CounterVec("fsr_pathvector_rejected_total",
		"Received advertisements rejected: loop (the path contains the receiver) or filter (import filter, prohibited or unknown signature, path-length cap).", "reason")
	obsRejectedLoop, obsRejectedFilter = obsRejected.With("loop"), obsRejected.With("filter")
)

// FlushObs adds what the node counted since its last flush to the registry.
func (n *Node) FlushObs() {
	obsAdverts.Add(n.advertsSent)
	obsWithdraws.Add(n.withdrawsSent)
	obsRejectedLoop.Add(float64(n.loopRejects))
	obsRejectedFilter.Add(float64(n.filterRejects))
	obsChanges.Add(n.changes - n.flushedChanges)
	n.advertsSent, n.withdrawsSent, n.loopRejects, n.filterRejects = 0, 0, 0, 0
	n.flushedChanges = n.changes
}
