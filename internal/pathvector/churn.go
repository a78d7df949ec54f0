// Churn support: the optional simnet fault-injection hooks (Resetter,
// LinkObserver) implemented with BGP session semantics, plus the
// origination flap used as the mid-run policy-change fault and the
// selection-change accounting the campaign driver reads to find
// oscillating nodes.
//
// GPV only transmits on selection change, so a message lost while a link
// was down would never be repaired on its own. The LinkUp hook models BGP
// session re-establishment: forget what the neighbor was last sent and
// re-advertise the full table, which is exactly the repair real routers
// perform after a session reset (RFC 4271 §6.7: resend the entire Adj-RIB-Out).

package pathvector

import (
	"maps"
	"slices"

	"fsr/internal/simnet"
)

var (
	_ simnet.Resetter     = (*Node)(nil)
	_ simnet.LinkObserver = (*Node)(nil)
)

// Reset implements simnet.Resetter: clear all protocol state, as a router
// losing its RIB on restart. Configuration (including an origination
// disable from SetOriginationsEnabled, which models a config change), the
// neighbour slots and the cumulative counters survive.
func (n *Node) Reset() {
	n.dests = map[simnet.NodeID]*entry{}
	n.last = nil
	n.dirty = n.dirty[:0]
	n.flushScheduled = false
	n.started = false
}

// LinkDown implements simnet.LinkObserver: the session to the neighbour at
// position nb (its slot) is gone, so every candidate learned from it is
// invalid (BGP session teardown, RFC 4271 §6.7: delete all routes from the
// peer).
func (n *Node) LinkDown(env simnet.Env, nb int) {
	n.bind(env)
	for _, dest := range slices.Sorted(maps.Keys(n.dests)) {
		n.dropCandidate(env, n.dests[dest], int32(nb))
	}
}

// LinkUp implements simnet.LinkObserver: the session to the neighbour at
// position nb is back. Forget the Adj-RIB-Out bookkeeping for it and mark
// every selected destination dirty so the next flush re-advertises the full
// table to the rejoined peer (duplicate suppression keeps the other
// neighbors quiet).
func (n *Node) LinkUp(env simnet.Env, nb int) {
	n.bind(env)
	for _, dest := range slices.Sorted(maps.Keys(n.dests)) {
		e := n.dests[dest]
		e.slots[nb].sent = nil
		if e.best != nil {
			n.markDirty(env, e)
		}
	}
}

// SetOriginationsEnabled toggles the node's externally learned routes
// (Config.Originations) mid-run — the policy-change fault: disabling
// withdraws them from the network, re-enabling re-injects them. Idempotent.
// Self-origination is not affected.
func (n *Node) SetOriginationsEnabled(env simnet.Env, on bool) {
	if on == !n.origsOff {
		return
	}
	n.origsOff = !on
	if !n.started {
		return // Start (or the restart re-Start) honors origsOff.
	}
	for _, rt := range n.origs {
		if on {
			n.store(env, n.entryFor(rt.dest), n.selfSlot(), rt)
		} else {
			n.dropCandidate(env, n.dests[rt.dest], n.selfSlot())
		}
	}
}

// SelectionChanges returns how many times the node's selection changed for
// any destination, cumulative across restarts. Under churn, a node whose
// count keeps growing is oscillating.
func (n *Node) SelectionChanges() int64 { return n.changes }
