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
	"time"

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
	n.dirty = n.dirty[:0]
	n.flushScheduled = false
	n.started = false
}

// LinkDown implements simnet.LinkObserver: the session to nb is gone, so
// every candidate learned from it is invalid (BGP session teardown,
// RFC 4271 §6.7: delete all routes from the peer).
func (n *Node) LinkDown(env simnet.Env, nb simnet.NodeID) {
	n.bind(env)
	s := n.slotFor(nb)
	for _, dest := range sortedNeighbors(n.dests) {
		n.dropCandidate(env, n.dests[dest], s)
	}
}

// LinkUp implements simnet.LinkObserver: the session to nb is back. Forget
// the Adj-RIB-Out bookkeeping for it and mark every selected destination
// dirty so the next flush re-advertises the full table to the rejoined
// peer (duplicate suppression keeps the other neighbors quiet).
func (n *Node) LinkUp(env simnet.Env, nb simnet.NodeID) {
	n.bind(env)
	s := n.slotFor(nb)
	for _, dest := range sortedNeighbors(n.dests) {
		e := n.dests[dest]
		e.slots[s].hasSent = false
		if e.hasBest {
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
	for _, rt := range n.cfg.Originations {
		if on {
			n.store(env, n.entryFor(rt.Dest), n.selfSlot(), rt)
		} else {
			n.dropCandidate(env, n.dests[rt.Dest], n.selfSlot())
		}
	}
}

// SelectionChanges returns how many times the node's selection changed for
// any destination, cumulative across restarts. Under churn, a node whose
// count keeps growing is oscillating.
func (n *Node) SelectionChanges() int64 { return n.changes }

// LastSelectionChange returns the instant of the most recent selection
// change (zero if none). The maximum over all nodes is the network's
// route-settling time.
func (n *Node) LastSelectionChange() time.Duration { return n.lastChange }
