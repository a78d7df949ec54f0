// Fault injection: scheduled link up/down transitions, node restarts, and
// arbitrary per-node calls, all flowing through the same value-arena event
// queue as protocol traffic so faulted runs stay deterministic and
// reproducible from the seed.
//
// Link state is per directed pair but always flipped in both directions
// (links fail whole, like a cut cable). Each directed link carries an epoch
// counter bumped on every down transition; deliveries record the epoch they
// were sent under and are discarded on mismatch, so taking a link down
// drops what was on the wire in O(1) without scanning the heap.

package simnet

import (
	"fmt"
	"time"
)

// FaultKind enumerates the injectable fault primitives.
type FaultKind uint8

const (
	// FaultLinkDown takes the A↔B link down: in-flight messages on it are
	// lost, and messages sent while it is down are lost.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp restores the A↔B link.
	FaultLinkUp
	// FaultRestart restarts node A: in-flight messages to and from it are
	// lost, its handler state is cleared (via Resetter when implemented),
	// and its Start hook runs again.
	FaultRestart
)

// String names the fault kind for reports and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultRestart:
		return "restart"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// FaultEvent is one injectable fault. A and B are the link endpoints for
// link faults; B is ignored for restarts.
type FaultEvent struct {
	Kind FaultKind
	A, B NodeID
}

// LinkObserver is an optional Handler extension: nodes implementing it are
// told when one of their links changes state, mirroring a BGP session going
// down (drop routes learned over it) and coming back up (re-advertise the
// full table). Without it, a protocol that only sends on change would never
// repair the messages lost during an outage.
// Like Receive, the hooks name the neighbour by its position in
// env.Neighbors().
type LinkObserver interface {
	// LinkDown reports that the link to the neighbour at position nb went
	// down.
	LinkDown(env Env, nb int)
	// LinkUp reports that the link to the neighbour at position nb came
	// back up.
	LinkUp(env Env, nb int)
}

// Resetter is an optional Handler extension: Reset clears all protocol
// state, returning the handler to its pre-Start condition. Node restarts
// call it before re-invoking Start.
type Resetter interface {
	Reset()
}

// ScheduleFault enqueues a fault at virtual time at. Referencing an unknown
// node or a non-existent link is an error; at must not be in the past.
func (n *Network) ScheduleFault(at time.Duration, f FaultEvent) error {
	if at < n.now {
		return fmt.Errorf("simnet: fault at %v scheduled in the past (now %v)", at, n.now)
	}
	na := n.nodes[f.A]
	if na == nil {
		return fmt.Errorf("simnet: fault %s: unknown node %s", f.Kind, f.A)
	}
	ev := event{at: at, node: na.idx}
	switch f.Kind {
	case FaultLinkDown, FaultLinkUp:
		if n.nodes[f.B] == nil {
			return fmt.Errorf("simnet: fault %s: unknown node %s", f.Kind, f.B)
		}
		li, ok := na.neighIdx[f.B]
		if !ok {
			return fmt.Errorf("simnet: fault %s: no link %s–%s", f.Kind, f.A, f.B)
		}
		ev.li = li
		if f.Kind == FaultLinkDown {
			ev.kind = evLinkDown
		} else {
			ev.kind = evLinkUp
		}
	case FaultRestart:
		ev.kind = evRestart
	default:
		return fmt.Errorf("simnet: unknown fault kind %d", f.Kind)
	}
	n.scheduleEvent(ev)
	return nil
}

// ScheduleCall enqueues fn to run on node id at virtual time at, with the
// node's Env — the hook mid-run policy changes are injected through.
func (n *Network) ScheduleCall(at time.Duration, id NodeID, fn func(Env)) error {
	if at < n.now {
		return fmt.Errorf("simnet: call at %v scheduled in the past (now %v)", at, n.now)
	}
	nd := n.nodes[id]
	if nd == nil {
		return fmt.Errorf("simnet: schedule call: unknown node %s", id)
	}
	env := nd.env
	n.scheduleTimer(at, func() { fn(env) })
	return nil
}

// LinkState reports whether the directed a→b link is currently up.
func (n *Network) LinkState(a, b NodeID) (up bool, err error) {
	na := n.nodes[a]
	if na == nil {
		return false, fmt.Errorf("simnet: unknown node %s", a)
	}
	li, ok := na.neighIdx[b]
	if !ok {
		return false, fmt.Errorf("simnet: no link %s–%s", a, b)
	}
	return !na.links[li].down, nil
}

// setDirected flips one direction of a link, bumping the epoch on a down
// transition. Reports whether the state actually changed.
func setDirected(l *link, up bool) bool {
	if l.down == !up {
		return false
	}
	l.down = !up
	if !up {
		l.epoch++
	}
	return true
}

// applyLinkState processes a link up/down fault event on node a's link at
// position li: both directions flip together, and handlers implementing
// LinkObserver on either endpoint are notified (a-side first, then b-side,
// for determinism). Redundant transitions (downing a down link) are counted
// as faults but trigger no callbacks.
func (n *Network) applyLinkState(a, li int32, up bool) {
	n.faults++
	n.lastFault = n.now
	na := n.byIdx[a]
	l := &na.links[li]
	nb := n.byIdx[l.dst]
	changed := setDirected(l, up)
	setDirected(&nb.links[l.rev], up)
	if !changed {
		return
	}
	notifyLink(na, int(li), up)
	notifyLink(nb, int(l.rev), up)
}

// notifyLink invokes the node's LinkObserver hook, if implemented, for its
// neighbour at position neighbor.
func notifyLink(nd *node, neighbor int, up bool) {
	obs, ok := nd.handler.(LinkObserver)
	if !ok {
		return
	}
	if up {
		obs.LinkUp(nd.env, neighbor)
	} else {
		obs.LinkDown(nd.env, neighbor)
	}
}

// applyRestart processes a node restart: every in-flight message to or from
// the node is voided (epoch bumps on all incident directed links), its
// neighbors see the adjacency bounce (LinkDown, then LinkUp after the node
// is back), and the node's own handler state is cleared via Resetter before
// Start runs again. Links already down by a separate fault stay down and
// their neighbors are not re-notified.
func (n *Network) applyRestart(idx int32) {
	n.faults++
	n.restarts++
	n.lastFault = n.now
	nd := n.byIdx[idx]
	for i := range nd.links {
		l := &nd.links[i]
		nb := n.byIdx[l.dst]
		l.epoch++
		nb.links[l.rev].epoch++
		if !l.down {
			notifyLink(nb, int(l.rev), false)
		}
	}
	if r, ok := nd.handler.(Resetter); ok {
		r.Reset()
	}
	nd.handler.Start(nd.env)
	for i := range nd.links {
		if l := &nd.links[i]; !l.down {
			notifyLink(n.byIdx[l.dst], int(l.rev), true)
		}
	}
}
