// Package hlp implements the Hybrid Link-state Path-vector protocol
// (Subramanian et al., SIGCOMM 2005) used as FSR's alternative routing
// mechanism in §VI-D: ordinary link-state routing inside each
// customer-provider hierarchy (domain), and a fragmented path-vector (FPV)
// across hierarchies in which internal paths are hidden and only
// (destination domain, domain path, cost) travels. Cost hiding suppresses
// re-advertisements whose cost changed by less than a threshold (the paper
// sets 5), trading optimality inside the hierarchy for update suppression.
//
// The paper implements HLP in 10 NDlog rules (11 with cost hiding); this
// package is the native-Go counterpart running on simnet, and NDlogListing
// reproduces the declarative form for reference.
package hlp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"fsr/internal/simnet"
)

// LSA is an intra-domain link-state advertisement: the origin router's
// weighted adjacencies within its domain, stamped with a sequence number.
type LSA struct {
	Origin simnet.NodeID
	Seq    int
	Adj    []Adjacency
}

// Adjacency is one weighted intra-domain link of an LSA.
type Adjacency struct {
	To     simnet.NodeID
	Weight int
}

// FPV is a fragmented path-vector announcement: destination domain,
// AS-level (domain) path, and the advertised cost at the announcing border
// router. Internal router-level paths are hidden — that is HLP's point.
type FPV struct {
	DestDomain string
	DomainPath []string
	Cost       int
	// Border is the router (within the receiving domain after internal
	// flooding) where the route enters the domain.
	Border simnet.NodeID
	// Via is the external peer the route was learned from at the border;
	// candidates are kept per (border, via, path), the per-neighbor RIB
	// that makes replacement idempotent.
	Via simnet.NodeID
}

// WireSize of an LSA: header plus per-adjacency entries.
func (l LSA) WireSize() int { return 16 + 8*len(l.Adj) }

// WireSize of an FPV: header plus per-domain entries — much smaller than a
// router-level path, which is where HLP saves bandwidth.
func (f FPV) WireSize() int { return 20 + 6*len(f.DomainPath) }

func init() {
	simnet.RegisterPayload(LSA{})
	simnet.RegisterPayload(FPV{})
}

// Config parameterizes one HLP router.
type Config struct {
	// Domain is the customer-provider hierarchy this router belongs to.
	Domain string
	// DomainOf maps each neighbor to its domain; neighbors in a different
	// domain are inter-domain peers speaking FPV.
	DomainOf map[simnet.NodeID]string
	// Weight maps intra-domain neighbors to link weights.
	Weight map[simnet.NodeID]int
	// OriginDomains lists destination domains this router originates
	// (typically its own domain at the top provider).
	OriginDomains []string
	// CostHiding, when positive, suppresses external re-advertisements
	// whose cost differs from the last advertised by less than the
	// threshold (§VI-D uses 5). Zero disables hiding (plain HLP).
	CostHiding int
	// BatchInterval batches protocol sends like the GPV runs.
	BatchInterval time.Duration
	// StartStagger randomizes protocol start per node.
	StartStagger time.Duration
}

// Node is one HLP router.
type Node struct {
	cfg  Config
	self simnet.NodeID
	// lsdb is the intra-domain link-state database.
	lsdb map[simnet.NodeID]LSA
	// advPaths records the domain path last advertised per (peer, dest) so
	// cost hiding only suppresses same-path cost jitter, never a path
	// change.
	advPaths map[simnet.NodeID]map[string][]string
	// routes[destDomain][key] are FPV candidates heard at this router
	// (from external peers directly, or flooded internally).
	routes map[string]map[string]FPV
	// best[destDomain] is the current selection.
	best map[string]FPV
	// lastAdvertised[peer][destDomain] is the cost last advertised to an
	// external peer (cost-hiding bookkeeping); -1 means a route was never
	// advertised.
	lastAdvertised map[simnet.NodeID]map[string]int

	outLSA  []LSA
	outFPV  map[simnet.NodeID][]FPV
	flushOn bool
	// pos maps a peer's name to its position in env.Neighbors(), which Send
	// takes. Built on the first flush.
	pos map[simnet.NodeID]int
}

var _ simnet.Handler = (*Node)(nil)

// NewNode builds an HLP router.
func NewNode(cfg Config) *Node {
	return &Node{
		cfg:            cfg,
		lsdb:           map[simnet.NodeID]LSA{},
		routes:         map[string]map[string]FPV{},
		best:           map[string]FPV{},
		lastAdvertised: map[simnet.NodeID]map[string]int{},
		outFPV:         map[simnet.NodeID][]FPV{},
	}
}

// Best returns the selected route for a destination domain.
func (n *Node) Best(destDomain string) (FPV, bool) {
	f, ok := n.best[destDomain]
	return f, ok
}

// intraNeighbors returns same-domain neighbors; interNeighbors the rest.
func (n *Node) intraNeighbors(env simnet.Env) []simnet.NodeID {
	var out []simnet.NodeID
	for _, nb := range env.Neighbors() {
		if n.cfg.DomainOf[nb] == n.cfg.Domain {
			out = append(out, nb)
		}
	}
	return out
}

func (n *Node) interNeighbors(env simnet.Env) []simnet.NodeID {
	var out []simnet.NodeID
	for _, nb := range env.Neighbors() {
		if n.cfg.DomainOf[nb] != n.cfg.Domain {
			out = append(out, nb)
		}
	}
	return out
}

// Start implements simnet.Handler: flood the own LSA and originate FPV
// routes for the configured destination domains.
func (n *Node) Start(env simnet.Env) {
	start := func() {
		n.self = env.Self()
		var adj []Adjacency
		for _, nb := range n.intraNeighbors(env) {
			w := n.cfg.Weight[nb]
			if w == 0 {
				w = 1
			}
			adj = append(adj, Adjacency{To: nb, Weight: w})
		}
		own := LSA{Origin: env.Self(), Seq: 1, Adj: adj}
		n.lsdb[env.Self()] = own
		n.outLSA = append(n.outLSA, own)
		for _, d := range n.cfg.OriginDomains {
			// Origination carries an empty domain path; propagate appends
			// the own domain on the way out.
			n.storeRoute(env, FPV{DestDomain: d, Cost: 0, Border: env.Self(), Via: env.Self()})
		}
		n.scheduleFlush(env)
	}
	if n.cfg.StartStagger > 0 {
		env.Schedule(time.Duration(env.Rand().Int63n(int64(n.cfg.StartStagger))), start)
	} else {
		start()
	}
}

// Receive implements simnet.Handler. The FPV rules name the sender, so its
// position is translated back to its name.
func (n *Node) Receive(env simnet.Env, from int, payload any) {
	switch m := payload.(type) {
	case LSA:
		if have, ok := n.lsdb[m.Origin]; ok && have.Seq >= m.Seq {
			return // already known: flooding terminates
		}
		n.lsdb[m.Origin] = m
		n.outLSA = append(n.outLSA, m)
		n.scheduleFlush(env)
		// Internal distances changed: reselect every destination.
		for d := range n.routes {
			n.reselect(env, d)
		}
	case FPV:
		n.receiveFPV(env, env.Neighbors()[from], m)
	default:
		panic(fmt.Sprintf("hlp: unexpected payload %T", payload))
	}
}

func (n *Node) receiveFPV(env simnet.Env, from simnet.NodeID, f FPV) {
	fromDomain := n.cfg.DomainOf[from]
	if fromDomain != n.cfg.Domain {
		// External announcement arriving at this border router: loop-check
		// on the domain path, then adopt with ourselves as border.
		for _, d := range f.DomainPath {
			if d == n.cfg.Domain {
				return
			}
		}
		f.Border = env.Self()
		f.Via = from
	}
	// Internal flood or adopted external: store keyed by (border, via,
	// domain path) — a peer's re-announcement replaces its previous one.
	n.storeRoute(env, f)
}

func (n *Node) storeRoute(env simnet.Env, f FPV) {
	// Every domain is followed by "/": reselect's tie-break order.
	key := string(f.Border) + "|" + string(f.Via) + "|" + strings.Join(append(slices.Clip(f.DomainPath), ""), "/")
	if n.routes[f.DestDomain] == nil {
		n.routes[f.DestDomain] = map[string]FPV{}
	}
	old, had := n.routes[f.DestDomain][key]
	if had && old.Cost == f.Cost {
		return
	}
	n.routes[f.DestDomain][key] = f
	n.reselect(env, f.DestDomain)
}

// internalDist computes this router's shortest-path distance to another
// router of its domain over the link-state database (Dijkstra).
func (n *Node) internalDist(to simnet.NodeID) (int, bool) {
	if to == "" {
		return 0, false
	}
	const inf = 1 << 30
	dist := map[simnet.NodeID]int{n.self: 0}
	visited := map[simnet.NodeID]bool{}
	for {
		cur, curD := simnet.NodeID(""), inf
		for node, d := range dist {
			if !visited[node] && d < curD {
				cur, curD = node, d
			}
		}
		if cur == "" {
			return 0, false
		}
		if cur == to {
			return curD, true
		}
		visited[cur] = true
		lsa, ok := n.lsdb[cur]
		if !ok {
			continue
		}
		for _, a := range lsa.Adj {
			if nd := curD + a.Weight; nd < distOr(dist, a.To) {
				dist[a.To] = nd
			}
		}
	}
}

func distOr(m map[simnet.NodeID]int, k simnet.NodeID) int {
	if v, ok := m[k]; ok {
		return v
	}
	return 1 << 30
}

// totalCost is the route's cost as seen from this router: the advertised
// cost at the border plus the internal distance to the border.
func (n *Node) totalCost(f FPV) (int, bool) {
	if f.Border == n.self {
		return f.Cost, true
	}
	d, ok := n.internalDist(f.Border)
	if !ok {
		return 0, false
	}
	return f.Cost + d, true
}

// reselect recomputes the best route for a destination domain: lowest total
// cost, then shortest domain path, then deterministic order.
func (n *Node) reselect(env simnet.Env, destDomain string) {
	var best FPV
	bestCost := -1
	keys := make([]string, 0, len(n.routes[destDomain]))
	for k := range n.routes[destDomain] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := n.routes[destDomain][k]
		c, ok := n.totalCost(f)
		if !ok {
			continue
		}
		if bestCost < 0 || c < bestCost ||
			(c == bestCost && len(f.DomainPath) < len(best.DomainPath)) {
			best, bestCost = f, c
		}
	}
	if bestCost < 0 {
		return
	}
	prev, had := n.best[destDomain]
	prevCost := 0
	if had {
		prevCost, _ = n.totalCost(prev)
	}
	if had && prev.Border == best.Border && slices.Equal(prev.DomainPath, best.DomainPath) && prevCost == bestCost {
		return
	}
	n.best[destDomain] = best
	n.propagate(env, destDomain, best, bestCost)
}

// propagate floods the selection internally and re-advertises it externally
// (with cost hiding on the external side).
func (n *Node) propagate(env simnet.Env, destDomain string, f FPV, cost int) {
	// Internal flood: forward the entering announcement unchanged (cost at
	// border); internal receivers compute their own total.
	for _, nb := range n.intraNeighbors(env) {
		n.outFPV[nb] = append(n.outFPV[nb], f)
	}
	// External: announce (dest, path + own domain, total cost at me).
	ext := FPV{
		DestDomain: destDomain,
		DomainPath: append(append([]string{}, f.DomainPath...), n.cfg.Domain),
		Cost:       cost,
	}
	for _, nb := range n.interNeighbors(env) {
		last := -1
		if m := n.lastAdvertised[nb]; m != nil {
			if v, ok := m[destDomain]; ok {
				last = v
			}
		}
		if last >= 0 && samePathAdvertised(n, nb, destDomain, ext.DomainPath) {
			diff := cost - last
			if diff < 0 {
				diff = -diff
			}
			// Identical re-announcements are always suppressed; with cost
			// hiding enabled, announcements within the threshold are too.
			if diff == 0 || diff < n.cfg.CostHiding {
				continue
			}
		}
		if n.lastAdvertised[nb] == nil {
			n.lastAdvertised[nb] = map[string]int{}
		}
		n.lastAdvertised[nb][destDomain] = cost
		rememberPath(n, nb, destDomain, ext.DomainPath)
		n.outFPV[nb] = append(n.outFPV[nb], ext)
	}
	n.scheduleFlush(env)
}

func rememberPath(n *Node, nb simnet.NodeID, dest string, path []string) {
	if n.advPaths == nil {
		n.advPaths = map[simnet.NodeID]map[string][]string{}
	}
	if n.advPaths[nb] == nil {
		n.advPaths[nb] = map[string][]string{}
	}
	n.advPaths[nb][dest] = path
}

func samePathAdvertised(n *Node, nb simnet.NodeID, dest string, path []string) bool {
	if n.advPaths == nil || n.advPaths[nb] == nil {
		return false
	}
	return slices.Equal(n.advPaths[nb][dest], path)
}

// scheduleFlush batches LSA and FPV sends, jittered like GPV batching.
func (n *Node) scheduleFlush(env simnet.Env) {
	if n.flushOn {
		return
	}
	n.flushOn = true
	d := n.cfg.BatchInterval
	if d > 0 {
		d += time.Duration(env.Rand().Int63n(int64(d)/2 + 1))
	}
	env.Schedule(d, func() {
		n.flushOn = false
		lsas := n.outLSA
		n.outLSA = nil
		for _, l := range lsas {
			for i, nb := range env.Neighbors() {
				if n.cfg.DomainOf[nb] == n.cfg.Domain {
					env.Send(i, l, l.WireSize())
				}
			}
		}
		out := n.outFPV
		n.outFPV = map[simnet.NodeID][]FPV{}
		if n.pos == nil {
			n.pos = simnet.Positions(env)
		}
		for _, nb := range sortedIDs(out) {
			for _, f := range out[nb] {
				env.Send(n.pos[nb], f, f.WireSize())
			}
		}
	})
}

func sortedIDs(m map[simnet.NodeID][]FPV) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
