// Package topology generates the evaluation topologies of §VI. The paper
// uses the CAIDA AS-relationship dataset (Figure 4) and the Rocketfuel
// AS 1755 map (Figure 5); neither ships with this reproduction, so seeded
// generators synthesize graphs with the structural properties the
// experiments exercise: annotated customer-provider hierarchies with a
// controllable longest chain, and an 87-router / 322-link weighted ISP
// backbone with a 6-level route-reflector hierarchy. All generation is
// deterministic in the seed.
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Relationship classifies an AS-level edge.
type Relationship int

const (
	// CustomerProvider: the first endpoint is the provider of the second.
	CustomerProvider Relationship = iota
	// PeerPeer: settlement-free peers.
	PeerPeer
)

// ASEdge is one annotated AS-level adjacency.
type ASEdge struct {
	A, B string
	Rel  Relationship // CustomerProvider: A provides transit to B
}

// ASGraph is an annotated AS-level topology (the CAIDA substitute).
type ASGraph struct {
	Nodes []string
	Edges []ASEdge
	// Level[n] is the hierarchy depth of node n (0 = root provider).
	Level map[string]int
	// Depth is the length of the longest customer-provider chain.
	Depth int
}

// HierarchyParams tunes GenerateHierarchy.
type HierarchyParams struct {
	// Depth is the longest customer-provider chain (the Figure 4 x-axis,
	// 3–16 in the paper).
	Depth int
	// Width caps the number of ASes per level (default 4).
	Width int
	// PeerProb is the probability of a peer link between same-level ASes
	// (default 0.3); peer links at the leaves are what lets convergence
	// beat the theoretical worst case in §VI-A.
	PeerProb float64
	// MultihomeProb is the probability a non-root AS has a second provider
	// (default 0.4).
	MultihomeProb float64
}

// GenerateHierarchy synthesizes an annotated AS hierarchy with the given
// longest customer-provider chain, substituting for the CAIDA subgraph
// extraction of §VI-A (root AS selected, stubs pruned, subgraph of
// peer/customer-reachable ASes).
func GenerateHierarchy(seed int64, p HierarchyParams) *ASGraph {
	if p.Depth < 1 {
		p.Depth = 1
	}
	if p.Width <= 0 {
		p.Width = 4
	}
	if p.PeerProb == 0 {
		p.PeerProb = 0.3
	}
	if p.MultihomeProb == 0 {
		p.MultihomeProb = 0.4
	}
	rng := rand.New(rand.NewSource(seed))
	g := &ASGraph{Level: map[string]int{}, Depth: p.Depth}

	var levels [][]string
	for lvl := 0; lvl <= p.Depth; lvl++ {
		width := 1
		if lvl > 0 {
			width = 2 + rng.Intn(p.Width-1)
			if lvl == 1 {
				width = 2
			}
		}
		var level []string
		for i := 0; i < width; i++ {
			name := fmt.Sprintf("as%d_%d", lvl, i)
			level = append(level, name)
			g.Nodes = append(g.Nodes, name)
			g.Level[name] = lvl
		}
		levels = append(levels, level)
	}
	// Providers: every AS below the root has one or two providers in the
	// level above — the chain as0_0 → as1_0 → … guarantees the exact depth.
	for lvl := 1; lvl <= p.Depth; lvl++ {
		for i, n := range levels[lvl] {
			prov := levels[lvl-1][i%len(levels[lvl-1])]
			g.Edges = append(g.Edges, ASEdge{A: prov, B: n, Rel: CustomerProvider})
			if rng.Float64() < p.MultihomeProb && len(levels[lvl-1]) > 1 {
				alt := levels[lvl-1][(i+1)%len(levels[lvl-1])]
				g.Edges = append(g.Edges, ASEdge{A: alt, B: n, Rel: CustomerProvider})
			}
		}
	}
	// Peer links within a level.
	for lvl := 1; lvl <= p.Depth; lvl++ {
		level := levels[lvl]
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				if rng.Float64() < p.PeerProb {
					g.Edges = append(g.Edges, ASEdge{A: level[i], B: level[j], Rel: PeerPeer})
				}
			}
		}
	}
	return g
}

// Class returns the relationship class of neighbor v from u's perspective:
// "c" when v is u's customer, "p" when v is u's provider, "r" for peers and
// "" when not adjacent. This is the receiver-side label orientation the GPV
// protocol uses.
func (g *ASGraph) Class(u, v string) string {
	for _, e := range g.Edges {
		switch {
		case e.A == u && e.B == v:
			if e.Rel == CustomerProvider {
				return "c"
			}
			return "r"
		case e.A == v && e.B == u:
			if e.Rel == CustomerProvider {
				return "p"
			}
			return "r"
		}
	}
	return ""
}

// ClassMap precomputes Class(u, v) for every adjacent pair (first edge
// wins, matching Class's scan order), for callers that classify edges
// inside inner loops — Class itself is a linear scan over g.Edges.
func (g *ASGraph) ClassMap() map[[2]string]string {
	m := make(map[[2]string]string, 2*len(g.Edges))
	set := func(u, v, c string) {
		k := [2]string{u, v}
		if _, ok := m[k]; !ok {
			m[k] = c
		}
	}
	for _, e := range g.Edges {
		if e.Rel == CustomerProvider {
			set(e.A, e.B, "c")
			set(e.B, e.A, "p")
		} else {
			set(e.A, e.B, "r")
			set(e.B, e.A, "r")
		}
	}
	return m
}

// Adjacency returns each node's neighbors in a stable order.
func (g *ASGraph) Adjacency() map[string][]string {
	adj := map[string][]string{}
	add := func(a, b string) {
		adj[a] = append(adj[a], b)
	}
	for _, e := range g.Edges {
		add(e.A, e.B)
		add(e.B, e.A)
	}
	for _, ns := range adj {
		sort.Strings(ns)
	}
	return adj
}

// WLink is a weighted undirected link of a router-level topology.
type WLink struct {
	A, B   string
	Weight int
}

// RouterGraph is a weighted intradomain topology with a route-reflector
// hierarchy (the Rocketfuel AS 1755 substitute: 87 routers, 322 links, 6
// reflector levels, 53 reflectors).
type RouterGraph struct {
	Routers []string
	Links   []WLink
	// ReflectorLevel maps reflector routers to their hierarchy level
	// (1..6); client routers are absent from the map.
	ReflectorLevel map[string]int
}

// ISPParams tunes GenerateISP; the defaults reproduce the §VI-B shape.
type ISPParams struct {
	Routers    int // default 87
	Links      int // default 322
	Reflectors int // default 53
	Levels     int // default 6
	MaxWeight  int // default 20
}

// GenerateISP synthesizes a connected weighted router graph with a
// reflector hierarchy. Construction: a random spanning tree for
// connectivity, random extra links up to the target count, weights uniform
// in [1, MaxWeight], reflectors chosen as the highest-degree routers and
// leveled by BFS depth from the highest-degree core router.
func GenerateISP(seed int64, p ISPParams) *RouterGraph {
	if p.Routers == 0 {
		p.Routers = 87
	}
	if p.Links == 0 {
		p.Links = 322
	}
	if p.Reflectors == 0 {
		p.Reflectors = 53
	}
	if p.Levels == 0 {
		p.Levels = 6
	}
	if p.MaxWeight == 0 {
		p.MaxWeight = 20
	}
	rng := rand.New(rand.NewSource(seed))
	g := &RouterGraph{ReflectorLevel: map[string]int{}}
	for i := 0; i < p.Routers; i++ {
		g.Routers = append(g.Routers, fmt.Sprintf("rt%02d", i))
	}
	haveLink := map[[2]string]bool{}
	addLink := func(a, b string) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		if haveLink[[2]string{a, b}] {
			return false
		}
		haveLink[[2]string{a, b}] = true
		g.Links = append(g.Links, WLink{A: a, B: b, Weight: 1 + rng.Intn(p.MaxWeight)})
		return true
	}
	// Random spanning tree.
	perm := rng.Perm(p.Routers)
	for i := 1; i < p.Routers; i++ {
		a := g.Routers[perm[i]]
		b := g.Routers[perm[rng.Intn(i)]]
		addLink(a, b)
	}
	for len(g.Links) < p.Links {
		addLink(g.Routers[rng.Intn(p.Routers)], g.Routers[rng.Intn(p.Routers)])
	}
	// Reflectors: highest-degree routers, leveled by BFS depth from the
	// densest core router, clamped to the level budget.
	deg := map[string]int{}
	adj := map[string][]string{}
	for _, l := range g.Links {
		deg[l.A]++
		deg[l.B]++
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, ns := range adj {
		sort.Strings(ns)
	}
	byDeg := append([]string(nil), g.Routers...)
	sort.Slice(byDeg, func(i, j int) bool {
		if deg[byDeg[i]] != deg[byDeg[j]] {
			return deg[byDeg[i]] > deg[byDeg[j]]
		}
		return byDeg[i] < byDeg[j]
	})
	core := byDeg[0]
	depth := bfsDepth(adj, core)
	for i := 0; i < p.Reflectors && i < len(byDeg); i++ {
		r := byDeg[i]
		lvl := depth[r]
		if lvl < 1 {
			lvl = 1
		}
		if lvl > p.Levels {
			lvl = p.Levels
		}
		g.ReflectorLevel[r] = lvl
	}
	return g
}

func bfsDepth(adj map[string][]string, root string) map[string]int {
	depth := map[string]int{root: 1}
	queue := []string{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if _, seen := depth[m]; !seen {
				depth[m] = depth[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return depth
}

// WeightedAdjacency builds the both-direction weighted adjacency of an
// undirected link set, neighbors in a stable (name) order. Each entry's A
// field is the owning node, so adj[n][i].B is n's i-th neighbor.
func WeightedAdjacency(links []WLink) map[string][]WLink {
	adj := map[string][]WLink{}
	for _, l := range links {
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], WLink{A: l.B, B: l.A, Weight: l.Weight})
	}
	for _, nbs := range adj {
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].B < nbs[j].B })
	}
	return adj
}

// ShortestPathTree runs a deterministic Dijkstra rooted at src over a
// WeightedAdjacency, returning distances and the parent pointers of the
// shortest-path tree. Ties — both in extraction order and in parent choice —
// are broken by node name, so equal inputs rebuild equal trees regardless
// of map iteration order. Linear extraction keeps the code dependency-free;
// the generated graphs are small (≤ a few hundred routers).
func ShortestPathTree(adj map[string][]WLink, src string) (map[string]int, map[string]string) {
	const inf = 1 << 30
	dist := map[string]int{src: 0}
	parent := map[string]string{}
	done := map[string]bool{}
	for {
		best, bestD := "", inf
		for n, d := range dist {
			if !done[n] && (d < bestD || (d == bestD && n < best)) {
				best, bestD = n, d
			}
		}
		if best == "" {
			return dist, parent
		}
		done[best] = true
		for _, l := range adj[best] {
			nd := bestD + l.Weight
			if d, ok := dist[l.B]; !ok || nd < d || (nd == d && best < parent[l.B]) {
				dist[l.B] = nd
				parent[l.B] = best
			}
		}
	}
}

// SessionGraph returns the iBGP session topology: sessions along every
// physical link with a reflector endpoint (clients peer with reflectors,
// reflectors mesh along the backbone).
func (g *RouterGraph) SessionGraph() []WLink {
	var out []WLink
	for _, l := range g.Links {
		_, ra := g.ReflectorLevel[l.A]
		_, rb := g.ReflectorLevel[l.B]
		if ra || rb {
			out = append(out, l)
		}
	}
	return out
}
