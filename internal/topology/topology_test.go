package topology

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestHierarchyDepth: the generated hierarchy realizes the requested
// longest customer-provider chain and annotates every edge.
func TestHierarchyDepth(t *testing.T) {
	for _, depth := range []int{3, 8, 16} {
		g := GenerateHierarchy(1, HierarchyParams{Depth: depth})
		if g.Depth != depth {
			t.Errorf("depth %d: got %d", depth, g.Depth)
		}
		maxLevel := 0
		for _, lvl := range g.Level {
			if lvl > maxLevel {
				maxLevel = lvl
			}
		}
		if maxLevel != depth {
			t.Errorf("depth %d: deepest level %d", depth, maxLevel)
		}
		// The chain as0_0 → as1_0 → … guarantees the exact depth.
		for lvl := 1; lvl <= depth; lvl++ {
			found := false
			for _, e := range g.Edges {
				if e.Rel == CustomerProvider && g.Level[e.A] == lvl-1 && g.Level[e.B] == lvl {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("depth %d: no provider edge into level %d", depth, lvl)
			}
		}
	}
}

// TestHierarchyClasses: Class is antisymmetric for provider edges and
// symmetric for peers.
func TestHierarchyClasses(t *testing.T) {
	g := GenerateHierarchy(2, HierarchyParams{Depth: 5})
	for _, e := range g.Edges {
		switch e.Rel {
		case CustomerProvider:
			if g.Class(e.A, e.B) != "c" || g.Class(e.B, e.A) != "p" {
				t.Errorf("provider edge %s→%s classes %s/%s", e.A, e.B, g.Class(e.A, e.B), g.Class(e.B, e.A))
			}
		case PeerPeer:
			if g.Class(e.A, e.B) != "r" || g.Class(e.B, e.A) != "r" {
				t.Errorf("peer edge %s–%s classes %s/%s", e.A, e.B, g.Class(e.A, e.B), g.Class(e.B, e.A))
			}
		}
	}
	if g.Class("as0_0", "nonexistent") != "" {
		t.Errorf("non-adjacent pairs have no class")
	}
}

// TestHierarchyDeterminism (property): same seed, same graph.
func TestHierarchyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := GenerateHierarchy(seed, HierarchyParams{Depth: 6})
		b := GenerateHierarchy(seed, HierarchyParams{Depth: 6})
		if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
			return false
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestISPShape: the generated ISP matches the §VI-B shape: 87 routers, 322
// links, 53 reflectors across at most 6 levels, connected.
func TestISPShape(t *testing.T) {
	g := GenerateISP(1, ISPParams{})
	if len(g.Routers) != 87 {
		t.Errorf("routers = %d, want 87", len(g.Routers))
	}
	if len(g.Links) != 322 {
		t.Errorf("links = %d, want 322", len(g.Links))
	}
	if len(g.ReflectorLevel) != 53 {
		t.Errorf("reflectors = %d, want 53", len(g.ReflectorLevel))
	}
	for r, lvl := range g.ReflectorLevel {
		if lvl < 1 || lvl > 6 {
			t.Errorf("reflector %s at level %d", r, lvl)
		}
	}
	// Connectivity via IGP costs: every pair reachable.
	igp := allPairsIGP(g)
	for _, a := range g.Routers {
		for _, b := range g.Routers {
			if _, ok := igp[a][b]; !ok {
				t.Fatalf("%s cannot reach %s", a, b)
			}
		}
	}
}

// allPairsIGP runs ShortestPathTree from every router: the pairwise IGP
// costs §VI-B precomputes.
func allPairsIGP(g *RouterGraph) map[string]map[string]int {
	adj := WeightedAdjacency(g.Links)
	out := map[string]map[string]int{}
	for _, src := range g.Routers {
		out[src], _ = ShortestPathTree(adj, src)
	}
	return out
}

// TestIGPTriangleInequality (property): shortest-path costs satisfy the
// triangle inequality.
func TestIGPTriangleInequality(t *testing.T) {
	g := GenerateISP(3, ISPParams{Routers: 20, Links: 45, Reflectors: 8, Levels: 4})
	igp := allPairsIGP(g)
	for _, a := range g.Routers {
		for _, b := range g.Routers {
			for _, c := range g.Routers {
				if igp[a][c] > igp[a][b]+igp[b][c] {
					t.Fatalf("triangle violated: d(%s,%s)=%d > %d+%d", a, c, igp[a][c], igp[a][b], igp[b][c])
				}
			}
		}
	}
	for _, a := range g.Routers {
		if igp[a][a] != 0 {
			t.Errorf("d(%s,%s) = %d", a, a, igp[a][a])
		}
	}
}

// TestSessionGraphCoversReflectors: every reflector appears in the session
// graph.
func TestSessionGraphCoversReflectors(t *testing.T) {
	g := GenerateISP(1, ISPParams{})
	inSession := map[string]bool{}
	for _, l := range g.SessionGraph() {
		inSession[l.A] = true
		inSession[l.B] = true
	}
	for r := range g.ReflectorLevel {
		if !inSession[r] {
			t.Errorf("reflector %s missing from session graph", r)
		}
	}
}

// TestISPDeterminism (property): same seed, same router graph — links,
// weights, and reflector leveling included. The scenario engine's ibgp
// generator relies on this to regenerate instances from (kind, seed).
func TestISPDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		p := ISPParams{Routers: 24, Links: 60, Reflectors: 10, Levels: 4}
		a := GenerateISP(seed, p)
		b := GenerateISP(seed, p)
		if len(a.Routers) != len(b.Routers) || len(a.Links) != len(b.Links) {
			return false
		}
		for i := range a.Links {
			if a.Links[i] != b.Links[i] {
				return false
			}
		}
		if len(a.ReflectorLevel) != len(b.ReflectorLevel) {
			return false
		}
		for r, lvl := range a.ReflectorLevel {
			if b.ReflectorLevel[r] != lvl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestClassConsistency (property): over random seeds, Class(u,v) and
// Class(v,u) are consistent for every adjacent pair — provider/customer
// edges classify antisymmetrically (c/p), peer edges symmetrically (r/r) —
// and non-adjacent pairs classify empty both ways.
func TestClassConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := GenerateHierarchy(seed, HierarchyParams{Depth: 4})
		cm := g.ClassMap()
		adj := map[[2]string]bool{}
		for _, e := range g.Edges {
			adj[[2]string{e.A, e.B}] = true
			adj[[2]string{e.B, e.A}] = true
		}
		for _, u := range g.Nodes {
			for _, v := range g.Nodes {
				if u == v {
					continue
				}
				uv, vu := g.Class(u, v), g.Class(v, u)
				if cm[[2]string{u, v}] != uv || cm[[2]string{v, u}] != vu {
					return false // precomputed ClassMap must agree with Class
				}
				if !adj[[2]string{u, v}] {
					if uv != "" || vu != "" {
						return false
					}
					continue
				}
				switch uv {
				case "c":
					if vu != "p" {
						return false
					}
				case "p":
					if vu != "c" {
						return false
					}
				case "r":
					if vu != "r" {
						return false
					}
				default:
					return false // adjacent but unclassified
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestHierarchyConnectivity: every generated hierarchy is connected — any
// AS reaches any other over the annotated edges, so single-destination
// workloads derived from the graph leave no node stranded.
func TestHierarchyConnectivity(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := GenerateHierarchy(seed, HierarchyParams{Depth: 5})
		adj := g.Adjacency()
		seen := map[string]bool{g.Nodes[0]: true}
		queue := []string{g.Nodes[0]}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		if len(seen) != len(g.Nodes) {
			t.Errorf("seed %d: reached %d of %d nodes", seed, len(seen), len(g.Nodes))
		}
	}
}

// TestInternetDeterminism: equal seeds yield byte-identical power-law
// graphs; different seeds differ. Campaigns and benches regenerate the
// graph from (seed, params) alone.
func TestInternetDeterminism(t *testing.T) {
	p := InternetParams{N: 400}
	a := GenerateInternet(7, p)
	b := GenerateInternet(7, p)
	if len(a.Edges) != len(b.Edges) || len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("sizes differ: %d/%d edges, %d/%d nodes", len(a.Edges), len(b.Edges), len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	for n, lv := range a.Level {
		if b.Level[n] != lv {
			t.Fatalf("level %s differs: %d vs %d", n, lv, b.Level[n])
		}
	}
	c := GenerateInternet(8, p)
	same := len(a.Edges) == len(c.Edges)
	if same {
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generated identical graphs")
	}
}

// TestInternetPowerLaw: the degree distribution is heavy-tailed — a core
// hub accumulates a degree far above the median while most ASes stay
// stubs — and the tier-1 seed clique is a full peer mesh.
func TestInternetPowerLaw(t *testing.T) {
	g := GenerateInternet(3, InternetParams{N: 2000, Tier1: 8})
	deg := map[string]int{}
	peers := map[[2]string]bool{}
	for _, e := range g.Edges {
		deg[e.A]++
		deg[e.B]++
		if e.Rel == PeerPeer {
			peers[[2]string{e.A, e.B}] = true
			peers[[2]string{e.B, e.A}] = true
		}
	}
	degs := make([]int, 0, len(g.Nodes))
	max := 0
	for _, n := range g.Nodes {
		degs = append(degs, deg[n])
		if deg[n] > max {
			max = deg[n]
		}
	}
	sort.Ints(degs)
	median := degs[len(degs)/2]
	if max < 20*median {
		t.Errorf("degree tail too light: max %d, median %d", max, median)
	}
	stubs := 0
	for _, d := range degs {
		if d <= 2 {
			stubs++
		}
	}
	if stubs < len(degs)/2 {
		t.Errorf("expected a stub-heavy tail, got %d/%d ASes with degree ≤ 2", stubs, len(degs))
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			pair := [2]string{g.Nodes[i], g.Nodes[j]}
			if !peers[pair] {
				t.Errorf("tier-1 pair %v not peer-linked", pair)
			}
			if g.Level[g.Nodes[i]] != 0 {
				t.Errorf("tier-1 node %s has level %d", g.Nodes[i], g.Level[g.Nodes[i]])
			}
		}
	}
}

// TestInternetClassConsistency: ClassMap over the power-law graph keeps
// the Gao-Rexford involution — Class(u,v)=="c" iff Class(v,u)=="p", peers
// symmetric — and agrees with the linear-scan Class on every edge.
func TestInternetClassConsistency(t *testing.T) {
	g := GenerateInternet(11, InternetParams{N: 600})
	cm := g.ClassMap()
	for _, e := range g.Edges {
		uv, vu := cm[[2]string{e.A, e.B}], cm[[2]string{e.B, e.A}]
		if g.Class(e.A, e.B) != uv || g.Class(e.B, e.A) != vu {
			t.Fatalf("ClassMap disagrees with Class on %v", e)
		}
		switch uv {
		case "c":
			if vu != "p" {
				t.Fatalf("edge %v: %q not inverse of %q", e, uv, vu)
			}
		case "p":
			if vu != "c" {
				t.Fatalf("edge %v: %q not inverse of %q", e, uv, vu)
			}
		case "r":
			if vu != "r" {
				t.Fatalf("edge %v: peer not symmetric (%q)", e, vu)
			}
		default:
			t.Fatalf("edge %v unclassified", e)
		}
	}
}

// TestInternetConnectivity: every AS has a provider chain into the tier-1
// core, so the graph is connected and Level is the provider-path distance
// from the core.
func TestInternetConnectivity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := GenerateInternet(seed, InternetParams{N: 500})
		adj := g.Adjacency()
		seen := map[string]bool{g.Nodes[0]: true}
		queue := []string{g.Nodes[0]}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		if len(seen) != len(g.Nodes) {
			t.Fatalf("seed %d: reached %d of %d nodes", seed, len(seen), len(g.Nodes))
		}
		for n, lv := range g.Level {
			if lv < 0 || lv > g.Depth {
				t.Fatalf("seed %d: %s has level %d outside [0,%d]", seed, n, lv, g.Depth)
			}
		}
	}
}
