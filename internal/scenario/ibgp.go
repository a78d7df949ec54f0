package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"fsr/internal/spp"
	"fsr/internal/topology"
)

// iBGP generation: a seeded route-reflector ISP from topology.GenerateISP
// becomes an SPP instance. A few routers are egresses holding externally
// learned routes (r1, r2, …); every router's permitted paths are its
// IGP-shortest session-graph paths to each egress, ranked by total IGP
// cost with the egress index as tie-breaker — the §VI-B "sane" iBGP
// configuration, whose conversion is sat (path cost strictly grows along
// extensions, so cost·K + egressIndex is a strict-monotonicity witness).
// Injected scenarios embed a Figure-3-style preference cycle on adjacent
// routers and are unsat by the subset argument.

// genIBGP implements the ibgp kind. The shortest-path trees come from
// topology.ShortestPathTree, whose name-based
// tie-breaking keeps equal seeds rebuilding equal instances; the golden
// test in ibgp_golden_test.go pins the exact outputs.
func genIBGP(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	nr := 10 + rng.Intn(8)
	g := topology.GenerateISP(seed, topology.ISPParams{
		Routers: nr, Links: nr * 2, Reflectors: nr/2 + 1, Levels: 3, MaxWeight: 9,
	})
	sessions := g.SessionGraph()
	adj := topology.WeightedAdjacency(sessions)
	var routers []string
	for r := range adj {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	if len(routers) < 4 {
		return nil, fmt.Errorf("session graph too small (%d routers)", len(routers))
	}

	in := spp.NewInstance(fmt.Sprintf("ibgp-%d", seed))
	for _, r := range routers {
		in.AddNode(spp.Node(r))
	}
	for _, l := range sessions {
		in.AddSession(spp.Node(l.A), spp.Node(l.B), l.Weight)
	}

	// Egress selection: 2–3 distinct routers holding externally learned
	// routes r1, r2, r3.
	nEgress := 2 + rng.Intn(2)
	chosen := map[string]bool{}
	var egresses []string
	for len(egresses) < nEgress {
		e := routers[rng.Intn(len(routers))]
		if !chosen[e] {
			chosen[e] = true
			egresses = append(egresses, e)
		}
	}

	// Permitted paths: per egress, the shortest-path-tree path of every
	// reachable router, ranked per router by (IGP cost, egress index).
	type ranked struct {
		cost, egress int
		path         spp.Path
	}
	byNode := map[string][]ranked{}
	for ei, e := range egresses {
		tok := spp.Node("r" + strconv.Itoa(ei+1))
		dist, parent := topology.ShortestPathTree(adj, e)
		for _, u := range routers {
			d, ok := dist[u]
			if !ok {
				continue // session graph may be disconnected
			}
			var p spp.Path
			for cur := u; ; cur = parent[cur] {
				p = append(p, spp.Node(cur))
				if cur == e {
					break
				}
			}
			byNode[u] = append(byNode[u], ranked{cost: d, egress: ei, path: append(p, tok)})
		}
	}
	for _, u := range routers {
		paths := byNode[u]
		sort.Slice(paths, func(i, j int) bool {
			if paths[i].cost != paths[j].cost {
				return paths[i].cost < paths[j].cost
			}
			return paths[i].egress < paths[j].egress
		})
		ps := make([]spp.Path, len(paths))
		for i, r := range paths {
			ps[i] = r.path
		}
		if len(ps) > 0 {
			in.Rank(spp.Node(u), ps...)
		}
	}

	sc := &Scenario{Kind: IBGP, Seed: seed, Expected: ExpectSafe, Instance: in}
	sc.Note = fmt.Sprintf("%d routers, %d sessions, %d egresses", len(routers), len(sessions), len(egresses))
	if rng.Intn(2) == 1 {
		sc.Expected = ExpectUnsafe
		plainAdj := map[string][]string{}
		for n, nbs := range adj {
			for _, l := range nbs {
				plainAdj[n] = append(plainAdj[n], l.B)
			}
		}
		if u, v, w, ok := findTriangle(plainAdj); ok && rng.Intn(2) == 0 {
			injectDisputeTriangle(in, spp.Node(u), spp.Node(v), spp.Node(w))
			sc.Note += fmt.Sprintf("; embedded fig3-style preference cycle %s-%s-%s", u, v, w)
		} else {
			l := sessions[rng.Intn(len(sessions))]
			injectDisputePair(in, spp.Node(l.A), spp.Node(l.B))
			sc.Note += fmt.Sprintf("; embedded reflector dispute pair %s-%s", l.A, l.B)
		}
	}
	return sc, nil
}
