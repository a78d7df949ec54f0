package spp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// requireIndexMatchesSnapshot compares every answer the verifier's topology
// index can give with a linear scan of the instance it is supposed to
// describe.
func requireIndexMatchesSnapshot(t *testing.T, label string, v *DeltaVerifier) {
	t.Helper()
	in := v.Snapshot()
	pos := map[Node]int{}
	for i, n := range in.Nodes {
		pos[n] = i
	}
	if len(pos) != len(in.Nodes) {
		t.Fatalf("%s: instance declares a node twice: %v", label, in.Nodes)
	}
	if len(v.ix.nodes) != len(pos) {
		t.Fatalf("%s: index holds %d nodes, instance %d", label, len(v.ix.nodes), len(pos))
	}
	for n, i := range pos {
		if got, ok := v.ix.nodes[n]; !ok || int(got) != i {
			t.Fatalf("%s: index places node %s at %d (known=%v), instance at %d", label, n, got, ok, i)
		}
	}
	scanLinks := map[Link]bool{}
	for _, l := range in.Links {
		if !in.HasLink(l.From, l.To) {
			t.Fatalf("%s: HasLink denies listed link %s", label, l)
		}
		scanLinks[l] = true
	}
	if len(v.ix.links) != len(scanLinks) {
		t.Fatalf("%s: index holds %d links, instance %d", label, len(v.ix.links), len(scanLinks))
	}
	for l := range v.ix.links {
		if !in.HasLink(l.From, l.To) {
			t.Fatalf("%s: index holds link %s the instance lacks", label, l)
		}
	}
	scanOrigins := map[Node]bool{}
	for _, o := range in.Origins {
		scanOrigins[o] = true
	}
	if len(v.ix.origins) != len(scanOrigins) {
		t.Fatalf("%s: index holds %d origins, instance %d", label, len(v.ix.origins), len(scanOrigins))
	}
	for o := range scanOrigins {
		if !v.ix.origins[o] {
			t.Fatalf("%s: index lacks origin %s", label, o)
		}
	}
	if v.dc.Segments() != len(in.Nodes)+len(in.Links) {
		t.Fatalf("%s: %d segments for %d nodes + %d links", label, v.dc.Segments(), len(in.Nodes), len(in.Links))
	}
	requireTableMatchesSnapshot(t, label, v, in)
}

// requireTableMatchesSnapshot checks the name table against the instance:
// every ranking's ids name its paths' natural variables, each id's count is
// the number of paths holding its name, the map and the names agree, and
// held and dupNames count what the counts say.
func requireTableMatchesSnapshot(t *testing.T, label string, v *DeltaVerifier, in *Instance) {
	t.Helper()
	if len(v.ids) != len(v.names)-1 || len(v.refs) != len(v.names) || len(v.ranks) != len(in.Nodes) {
		t.Fatalf("%s: table of %d names, %d map entries, %d counts, %d rankings for %d nodes",
			label, len(v.names)-1, len(v.ids), len(v.refs), len(v.ranks), len(in.Nodes))
	}
	holders := make([]int32, len(v.names))
	for ni, n := range in.Nodes {
		if len(v.ranks[ni]) != len(in.Permitted[n]) {
			t.Fatalf("%s: node %s ranks %d ids for %d paths", label, n, len(v.ranks[ni]), len(in.Permitted[n]))
		}
		for r, q := range in.Permitted[n] {
			id := v.ranks[ni][r]
			if want := string(appendVar(nil, q)); string(v.names[id]) != want || v.ids[want] != id {
				t.Fatalf("%s: %s's path %s has id %d named %q, want %q", label, n, q, id, v.names[id], want)
			}
			holders[id]++
		}
	}
	held, dup := 0, 0
	for id, c := range holders {
		if v.refs[id] != c {
			t.Fatalf("%s: name %q counts %d holders, the instance has %d", label, v.names[id], v.refs[id], c)
		}
		held, dup = held+crossed(0, c, 1), dup+crossed(0, c, 2)
	}
	if v.held != held || v.dupNames != dup {
		t.Fatalf("%s: held %d and dupNames %d, the counts say %d and %d", label, v.held, v.dupNames, held, dup)
	}
}

// randomEdit applies one seeded what-if edit and describes it. Topology
// edits keep the session count level about half the time (a drop followed
// by an add), the case a length-keyed staleness check would miss.
func randomEdit(rng *rand.Rand, v *DeltaVerifier, fresh *int) (string, error) {
	in := v.Snapshot()
	pick := func() Node { return in.Nodes[rng.Intn(len(in.Nodes))] }
	addSession := func() (string, error) {
		a, b := pick(), pick()
		if rng.Intn(6) == 0 { // a node the instance has never seen
			*fresh++
			b = Node(fmt.Sprintf("x%d", *fresh))
		}
		if a == b || in.HasLink(a, b) {
			return "add (skipped)", nil
		}
		return fmt.Sprintf("add %s-%s", a, b), v.AddSession(a, b, rng.Intn(3))
	}
	dropSession := func() (string, error) {
		if len(in.Links) <= 4 {
			return "drop (skipped)", nil
		}
		l := in.Links[rng.Intn(len(in.Links))]
		return fmt.Sprintf("drop %s-%s", l.From, l.To), v.DropSession(l.From, l.To)
	}
	switch k := rng.Intn(10); {
	case k < 5:
		// Re-rank: an egress path (now and then over a new origin token)
		// plus extensions of neighbours' permitted paths, shuffled.
		n := pick()
		origin := "o_" + n // the node's own token: no rendering clash
		switch rng.Intn(32) {
		case 0: // a shared token: its bare rendering may clash (degraded mode)
			origin = "r0"
		case 1, 2, 3, 4:
			*fresh++
			origin = Node(fmt.Sprintf("rx%d", *fresh))
		}
		cands := []Path{{n, origin}}
		for _, l := range in.Links {
			if l.From != n {
				continue
			}
			for _, q := range in.Permitted[l.To] {
				if !pathUses(q, n) && len(q) < 5 {
					cands = append(cands, append(Path{n}, q...))
				}
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if len(cands) > 3 {
			cands = cands[:1+rng.Intn(3)]
		}
		return fmt.Sprintf("rerank %s %v", n, cands), v.ReRank(n, cands...)
	case k < 7:
		d, err := dropSession()
		if err != nil {
			return d, err
		}
		in = v.Snapshot()
		a, err := addSession()
		return d + ", " + a, err
	case k < 8:
		return dropSession()
	default:
		return addSession()
	}
}

// TestDeltaVerifierIndexProperty drives a seeded 500-edit sequence mixing
// ReRank, DropSession and AddSession (new nodes, new origin tokens,
// equal-count drop-then-add) and checks after every edit that the
// verifier's maintained index answers exactly what a scan of Snapshot()
// answers and that the delta path agrees with the full-pipeline oracle.
// Every 20th edit goes through a clone that is then either kept or
// dropped, so a clone's independence is exercised in both directions.
func TestDeltaVerifierIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	base := ChainGadget(12)
	base.AddSession("n0", "n5", 0)
	base.AddSession("n3", "n9", 2)
	v, err := NewDeltaVerifier(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, degraded, unsafe := 0, 0, 0
	defer func() { t.Logf("500 edits: %d left the verifier degraded, %d unsafe", degraded, unsafe) }()
	for i := 0; i < 500; i++ {
		if v.Degraded() {
			degraded++
		} else if res, _, err := v.Verify(context.Background()); err == nil && !res.Sat {
			unsafe++
		}
		if i%20 == 19 {
			c := v.Clone()
			desc, err := randomEdit(rng, c, &fresh)
			label := fmt.Sprintf("edit %d on clone (%s)", i, desc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireIndexMatchesSnapshot(t, label+", clone", c)
			requireIndexMatchesSnapshot(t, label+", original", v)
			requireVerifyParity(t, label+", original", v)
			if rng.Intn(2) == 0 {
				v = c
			}
			continue
		}
		desc, err := randomEdit(rng, v, &fresh)
		label := fmt.Sprintf("edit %d (%s)", i, desc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIndexMatchesSnapshot(t, label, v)
		requireVerifyParity(t, label, v)
	}
}
