package spp

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"fsr/internal/smt"
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
	held := 0
	for _, s := range v.ix.nodes.slots {
		if s != 0 {
			held++
		}
	}
	if held != len(pos) || v.ix.nodes.n != len(pos) {
		t.Fatalf("%s: index holds %d nodes in %d slots, instance %d", label, v.ix.nodes.n, held, len(pos))
	}
	for n, i := range pos {
		if got := v.ix.node(n); int(got) != i {
			t.Fatalf("%s: index places node %s at %d, instance at %d", label, n, got, i)
		}
	}
	scanLinks, keys, labels, dupLabels := map[Link]bool{}, []uint64{}, map[uint64]bool{}, 0
	for _, l := range in.Links {
		if !in.HasLink(l.From, l.To) {
			t.Fatalf("%s: HasLink denies listed link %s", label, l)
		}
		scanLinks[l] = true
		k := maphash.String(screenSeed, string(l.From)+string(l.To))
		if keys = append(keys, k); labels[k|1] {
			dupLabels++ // a link whose label hash repeats an earlier one's
		}
		labels[k|1] = true
	}
	if len(v.links)+len(v.loose) != len(scanLinks) {
		t.Fatalf("%s: index holds %d links by position and %d by name, instance %d", label, len(v.links), len(v.loose), len(scanLinks))
	}
	if !slices.Equal(v.keys, keys) || v.dupLabels != dupLabels {
		t.Fatalf("%s: label hashes %v, %d shared; the links hash to %v, %d shared", label, v.keys, v.dupLabels, keys, dupLabels)
	}
	// Serial order is Links order (a repeated link keeps its first serial).
	last, seen := int32(0), map[Link]bool{}
	for _, l := range in.Links {
		if s := v.serial(l.From, l.To); !seen[l] && (s <= last || s > v.serials) {
			t.Fatalf("%s: link %s has serial %d after %d, of %d issued", label, l, s, last, v.serials)
		} else if !seen[l] {
			last, seen[l] = s, true
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
	requireTableMatchesSnapshot(t, label, v, in)
}

// requireTableMatchesSnapshot checks the path table and the graph it
// implies against the instance: every ranking's ids are its paths, named by
// their natural variables and found by their renderings; each path's and
// each name's count is the number of ranks holding it; held and dupNames
// count what the counts say; and, unless a name is held twice, every held
// path has its node and rank, its tail, its first link's serial and its held
// extensions, and the two atom counts are the graph's.
func requireTableMatchesSnapshot(t *testing.T, label string, v *DeltaVerifier, in *Instance) {
	t.Helper()
	if len(v.ranks) != len(in.Nodes) {
		t.Fatalf("%s: %d rankings for %d nodes", label, len(v.ranks), len(in.Nodes))
	}
	refs := make([]int32, len(v.paths))
	names := map[smt.Var]int32{}
	for ni, n := range in.Nodes {
		if len(v.ranks[ni]) != len(in.Permitted[n]) {
			t.Fatalf("%s: node %s ranks %d ids for %d paths", label, n, len(v.ranks[ni]), len(in.Permitted[n]))
		}
		for r, q := range in.Permitted[n] {
			id := v.ranks[ni][r]
			x := v.paths[id]
			if want := string(appendVar(nil, q)); !slices.Equal(x.path, q) || string(x.name) != want || find(v, q) != id {
				t.Fatalf("%s: %s's path %s has id %d for %v named %q, want %q", label, n, q, id, x.path, x.name, want)
			}
			refs[id]++
			names[x.name]++
		}
	}
	held, dup := 0, 0
	for id, x := range v.paths[1:] {
		id++
		if x.refs != refs[id] {
			t.Fatalf("%s: path %v counts %d holders, the instance has %d", label, x.path, x.refs, refs[id])
		}
		if h := v.paths[x.head]; h.name != x.name || h.head != x.head || v.ids[string(x.name)] != x.head {
			t.Fatalf("%s: path %v (%q) is chained behind %d (%q)", label, x.path, x.name, x.head, h.name)
		}
		if x.head == int32(id) {
			if x.count != names[x.name] {
				t.Fatalf("%s: name %q counts %d holders, the instance has %d", label, x.name, x.count, names[x.name])
			}
			held, dup = held+crossed(0, x.count, 1), dup+crossed(0, x.count, 2)
		}
	}
	if v.held != held || v.dupNames != dup {
		t.Fatalf("%s: held %d and dupNames %d, the counts say %d and %d", label, v.held, v.dupNames, held, dup)
	}
	if dup > 0 {
		return
	}
	pref, mono := 0, 0
	ext := map[int32][]int32{}
	for ni, ids := range v.ranks {
		pref += max(len(ids)-1, 0)
		for r, id := range ids {
			x := v.paths[id]
			if x.own != int32(ni) || x.at != int32(r) {
				t.Fatalf("%s: path %v is at (%d, %d), the instance has it at (%d, %d)", label, x.path, x.own, x.at, ni, r)
			}
			if len(x.path) <= 2 {
				continue
			}
			if tail := find(v, x.path[1:]); x.tail == 0 || tail != x.tail {
				t.Fatalf("%s: path %v has tail %d, the table has %d", label, x.path, x.tail, tail)
			}
			if s := v.serial(x.path[0], x.path[1]); x.link != s {
				t.Fatalf("%s: path %v has first link %d, the index %d", label, x.path, x.link, s)
			}
			ext[x.tail] = append(ext[x.tail], id)
			if v.paths[x.tail].refs > 0 {
				mono++
			}
		}
	}
	for id, x := range v.paths {
		if got, want := slices.Sorted(slices.Values(x.ext)), slices.Sorted(slices.Values(ext[int32(id)])); !slices.Equal(got, want) {
			t.Fatalf("%s: path %v lists extensions %v, the rankings have %v", label, x.path, got, want)
		}
	}
	if v.numPref != pref || v.numMono != mono {
		t.Fatalf("%s: %d preference and %d monotonicity atoms counted, the graph has %d and %d", label, v.numPref, v.numMono, pref, mono)
	}
}

// find returns path q's id in the verifier's table, or 0.
func find(v *DeltaVerifier, q Path) int32 { return v.find(q, v.ids[string(appendVar(nil, q))]) }

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
