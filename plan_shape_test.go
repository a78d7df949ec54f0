package fsr

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fsr/internal/spp"
)

// plantPairs makes the instance unsafe k times over: k disjoint DISAGREE
// pairs, the i-th on the first session at or after link i·len/k whose ends
// are both still free, each end preferring the route through the other over
// its own origin token.
func plantPairs(in *spp.Instance, k int) *spp.Instance {
	in.Name += fmt.Sprintf("-%dpairs", k)
	used := map[spp.Node]bool{}
	for i := 0; i < k; i++ {
		for _, l := range in.Links[i*len(in.Links)/k:] {
			if a, b := l.From, l.To; !used[a] && !used[b] {
				used[a], used[b] = true, true
				in.Rank(a, spp.Path{a, b, "rx_" + b}, spp.Path{a, "rx_" + a})
				in.Rank(b, spp.Path{b, a, "rx_" + a}, spp.Path{b, "rx_" + b})
				break
			}
		}
	}
	return in
}

// TestCondensationPlanShape pins what AnalyzeSPP reports of the condensation
// its one solve runs on — component counts, the condensation's depth and
// widest level, the loop effort, and the core and suspects — on fixed
// instances. The two multi-pair instances put several cyclic components on
// one topological level (every planted pair is a source of the
// condensation): the one shape whose components a level-by-level pass could
// process side by side, and so the shape that shows whether the component
// pass changed anything it reports.
func TestCondensationPlanShape(t *testing.T) {
	gadget := func(name string) *spp.Instance {
		in, err := Gadget(name)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for _, tc := range []struct {
		in                                 *spp.Instance
		components, trivial, levels, width int
		probes, relaxations                int
		core                               []int
		suspects                           []spp.Node
	}{
		{gadget("fig3"), 11, 10, 5, 3, 8, 118, []int{0, 1, 2, 9, 10, 11}, []spp.Node{"a", "b", "c"}},
		{gadget("chain:400"), 800, 800, 3, 400, 1, 0, nil, nil},
		{plantPairs(gadget("chain:400"), 2), 794, 792, 3, 397, 6, 78, []int{0, 1, 399, 400}, []spp.Node{"n0", "n1"}},
		{gadget("internet:2000"), 2734, 2734, 11, 1554, 1, 0, nil, nil},
		{plantPairs(gadget("internet:2000"), 5), 2719, 2714, 11, 1553, 6, 174, []int{0, 1, 733, 734}, []spp.Node{"as0", "as1"}},
	} {
		res, suspects, err := NewSession().AnalyzeSPP(context.Background(), tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in.Name, err)
		}
		st := res.Stats
		got := []int{st.Components, st.TrivialComponents, st.Levels, st.MaxLevelWidth, st.Probes, st.Relaxations}
		want := []int{tc.components, tc.trivial, tc.levels, tc.width, tc.probes, tc.relaxations}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: components, trivial, levels, widest level, probes, relaxations = %v, want %v", tc.in.Name, got, want)
		}
		if res.Sat != (tc.core == nil) || !reflect.DeepEqual(res.CoreIdx, tc.core) || !reflect.DeepEqual(suspects, tc.suspects) {
			t.Errorf("%s: sat=%v core %v suspects %q, want core %v suspects %q", tc.in.Name, res.Sat, res.CoreIdx, suspects, tc.core, tc.suspects)
		}
	}
}
