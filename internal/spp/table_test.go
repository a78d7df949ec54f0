package spp_test

import (
	"fmt"
	"testing"

	"fsr/internal/algebra"
	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// TestTableMatchesToAlgebra: the execution table is ToAlgebra's Tabular,
// operator by operator, on every gadget, chain:40, internet:200 and the
// first twenty scenarios of every generator kind — names and renderings,
// ⪯ on every pair of signatures, ⊕P/⊕I/⊕E on every (label, signature) pair,
// Origin and Reverse on every label, the link labels and the originations —
// and it rejects what ToAlgebra rejects, with ToAlgebra's error.
func TestTableMatchesToAlgebra(t *testing.T) {
	corpus := map[string]*spp.Instance{
		"figure3-ibgp":       spp.Figure3IBGP(),
		"figure3-ibgp-fixed": spp.Figure3IBGPFixed(),
		"disagree":           spp.Disagree(),
		"bad-gadget":         spp.BadGadget(),
		"good-gadget":        spp.GoodGadget(),
		"chain:40":           spp.ChainGadget(40),
		"internet:200":       scenario.InternetSPP("internet:200", topology.GenerateInternet(7, topology.InternetParams{N: 200}), 3),
	}
	for _, kind := range scenario.Kinds() {
		for seed := int64(1); seed <= 20; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			corpus[fmt.Sprintf("%s-%d", kind, seed)] = sc.Instance
		}
	}
	for name, in := range corpus {
		conv, err := in.ToAlgebra()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab, err := spp.NewTable(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameAlgebra(t, name, tab, conv)
	}

	// What ToAlgebra rejects: two paths rendered alike, the same session
	// twice, two labels concatenating alike, a missing link, nothing to label.
	dup := spp.NewInstance("dup-rendering")
	dup.AddOrigin("r1")
	dup.AddSession("a", "b", 0)
	dup.Rank("a", spp.Path{"a", "r1"}, spp.Path{"a", "b", "r1"})
	dup.Rank("b", spp.Path{"b", "r1"})
	twice := spp.ChainGadget(3)
	twice.AddSession("n0", "n1", 0)
	glued := spp.ChainGadget(3)
	glued.AddSession("ab", "c", 0)
	glued.AddSession("a", "bc", 0)
	invalid := spp.NewInstance("invalid")
	invalid.AddOrigin("r1")
	invalid.AddSession("a", "b", 0)
	invalid.Rank("a", spp.Path{"a", "c", "r1"})
	empty := spp.NewInstance("no-links")
	empty.AddOrigin("r1")
	empty.AddNode("a")
	for _, in := range []*spp.Instance{dup, twice, glued, invalid, empty} {
		_, want := in.ToAlgebra()
		_, err := spp.NewTable(in)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: NewTable error %v, ToAlgebra's %v", in.Name, err, want)
		}
	}
}

// requireSameAlgebra compares the table with the conversion's Tabular on
// every operator and every argument the instance gives them.
func requireSameAlgebra(t *testing.T, name string, tab *spp.Table, conv *spp.Conversion) {
	t.Helper()
	ref := conv.Algebra
	if tab.Name() != ref.Name() {
		t.Fatalf("%s: name %s, ToAlgebra's %s", name, tab.Name(), ref.Name())
	}
	// Signatures and labels pair up by position; idx names a signature of
	// either side by that position, φ as −1.
	sigs, refSigs := tab.Sigs(), ref.Sigs()
	labels, refLabels := tab.Labels(), ref.Labels()
	if len(sigs) != len(refSigs) || len(labels) != len(refLabels) {
		t.Fatalf("%s: %d signatures and %d labels, ToAlgebra's %d and %d", name, len(sigs), len(labels), len(refSigs), len(refLabels))
	}
	pos := map[algebra.Sig]int{algebra.Prohibited: -1}
	idx := func(s algebra.Sig) int {
		i, ok := pos[s]
		if !ok {
			t.Fatalf("%s: %v is no signature of the instance", name, s)
		}
		return i
	}
	for i := range sigs {
		pos[sigs[i]], pos[refSigs[i]] = i, i
		if sigs[i].String() != refSigs[i].String() {
			t.Fatalf("%s: signature %d is %s, ToAlgebra's %s", name, i, sigs[i], refSigs[i])
		}
		if s, ok := tab.SigByName(refSigs[i].String()); !ok || s != sigs[i] {
			t.Fatalf("%s: SigByName(%s) = %v, %v", name, refSigs[i], s, ok)
		}
	}
	if _, ok := tab.SigByName("φ"); ok {
		t.Fatalf("%s: SigByName decodes φ", name)
	}
	for i, l := range conv.Instance.Links {
		if labels[i].String() != refLabels[i].String() || tab.LabelOf(l) != labels[i] || conv.LabelOf[l] != refLabels[i] {
			t.Fatalf("%s: link %s is labelled %v, ToAlgebra's %v", name, l, tab.LabelOf(l), conv.LabelOf[l])
		}
	}
	if tab.LabelOf(spp.Link{From: "no", To: "link"}) != nil {
		t.Fatalf("%s: LabelOf labels a missing link", name)
	}

	all := append([]algebra.Sig{algebra.Prohibited}, sigs...)
	refAll := append([]algebra.Sig{algebra.Prohibited}, refSigs...)
	for i := range all {
		for j := range all {
			if got, want := tab.Prefer(all[i], all[j]), ref.Prefer(refAll[i], refAll[j]); got != want {
				t.Fatalf("%s: Prefer(%s, %s) = %v, ToAlgebra's %v", name, all[i], all[j], got, want)
			}
		}
	}
	for k, l := range labels {
		rl := refLabels[k]
		if got, want := idx(tab.Origin(l)), idx(ref.Origin(rl)); got != want {
			t.Fatalf("%s: Origin(%s) is signature %d, ToAlgebra's %d", name, l, got, want)
		}
		if tab.Reverse(l) != l || ref.Reverse(rl) != rl {
			t.Fatalf("%s: %s is not its own reverse", name, l)
		}
		for i := range all {
			s, rs := all[i], refAll[i]
			if got, want := idx(tab.Concat(l, s)), idx(ref.Concat(rl, rs)); got != want {
				t.Fatalf("%s: %s ⊕P %s is signature %d, ToAlgebra's %d", name, l, s, got, want)
			}
			if tab.Import(l, s) != ref.Import(rl, rs) || tab.Export(l, s) != ref.Export(rl, rs) {
				t.Fatalf("%s: ⊕I/⊕E differ on %s, %s", name, l, s)
			}
		}
	}

	origs, refOrigs := tab.Originations(), conv.Originations()
	if len(origs) != len(refOrigs) {
		t.Fatalf("%s: %d originations, ToAlgebra's %d", name, len(origs), len(refOrigs))
	}
	for i, o := range origs {
		r := refOrigs[i]
		if o.Node != r.Node || !o.Path.Equal(r.Path) || idx(o.Sig) != idx(r.Sig) {
			t.Fatalf("%s: origination %d is %v, ToAlgebra's %v", name, i, o, r)
		}
	}
}
