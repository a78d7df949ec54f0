package algebra

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseConcatTable is the oracle for ConcatEnumerator implementations: the
// definitional walk over every (label, signature) cell of the combined ⊕
// table, label-major and Σ-minor.
func denseConcatTable(a Algebra) []ConcatEntry {
	var out []ConcatEntry
	for _, l := range a.Labels() {
		for _, s := range a.Sigs() {
			if r := Combined(a, l, s); !IsProhibited(r) {
				out = append(out, ConcatEntry{Label: l, In: s, Out: r})
			}
		}
	}
	return out
}

func requireConcatParity(t *testing.T, a Algebra) {
	t.Helper()
	got, want := ConcatTable(a), denseConcatTable(a)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, dense walk %d", a.Name(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %v, dense walk %v", a.Name(), i, got[i], want[i])
		}
	}
}

// randomTabular builds a finite algebra exercising every Builder feature
// that shapes the combined ⊕ table: sparse and ConcatAll rows, explicit φ
// results, import/export denials under either default, and reverse labels
// (the export filter of l runs over Reverse(l)).
func randomTabular(rng *rand.Rand, i int) *Tabular {
	b := NewBuilder(fmt.Sprintf("random-%d", i))
	nSigs, nLabels := 1+rng.Intn(12), 1+rng.Intn(8)
	sigs := make([]Sig, nSigs)
	for k := range sigs {
		sigs[k] = Symbol(fmt.Sprintf("s%d", k))
	}
	labels := make([]Label, nLabels)
	for k := range labels {
		labels[k] = LSym(fmt.Sprintf("l%d", k))
	}
	// Declare in shuffled order: ConcatTable order is declaration order.
	rng.Shuffle(nSigs, func(x, y int) { sigs[x], sigs[y] = sigs[y], sigs[x] })
	b.Sigs(sigs...).Labels(labels...)
	b.DefaultImport(rng.Intn(4) != 0).DefaultExport(rng.Intn(4) != 0)
	for _, l := range labels {
		switch rng.Intn(3) {
		case 0:
			b.ConcatAll(l, sigs[rng.Intn(nSigs)])
		case 1:
			for _, s := range sigs {
				if rng.Intn(3) == 0 {
					out := sigs[rng.Intn(nSigs)]
					if rng.Intn(5) == 0 {
						out = Prohibited
					}
					b.Concat(l, s, out)
				}
			}
		}
		for _, s := range sigs {
			if rng.Intn(4) == 0 {
				b.Import(l, s, rng.Intn(2) == 0)
			}
			if rng.Intn(4) == 0 {
				b.Export(l, s, rng.Intn(2) == 0)
			}
		}
		if rng.Intn(3) == 0 {
			b.Reverse(l, labels[rng.Intn(nLabels)])
		}
	}
	return b.MustBuild()
}

// TestConcatTableSparseMatchesDense: Tabular's ConcatList (defined entries,
// bucketed at Build) reproduces the dense table walk element for element on
// the built-in library and on seeded random algebras; algebras that do not
// enumerate their entries still take the dense walk.
func TestConcatTableSparseMatchesDense(t *testing.T) {
	for _, a := range []Algebra{
		GaoRexfordA(), GaoRexfordB(), BackupRouting(0), BackupRouting(3),
		HopCount{}, IGPCost{Weights: []int{1, 5}}, // closed forms: dense walk, empty Σ
	} {
		requireConcatParity(t, a)
	}
	rng := rand.New(rand.NewSource(12))
	nonEmpty, filtered := 0, 0
	for i := 0; i < 300; i++ {
		a := randomTabular(rng, i)
		requireConcatParity(t, a)
		if n := len(ConcatTable(a)); n > 0 {
			nonEmpty++
			if n < len(a.defined) {
				filtered++ // ⊕E/⊕I prohibited a defined ⊕P entry
			}
		}
	}
	if nonEmpty < 100 || filtered < 50 {
		t.Fatalf("weak corpus: %d of 300 random algebras had a non-empty ⊕ table, %d a filtered entry", nonEmpty, filtered)
	}

	p := NewProduct(GaoRexfordA(), BackupRouting(2))
	if _, sparse := Algebra(p).(ConcatEnumerator); sparse {
		t.Fatal("Product must not claim to enumerate its ⊕ entries")
	}
	requireConcatParity(t, p)
}

// TestConcatListAfterRebuild: a builder extended after Build re-buckets on
// the next Build instead of serving a stale entry list.
func TestConcatListAfterRebuild(t *testing.T) {
	b := NewBuilder("rebuild").Sigs(Symbol("A"), Symbol("B")).Labels(LSym("l"))
	b.Concat(LSym("l"), Symbol("A"), Symbol("B"))
	first := b.MustBuild()
	if n := len(first.ConcatList()); n != 1 {
		t.Fatalf("first build: %d entries, want 1", n)
	}
	b.Concat(LSym("l"), Symbol("B"), Symbol("A"))
	requireConcatParity(t, b.MustBuild())
}
