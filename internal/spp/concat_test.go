package spp_test

import (
	"testing"

	"fsr/internal/algebra"
	"fsr/internal/scenario"
	"fsr/internal/topology"
)

// denseOnly hides Tabular's ConcatEnumerator behind the bare Algebra
// interface, so algebra.ConcatTable takes the dense |labels|×|Σ| walk that
// user-implemented algebras get — the oracle for the sparse emission.
type denseOnly struct{ algebra.Algebra }

// TestSparseConcatTableMatchesDense: on converted SPP instances — the
// sparse case the enumerator exists for — the ⊕ table listed from the
// defined entries is the dense walk's, element for element.
func TestSparseConcatTableMatchesDense(t *testing.T) {
	corpus := shardCorpus(t)
	g := topology.GenerateInternet(1, topology.InternetParams{N: 400})
	corpus["internet-400"] = scenario.InternetSPP("internet-400", g, 3)
	for name, in := range corpus {
		conv, err := in.ToAlgebra()
		if err != nil {
			t.Fatalf("%s: ToAlgebra: %v", name, err)
		}
		got := algebra.ConcatTable(conv.Algebra)
		want := algebra.ConcatTable(denseOnly{conv.Algebra})
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, dense walk %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d = %v, dense walk %v", name, i, got[i], want[i])
			}
		}
	}
}
