package spp_test

import (
	"context"
	"testing"

	"fsr/internal/scenario"
	"fsr/internal/spp"
	"fsr/internal/topology"
)

// TestVerifyFullScansPerPath holds the full pipeline's linear scans to a
// count per permitted path on internet:5000. VerifyFull's only scan is
// ToAlgebra's check of a tail against its owner's ranking, at most three
// paths here. A scan of Links or of every ranking per hop or per path, as
// Validate did with HasLink before topoIndex, multiplies that by the
// instance's size whether or not it allocates, which the allocation count
// of scenario's TestVerifyFullN5000 would not see.
func TestVerifyFullScansPerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5000 instance")
	}
	g := topology.GenerateInternet(1, topology.InternetParams{N: 5000})
	in := scenario.InternetSPP("internet:5000", g, 3)
	v, err := spp.NewDeltaVerifier(in)
	if err != nil {
		t.Fatal(err)
	}
	paths := 0
	for _, ps := range in.Permitted {
		paths += len(ps)
	}
	before := spp.Scanned()
	if _, _, err := v.VerifyFull(context.Background()); err != nil {
		t.Fatal(err)
	}
	per := float64(spp.Scanned()-before) / float64(paths)
	t.Logf("VerifyFull at n=5000 (%d paths): %.2f elements scanned per path", paths, per)
	if per > 3 {
		t.Fatalf("VerifyFull at n=5000 scans %.2f elements per permitted path, want at most 3", per)
	}
}
