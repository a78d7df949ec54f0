package engine_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fsr/internal/engine"
	"fsr/internal/scenario"
)

// TestOneNodeTwoAlgebras: the compiled Node runs an instance on its
// execution table exactly as it ran on ToAlgebra's Tabular. The first ten
// scenarios of every generator kind, fault plans included, execute as a
// campaign executes them, once through SimRunner and once through the
// reference wiring, and the reports agree on every route with its signature
// and on every traffic, fault and selection-change count.
func TestOneNodeTwoAlgebras(t *testing.T) {
	ctx := context.Background()
	faulted := 0
	for _, kind := range scenario.Kinds() {
		for seed := int64(1); seed <= 10; seed++ {
			sc, err := scenario.Generate(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			conv, err := sc.Instance.ToAlgebra()
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			opts := engine.RunOptions{Seed: seed, Horizon: 2 * time.Second, Plan: sc.Plan}
			got, err := engine.SimRunner{}.Run(ctx, sc.Instance, opts)
			if err != nil {
				t.Fatalf("%s seed %d: table: %v", kind, seed, err)
			}
			want, err := engine.RunTabular(ctx, engine.SimRunner{}, conv, opts)
			if err != nil {
				t.Fatalf("%s seed %d: Tabular: %v", kind, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: on the table\n %+v\non the Tabular\n %+v", kind, seed, got, want)
			}
			if got.Faults > 0 {
				faulted++
			}
		}
	}
	if faulted < 20 {
		t.Errorf("only %d runs injected faults; the churn kinds have thirty plans", faulted)
	}
}
