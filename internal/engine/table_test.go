package engine_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fsr/internal/engine"
	"fsr/internal/scenario"
)

// TestOneNodeTwoAlgebras: both runners run an instance on its table exactly
// as they ran on ToAlgebra's Tabular. The first ten scenarios of every
// generator kind, fault plans included, execute as a campaign executes them,
// once through SimRunner and once through the reference wiring — the
// compiled node on every scenario, the NDlog interpreter on those without a
// plan — and the reports agree on every route with its signature and on
// every traffic, fault and selection-change count.
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
			runners := []engine.SimRunner{{}}
			if sc.Plan.Empty() {
				runners = append(runners, engine.SimRunner{Interpreted: true})
			}
			for _, r := range runners {
				opts := engine.RunOptions{Seed: seed, Horizon: 2 * time.Second, Plan: sc.Plan}
				got, err := r.Run(ctx, sc.Instance, opts)
				if err != nil {
					t.Fatalf("%s seed %d %s: table: %v", kind, seed, r.Name(), err)
				}
				want, err := engine.RunTabular(ctx, r, conv, opts)
				if err != nil {
					t.Fatalf("%s seed %d %s: Tabular: %v", kind, seed, r.Name(), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d %s: on the table\n %+v\non the Tabular\n %+v", kind, seed, r.Name(), got, want)
				}
				if got.Faults > 0 {
					faulted++
				}
			}
		}
	}
	if faulted < 20 {
		t.Errorf("only %d runs injected faults; the churn kinds have thirty plans", faulted)
	}
}
