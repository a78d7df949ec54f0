// Quickstart: the FSR pipeline in one page, following the paper's Figure 1.
//
// A policy configuration (Gao-Rexford guideline A) goes in; out come (a) a
// safety analysis — unsat for the bare guideline, sat for its composition
// with a strictly monotonic tie-breaker — and (b) a distributed NDlog
// implementation generated from the very same algebra. One fsr.Session owns
// the whole pipeline.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"fsr"
)

func main() {
	ctx := context.Background()
	sess := fsr.NewSession() // defaults: native solver, simulation runner

	// 1. The policy configuration: Gao-Rexford guideline A (§II-B).
	guideline := fsr.GaoRexfordA()

	// 2. Safety analysis (§IV): the guideline alone is not strictly
	// monotonic — the solver returns unsat and pinpoints c ⊕ C = C.
	res, err := sess.CheckStrictMonotonicity(ctx, guideline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== bare guideline ==")
	fmt.Println(res)

	// 3. The standard fix: compose with shortest hop-count as the
	// tie-breaker. The composition rule proves the product safe.
	report, err := sess.Analyze(ctx, fsr.GaoRexfordSafe())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== composed with hop count ==")
	fmt.Println(report)

	// 4. The same algebra compiles to a distributed implementation: the
	// GPV program plus the four policy functions of Table II.
	prog, err := sess.Compile(guideline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== generated NDlog implementation ==")
	fmt.Print(prog)

	// 5. And to the Yices encoding the paper prints in §IV-C — the text
	// smt.Parse reads back without losing an assertion.
	yices, err := sess.SolverEncoding(guideline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== solver encoding ==")
	fmt.Print(yices)
}
