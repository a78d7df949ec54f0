package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for `bench -worker`, which
// runWorker re-executes.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-worker" {
		if err := workerMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeSizes keeps every code path of fullSizes — both sides of the
// 512-node routing, the planted pair, churn campaigns — at sizes that run
// in a few seconds.
var smokeSizes = sizes{
	WhatifN: 200, UploadSmall: 200, UploadLarge: 600, ScaleN: 2000,
	Campaign: 12, QueryPool: 8, EditPool: 3, Setups: 1, Warmup: 50 * time.Millisecond,
	TracedOps: map[string]int{whatifQuery: 3, whatifEdit: 2, oneshotUpload: 1, scaleSession: 1, campaignSim: 1},
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		print := func(seed int64) string {
			in, err := generate(name, seed, smokeSizes)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return in.fingerprint()
		}
		if a, b := print(1), print(1); a != b {
			t.Errorf("%s: seed 1 gave two different input sets", name)
		}
		if print(1) == print(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// TestSmoke runs all five workloads end to end against the real binary and
// through the traced replay, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, decl, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, decl: decl, out: t.TempDir(), sizes: smokeSizes}
	if err := b.build(); err != nil {
		t.Fatal(err)
	}
	tracecheck := filepath.Join(b.out, "tracecheck")
	build := exec.Command("go", "build", "-o", tracecheck, "./hack/tracecheck")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hack/tracecheck: %v\n%s", err, msg)
	}

	if len(decl.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloadNames))
	}
	measured := map[string]bool{}
	for i, name := range workloadNames {
		if i < len(decl.Workloads) && decl.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, decl.Workloads[i].Name, name)
		}
		res, err := b.runWorkload(name, 1, 0.3, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", name, res.Failed, res.Attempted, res.Errors)
		}
		if len(res.EndToEnd) != len(decl.EndToEnd) || len(res.PerLayer) != len(decl.PerLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
				name, len(res.EndToEnd), len(res.PerLayer), len(decl.EndToEnd), len(decl.PerLayer))
		}
		for _, d := range decl.EndToEnd {
			if m, ok := res.EndToEnd[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, d.Name, m, d.Unit)
			}
		}
		for _, layer := range res.measured {
			measured[layer] = true
		}
		check := exec.Command(tracecheck, filepath.Join(b.out, "trace-"+name+".json"), "op", "entry", "replay", "probes")
		if msg, err := check.CombinedOutput(); err != nil {
			t.Errorf("%s: hack/tracecheck rejects the trace: %v\n%s", name, err, msg)
		}
	}

	// runWorkload refuses an undeclared name; no declared one may go unmeasured.
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range decl.PerLayer {
		if !measured[d.Name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which no workload measures", d.Name)
		}
		if !wellFormed.MatchString(d.Name) {
			t.Errorf("per-layer metric name %q is malformed", d.Name)
		}
	}
	for _, d := range decl.EndToEnd {
		if !wellFormed.MatchString(d.Name) {
			t.Errorf("end-to-end metric name %q is malformed", d.Name)
		}
	}
	for _, name := range workloadNames {
		if !wellFormed.MatchString(name) {
			t.Errorf("workload name %q is malformed", name)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vals), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	decl := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100}, []float64{105}, "ok"},
		{[]float64{100}, []float64{115}, "worse"},
		{[]float64{100, 101, 102, 103}, []float64{90, 120, 150, 95}, "unresolved"},
		{[]float64{100, 130, 160, 190}, []float64{50, 60, 70, 80}, "ok"}, // noisy, but every B beats every A
	} {
		if got := judge(c.a, c.b, decl); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
