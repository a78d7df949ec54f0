// Command benchdiff compares two BENCH_<tag>.json files written by
// hack/bench.sh and reports per-benchmark deltas in time and allocations.
// With -threshold it exits 1 when any benchmark present in both files got
// slower by more than the given fraction — the mechanical gate behind "the
// perf trajectory future PRs are held to".
//
// Usage:
//
//	go run ./hack/benchdiff [-threshold 0.05] [-allocs] OLD.json NEW.json
//
// Benchmarks present in only one file are listed but never gate: new
// benchmarks appear and retired ones disappear as the suite evolves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type entry struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]entry
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	delete(m, "_env") // bench.sh's machine-context header, not a benchmark
	return m, nil
}

func main() {
	threshold := flag.Float64("threshold", 0,
		"fail (exit 1) when any shared benchmark slows by more than this fraction (0 disables the gate)")
	gateAllocs := flag.Bool("allocs", false,
		"also gate on allocs/op growth beyond the threshold")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold FRAC] [-allocs] OLD.json NEW.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldM, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newM, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(oldM)+len(newM))
	seen := map[string]bool{}
	for n := range oldM {
		names = append(names, n)
		seen[n] = true
	}
	for n := range newM {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	fmt.Printf("%-55s %14s %14s %8s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δtime", "Δallocs")
	regressed := 0
	for _, name := range names {
		o, inOld := oldM[name]
		n, inNew := newM[name]
		switch {
		case !inNew:
			fmt.Printf("%-55s %14.0f %14s %8s %9s\n", name, o.NsPerOp, "-", "gone", "")
			continue
		case !inOld:
			fmt.Printf("%-55s %14s %14.0f %8s %9s\n", name, "-", n.NsPerOp, "new", "")
			continue
		}
		dt := ratio(o.NsPerOp, n.NsPerOp)
		da := ratio(o.AllocsPerOp, n.AllocsPerOp)
		mark := ""
		if *threshold > 0 && (dt > *threshold || (*gateAllocs && da > *threshold)) {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Printf("%-55s %14.0f %14.0f %7.1f%% %8.1f%%%s\n",
			name, o.NsPerOp, n.NsPerOp, dt*100, da*100, mark)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed past %.1f%%\n",
			regressed, *threshold*100)
		os.Exit(1)
	}
}

// ratio is the relative change new/old - 1; a zero baseline (a benchmark
// that reported no such unit) never counts as a regression.
func ratio(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return new/old - 1
}
