package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareFiles prints one row per (workload, end-to-end metric): both
// sides' medians, the ratio with its base, the bound, and a verdict.
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's own runs spread wider than the bound (distance
//	            between its quartiles over its median), so the difference
//	            cannot be told from noise, unless every run of one side
//	            reads better than every run of the other; setup_s is exempt
//
// Each argument is a result file or a comma-separated list of them; a side
// with a single run has no spread and can only read ok or worse. Where both
// sides hold a traced run of the same workload and seed, the counts that
// must repeat exactly are compared too. It returns an error unless every
// row is ok.
func compareFiles(decl *benchmarkFile, a, b string) error {
	sideA, err := loadRuns(a)
	if err != nil {
		return err
	}
	sideB, err := loadRuns(b)
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-14s %12s %12s %16s %6s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	notOK := 0
	for _, wl := range decl.Workloads {
		for _, d := range decl.EndToEnd {
			va, vb := sideA.e2e[wl.Name][d.Name], sideB.e2e[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := judge(va, vb, d)
			if verdict != "ok" {
				notOK++
			}
			fmt.Printf("%-15s %-14s %12.4f %12.4f %16.4f %5.0f%%  %s (n=%d,%d; spread %.1f%%, %.1f%%)\n",
				wl.Name, d.Name, ma, mb, mb/ma, d.Bound*100, verdict, len(va), len(vb), spread(va)*100, spread(vb)*100)
		}
	}
	for _, key := range sortedKeys(sideA.counts) {
		ca, cb := sideA.counts[key], sideB.counts[key]
		if cb == nil {
			continue
		}
		for _, name := range exactCounts {
			verdict := "ok"
			if ca[name] != cb[name] {
				verdict = "differs"
				notOK++
			}
			fmt.Printf("%-15s %-22s %14.0f %14.0f  %s (must repeat exactly)\n", key, name, ca[name], cb[name], verdict)
		}
	}
	if notOK > 0 {
		return fmt.Errorf("%d row(s) not ok", notOK)
	}
	return nil
}

// exactCounts are the per-layer counts a deterministic program repeats
// exactly for one seed; a claim may rest on them only while they do.
var exactCounts = []string{
	"smt.probes", "smt.components", "spp.constraints", "spp.core_size", "engine.messages", "engine.route_changes",
}

func judge(a, b []float64, d metricDecl) string {
	sign := 1.0 // how much worse B is, as a share of A, is sign·(B−A)/A
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign*(median(b)-median(a))/median(a) > d.Bound
	// A set-up is cold by definition (first-touch page faults, empty
	// caches), so its runs spread widely; like the harness, judge it on the
	// medians alone.
	if d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound {
		sa, sb := sorted(a), sorted(b)
		switch {
		case sign*(sb[0]-sa[len(sa)-1]) > 0 && worse: // every B worse than every A
			return "worse"
		case sign*(sa[0]-sb[len(sb)-1]) > 0: // every B better than every A
			return "ok"
		}
		return "unresolved"
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives; 0 for fewer than two values.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := sorted(vals)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// runSet is one side of a comparison.
type runSet struct {
	e2e    map[string]map[string][]float64 // workload → metric → one value per run
	counts map[string]map[string]float64   // "workload seed N" of a traced run → per-layer metric → value
}

func loadRuns(list string) (*runSet, error) {
	out := &runSet{e2e: map[string]map[string][]float64{}, counts: map[string]map[string]float64{}}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var file resultFile
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range file.Runs {
			// End-to-end values count only from untraced runs; a traced
			// run contributes its counts.
			if run.Traced {
				counts := map[string]float64{}
				for name, m := range run.PerLayer {
					counts[name] = m.Value
				}
				out.counts[fmt.Sprintf("%s seed %d", run.Workload, run.Seed)] = counts
				continue
			}
			if out.e2e[run.Workload] == nil {
				out.e2e[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.EndToEnd {
				out.e2e[run.Workload][name] = append(out.e2e[run.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

func sortedKeys(m map[string]map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
