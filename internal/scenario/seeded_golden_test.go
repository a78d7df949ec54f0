package scenario

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"fsr/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seeded_runs.golden from the current code")

// seededRuns renders the execution half's seeded behaviour: for the six
// benchmark kinds × 16 seeds, the campaign's report line (convergence
// instant to the nanosecond, fault, drop and message counts), the run
// report's counters, and every node's selected route.
func seededRuns(t *testing.T) string {
	t.Helper()
	spec := Spec{
		Kinds:    []Kind{GadgetSplice, GaoRexford, IBGP, ChurnFlap, ChurnStorm, ChurnDispute},
		Count:    96,
		BaseSeed: 1_000_000,
	}.withDefaults()
	ctx := context.Background()
	var b strings.Builder
	for i := 0; i < spec.Count; i++ {
		res := runOne(ctx, spec, i)
		fmt.Fprintln(&b, res.String())
		sc, err := Generate(res.Kind, res.Seed)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		_, _, rep, err := evaluate(ctx, sc.Instance, spec, res.Seed, sc.Plan)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		writeReport(&b, rep)
	}
	return b.String()
}

func writeReport(b *strings.Builder, rep *engine.RunReport) {
	fmt.Fprintf(b, "  time=%d delivered=%d messages=%d bytes=%d dropped=%d faults=%d route_changes=%d\n",
		rep.Time, rep.Delivered, rep.Messages, rep.Bytes, rep.Dropped, rep.Faults, rep.RouteChanges)
	nodes := make([]string, 0, len(rep.Best))
	for n := range rep.Best {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		rt := rep.Best[n]
		fmt.Fprintf(b, "  %s: %s | %s\n", n, strings.Join(rt.Path, " "), rt.Sig)
	}
}

// TestSeededRunsGolden is what "same behaviour" means for the execution
// half: the file was generated on the commit before pathvector.Node moved
// to neighbour slots, and any drift in event order, tie-breaking or
// duplicate suppression shows up here as a changed instant, count or route.
// Regenerate with -update only for an intended behavioural change.
func TestSeededRunsGolden(t *testing.T) {
	const path = "testdata/seeded_runs.golden"
	got := seededRuns(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("seeded runs drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("seeded runs drifted: %d lines, golden has %d", len(gl), len(wl))
}
