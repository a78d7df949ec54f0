package engine

import (
	"context"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/obs"
	"fsr/internal/spp"
)

// TestRunnersAgreeUnderImportFilter is the cross-runner case for ⊕I: v
// first advertises its own egress route to u, then replaces it with its
// preferred route through w, which u's import filter rejects. The generated
// NDlog program (the model) retracts u's candidate on the rejected
// replacement and falls back to x; the compiled node (the implementation)
// once kept it, and u ended on a route v no longer offered. An instance
// cannot state an ⊕I entry, so both runners execute the rebuilt algebra
// through the reference wiring (runTabular).
func TestRunnersAgreeUnderImportFilter(t *testing.T) {
	in := spp.NewInstance("import-filter")
	in.AddSession("u", "v", 0)
	in.AddSession("v", "w", 0)
	in.AddSession("u", "x", 0)
	in.Rank("u", spp.P("u", "v", "w", "r2"), spp.P("u", "v", "r1"), spp.P("u", "x", "r3"))
	in.Rank("v", spp.P("v", "w", "r2"), spp.P("v", "r1"))
	in.Rank("w", spp.P("w", "r2"))
	in.Rank("x", spp.P("x", "r3"))
	conv, err := in.ToAlgebra()
	if err != nil {
		t.Fatal(err)
	}
	// The SPP conversion leaves ⊕I open; rebuild its algebra with one entry.
	b := algebra.NewBuilder(conv.Algebra.Name()).Sigs(conv.Algebra.Sigs()...).Labels(conv.Algebra.Labels()...)
	for _, p := range conv.Algebra.PrefList() {
		b.Prefer(p.A, p.B)
	}
	for _, e := range conv.Algebra.ConcatList() {
		b.Concat(e.Label, e.In, e.Out)
	}
	b.Import(conv.LabelOf[spp.Link{From: "u", To: "v"}], conv.SigOf[spp.P("v", "w", "r2").Key()], false)
	conv.Algebra = b.MustBuild()

	var tables []map[string]NodeRoute
	for _, r := range []SimRunner{{}, {Interpreted: true}} {
		rep, err := runTabular(context.Background(), r, conv, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !rep.Converged {
			t.Fatalf("%s: did not converge", r.Name())
		}
		tables = append(tables, rep.Best)
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Errorf("route tables differ:\n sim       %v\n sim-ndlog %v", tables[0], tables[1])
	}
	if got := tables[0]["u"].Path; !reflect.DeepEqual(got, []string{"u", "x", "r3"}) {
		t.Errorf("u selected %v after v replaced its route with one u filters, want the fallback [u x r3]", got)
	}
}

// TestProtocolLoopAllocationShape pins the allocation shape of the compiled
// protocol loop without a wall clock: two oscillating gadgets run to a 2 s
// and an 8 s horizon, and the extra objects per extra delivered message —
// the marginal cost, so set-up cannot hide in it or inflate it — stay within
// half an object. An imported advert allocates its one-hop route record; a
// flush sends the selected record itself and allocates nothing. The churn
// run puts link flaps, a partition, a restart and an origination flap
// between the two horizons, so withdraws and restarts are inside the budget.
func TestProtocolLoopAllocationShape(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		in    *spp.Instance
		churn bool
	}{{spp.BadGadget(), false}, {spp.Figure3IBGP(), false}, {spp.BadGadget(), true}} {
		in, opts := c.in, RunOptions{}
		name := in.Name
		if c.churn {
			var nodes []string
			for _, n := range in.Nodes {
				nodes = append(nodes, string(n))
			}
			var sessions [][2]string
			for _, s := range in.Sessions() {
				sessions = append(sessions, [2]string{string(s.From), string(s.To)})
			}
			spec := fullSpec
			spec.Start = 3 * time.Second
			opts.Plan = BuildFaultPlan(1, nodes, sessions, spec)
			name += " under churn"
		}
		measure := func(horizon time.Duration) (allocs float64, delivered int64) {
			opts.Horizon = horizon
			allocs = testing.AllocsPerRun(3, func() {
				rep, err := SimRunner{}.Run(ctx, in, opts)
				if err != nil {
					t.Fatal(err)
				}
				delivered = rep.Delivered
			})
			return allocs, delivered
		}
		a2, d2 := measure(2 * time.Second)
		a8, d8 := measure(8 * time.Second)
		if d8 <= d2 {
			t.Fatalf("%s: %d then %d deliveries; the gadget should keep oscillating", name, d2, d8)
		}
		perMsg := (a8 - a2) / float64(d8-d2)
		t.Logf("%s: %.0f allocs/%d delivered at 2 s, %.0f/%d at 8 s: %.2f objects per delivered message",
			name, a2, d2, a8, d8, perMsg)
		if perMsg > 0.5 {
			t.Errorf("%s: %.2f objects per delivered message, budget is 0.5", name, perMsg)
		}
	}
}

// TestSimRunnerObservability: a traced run records build, run and collect
// spans (children of whatever span the caller opened) with the event loop's
// totals on run, and the protocol counters flushed once per run account for
// every message the collector saw and every selection change in the report.
func TestSimRunnerObservability(t *testing.T) {
	counters := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range obs.Default().Samples() {
			out[s.Key()] = s.Value
		}
		return out
	}
	before := counters()
	tr := obs.NewTracer()
	ctx, root := obs.StartSpan(obs.WithTracer(context.Background(), tr), "simulate")
	rep, err := SimRunner{}.Run(ctx, spp.BadGadget(), RunOptions{Horizon: time.Second})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	after := counters()
	delta := func(key string) int64 { return int64(after[key] - before[key]) }

	sent := delta("fsr_pathvector_adverts_sent_total") + delta("fsr_pathvector_withdraws_sent_total")
	if sent != int64(rep.Messages) || sent == 0 {
		t.Errorf("adverts + withdraws sent = %d, collector saw %d messages", sent, rep.Messages)
	}
	if got := delta("fsr_pathvector_selection_changes_total"); got != rep.RouteChanges {
		t.Errorf("selection changes counter moved by %d, report has %d", got, rep.RouteChanges)
	}
	if delta(`fsr_pathvector_rejected_total{reason="loop"}`) == 0 {
		t.Errorf("BADGADGET's ring should produce loop rejects; counters: %v", after)
	}

	tree := tr.SpanTree()
	if len(tree) != 1 || tree[0].Name != "simulate" || len(tree[0].Children) != 3 {
		t.Fatalf("want one simulate span with three children, got %+v", tree)
	}
	for i, name := range []string{"build", "run", "collect"} {
		if got := tree[0].Children[i].Name; got != name {
			t.Errorf("child %d is %q, want %q", i, got, name)
		}
	}
	run := tree[0].Children[1].Attrs
	if run["delivered"] != strconv.FormatInt(rep.Delivered, 10) || run["route_changes"] != strconv.FormatInt(rep.RouteChanges, 10) || run["events"] == "" {
		t.Errorf("run span attributes %v do not match the report (delivered %d, route changes %d)", run, rep.Delivered, rep.RouteChanges)
	}
}
