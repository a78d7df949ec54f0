package experiments

import (
	"testing"
	"time"
)

// TestFigure4Shape checks the Figure 4 claims at test scale: convergence
// time grows with the longest customer-provider chain, every point
// converges, and every point beats the theoretical worst case 2×(d+1)
// phases (§VI-A: "the protocol converges faster than the theoretical worst
// case").
func TestFigure4Shape(t *testing.T) {
	res, err := Figure4(Figure4Options{
		Seed:   1,
		Depths: []int{3, 5, 7, 9},
		Batch:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if !row.Converged {
			t.Errorf("depth %d: did not converge", row.Depth)
		}
		if row.SimTime >= row.WorstCase {
			t.Errorf("depth %d: sim time %v should beat worst case %v", row.Depth, row.SimTime, row.WorstCase)
		}
		if i > 0 && row.SimTime < res.Rows[0].SimTime/2 {
			t.Errorf("depth %d: convergence time should grow with depth (%v vs depth-%d's %v)",
				row.Depth, row.SimTime, res.Rows[0].Depth, res.Rows[0].SimTime)
		}
	}
	// The trend: deepest chain takes longer than the shallowest.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.SimTime <= first.SimTime {
		t.Errorf("convergence should increase with chain length: depth %d → %v, depth %d → %v",
			first.Depth, first.SimTime, last.Depth, last.SimTime)
	}
}

// TestFigure4Deployment runs the CAIDA-Testbed series (real sockets) at a
// small scale and checks it mirrors the simulation ordering.
func TestFigure4Deployment(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment mode uses real sockets and wall-clock batching")
	}
	res, err := Figure4(Figure4Options{
		Seed:       1,
		Depths:     []int{3},
		Batch:      30 * time.Millisecond,
		Deployment: true,
	})
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	row := res.Rows[0]
	if row.TestTime <= 0 {
		t.Fatalf("deployment run did not produce a convergence time")
	}
	if row.TestTime >= row.WorstCase*2 {
		t.Errorf("deployment convergence %v far beyond worst case %v", row.TestTime, row.WorstCase)
	}
}

// TestFigure5Shape checks the §VI-B workflow at reduced scale: the gadget
// instance is unsat with a small core naming only embedded routers, the
// fixed instance is sat, and fixing reduces both traffic and convergence
// time (the paper reports ≈91% and ≈82% on its testbed).
func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(Figure5Options{
		Seed:    5,
		Batch:   10 * time.Millisecond,
		Horizon: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if res.GadgetAnalysis.Sat {
		t.Errorf("gadget instance should be unsat")
	}
	if res.FixedAnalysis.Sat != true {
		t.Errorf("fixed instance should be sat:\n%s", res.FixedAnalysis)
	}
	if n := len(res.GadgetAnalysis.Core); n == 0 || n > 8 {
		t.Errorf("gadget core should be small (dispute wheel), got %d constraints", n)
	}
	// The solver answers in a handful of probes (paper: < 100 ms): the
	// component pass, the witness, and one per witness atom the minimization
	// re-probes.
	st := res.GadgetAnalysis.Stats
	t.Logf("gadget solve: %d probes, %d relaxations over %d assertions, %v", st.Probes, st.Relaxations, st.Assertions, st.Duration)
	if st.Probes > 16 || st.Relaxations > 256 {
		t.Errorf("gadget solve took %d probes and %d relaxations, want at most 16 and 256", st.Probes, st.Relaxations)
	}
	// Pinpointing: every suspect is an embedded router (reflector or its
	// client egress).
	embedded := map[string]bool{}
	for _, r := range res.EmbeddedReflectors {
		embedded[string(r)] = true
	}
	for _, s := range res.Suspects {
		if !embedded[string(s)] {
			t.Errorf("suspect %s is not an embedded reflector %v", s, res.EmbeddedReflectors)
		}
	}
	if len(res.Suspects) == 0 {
		t.Errorf("core should implicate the embedded reflectors")
	}
	// Figure 5's shape: the gadget run generates strictly more traffic and
	// converges later.
	if res.NoGadgetBytes >= res.GadgetBytes {
		t.Errorf("fix should reduce traffic: gadget %d bytes, fixed %d bytes", res.GadgetBytes, res.NoGadgetBytes)
	}
	if res.NoGadgetConv >= res.GadgetConv {
		t.Errorf("fix should reduce convergence time: gadget %v, fixed %v", res.GadgetConv, res.NoGadgetConv)
	}
	if res.CommReduction() < 30 {
		t.Errorf("communication reduction %.0f%% implausibly small (paper: ≈91%%)", res.CommReduction())
	}
}

// TestFigure6Shape checks the §VI-D ordering at reduced scale: HLP
// converges no slower than PV and costs fewer bytes per node; cost hiding
// reduces bytes further (paper: PV 1.75 MB > HLP 1.09 MB > HLP-CH
// 0.59 MB).
func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(Figure6Options{
		Seed:       3,
		Domains:    4,
		DomainSize: 8,
		CrossLinks: 12,
		Batch:      10 * time.Millisecond,
		Horizon:    10 * time.Second,
	})
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if res.PVBytes <= res.HLPBytes {
		t.Errorf("PV should cost more than HLP: PV %.0f, HLP %.0f bytes/node", res.PVBytes, res.HLPBytes)
	}
	if res.HLPBytes <= res.HLPCHBytes {
		t.Errorf("cost hiding should reduce bytes: HLP %.0f, HLP-CH %.0f bytes/node", res.HLPBytes, res.HLPCHBytes)
	}
	if res.HLPConv > res.PVConv*2 {
		t.Errorf("HLP convergence %v should be comparable to or faster than PV %v", res.HLPConv, res.PVConv)
	}
}

// TestTableI checks the classification of the built-in configurations
// against the paper's Table I rows.
func TestTableI(t *testing.T) {
	rows := TableI()
	want := map[string][3]string{
		"Hop-count":    {"General", "Specific", "None"},
		"Gao-Rexford":  {"General", "Constrained", "Constrained"},
		"IGP-cost":     {"Specific", "Specific", "Constrained"},
		"SPP instance": {"Specific", "Specific", "Specific"},
	}
	for _, r := range rows {
		w, ok := want[r.Policy]
		if !ok {
			t.Errorf("unexpected policy %s", r.Policy)
			continue
		}
		if r.Topology != w[0] || r.Preferences != w[1] || r.Filters != w[2] {
			t.Errorf("%s: got (%s,%s,%s), want (%s,%s,%s)", r.Policy,
				r.Topology, r.Preferences, r.Filters, w[0], w[1], w[2])
		}
	}
}

// TestSectionVIC checks the gadget study outcomes.
func TestSectionVIC(t *testing.T) {
	reps, err := SectionVIC(SectionVICOptions{Seed: 1, Horizon: 8 * time.Second})
	if err != nil {
		t.Fatalf("SectionVIC: %v", err)
	}
	byName := map[string]GadgetReport{}
	for _, r := range reps {
		byName[r.Name] = r
	}
	if g := byName["goodgadget"]; !g.Sat || !g.Converged {
		t.Errorf("GOODGADGET should be sat and converge: %+v", g)
	}
	if g := byName["badgadget"]; g.Sat || g.Converged {
		t.Errorf("BADGADGET should be unsat and oscillate: %+v", g)
	}
	if g := byName["disagree"]; g.Sat {
		t.Errorf("DISAGREE should be reported unsafe (sufficient condition): %+v", g)
	}
	if g := byName["disagree"]; !g.Converged {
		t.Errorf("DISAGREE should converge after transient oscillation: %+v", g)
	}
}
