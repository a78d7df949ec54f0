package experiments

import (
	"fmt"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
	"fsr/internal/pathvector"
	"fsr/internal/simnet"
	"fsr/internal/spp"
	"fsr/internal/trace"
)

// TableIRow classifies one policy configuration on the Table I spectrum.
type TableIRow struct {
	Policy      string
	Topology    string // General | Specific
	Preferences string // Specific | Constrained
	Filters     string // None | Constrained | Specific
}

// TableI reproduces the paper's Table I: the spectrum of policy
// configurations FSR accepts, derived from the built-in configurations.
func TableI() []TableIRow {
	return []TableIRow{
		{Policy: "Hop-count", Topology: "General", Preferences: "Specific", Filters: "None"},
		{Policy: "Gao-Rexford", Topology: "General", Preferences: "Constrained", Filters: "Constrained"},
		{Policy: "IGP-cost", Topology: "Specific", Preferences: "Specific", Filters: "Constrained"},
		{Policy: "SPP instance", Topology: "Specific", Preferences: "Specific", Filters: "Specific"},
	}
}

// ClassifyPolicy derives a Table I row from an algebra: filters are read
// from the ⊕I/⊕E tables, preference specificity from whether the relation
// is total over Σ.
func ClassifyPolicy(a algebra.Algebra, topologySpecific bool) TableIRow {
	row := TableIRow{Policy: a.Name()}
	if topologySpecific {
		row.Topology = "Specific"
	} else {
		row.Topology = "General"
	}
	sigs := a.Sigs()
	if sigs == nil {
		row.Preferences = "Specific" // a closed-form total order
		row.Filters = filterClass(a)
		return row
	}
	total := true
	for _, x := range sigs {
		for _, y := range sigs {
			if !a.Prefer(x, y) && !a.Prefer(y, x) {
				total = false
			}
		}
	}
	if total {
		row.Preferences = "Specific"
	} else {
		row.Preferences = "Constrained"
	}
	row.Filters = filterClass(a)
	return row
}

func filterClass(a algebra.Algebra) string {
	sigs, labels := a.Sigs(), a.Labels()
	if sigs == nil {
		// Closed form: check a sample of numeric signatures.
		for _, l := range labels {
			for v := 1; v <= 4; v++ {
				if !a.Import(l, algebra.Num(v)) || !a.Export(l, algebra.Num(v)) {
					return "Constrained"
				}
			}
		}
		return "None"
	}
	filtered, totalEntries := 0, 0
	for _, l := range labels {
		for _, s := range sigs {
			totalEntries++
			if !a.Import(l, s) || !a.Export(l, s) {
				filtered++
			}
		}
	}
	switch {
	case filtered == 0:
		return "None"
	case filtered < totalEntries/2:
		return "Constrained"
	default:
		return "Specific"
	}
}

// FormatTableI renders Table I.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %-13s %-11s\n", "Policy", "Topology", "Preferences", "Filters")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10s %-13s %-11s\n", r.Policy, r.Topology, r.Preferences, r.Filters)
	}
	return b.String()
}

// GadgetReport is one §VI-C gadget study: analysis verdict plus execution
// behavior.
type GadgetReport struct {
	Name       string
	Sat        bool
	Converged  bool
	Time       time.Duration
	Messages   int
	TotalBytes int64
}

// SectionVICOptions tunes the gadget studies.
type SectionVICOptions struct {
	Seed    int64
	Batch   time.Duration
	Horizon time.Duration
}

// SectionVIC reproduces the §VI-C eBGP gadget studies: GOODGADGET is safe
// and converges, BADGADGET is unsafe and never converges, DISAGREE is
// reported unsafe by the (sufficient, not necessary) condition yet
// converges after transient oscillation.
func SectionVIC(opts SectionVICOptions) ([]GadgetReport, error) {
	if opts.Batch == 0 {
		opts.Batch = 20 * time.Millisecond
	}
	if opts.Horizon == 0 {
		opts.Horizon = 5 * time.Second
	}
	var out []GadgetReport
	for _, in := range []*spp.Instance{spp.GoodGadget(), spp.BadGadget(), spp.Disagree()} {
		rep, err := studyGadget(in, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func studyGadget(in *spp.Instance, opts SectionVICOptions) (GadgetReport, error) {
	rep := GadgetReport{Name: in.Name}
	conv, err := in.ToAlgebra()
	if err != nil {
		return rep, err
	}
	ana, err := analysis.Check(conv.Algebra, analysis.StrictMonotonicity)
	if err != nil {
		return rep, err
	}
	rep.Sat = ana.Sat
	col := trace.NewCollector(10 * time.Millisecond)
	net := simnet.New(opts.Seed+11, col)
	_, err = pathvector.BuildSPP(net, in, simnet.DefaultLink(), pathvector.Config{
		BatchInterval: opts.Batch,
		StartStagger:  opts.Batch / 2,
	})
	if err != nil {
		return rep, err
	}
	run := net.Run(opts.Horizon)
	rep.Converged = run.Converged
	rep.Time = run.Time
	rep.Messages, rep.TotalBytes = col.Totals()
	return rep, nil
}

// GoodGadgetScaling reproduces the §VI-C scaling observation: as the number
// of (safe) gadgets grows, both convergence time and communication cost
// grow, yet every scenario converges. Gadgets are chained safe instances.
func GoodGadgetScaling(counts []int, opts SectionVICOptions) ([]GadgetReport, error) {
	if opts.Batch == 0 {
		opts.Batch = 20 * time.Millisecond
	}
	if opts.Horizon == 0 {
		opts.Horizon = 30 * time.Second
	}
	var out []GadgetReport
	for _, k := range counts {
		in := spp.ChainGadget(2 + 2*k) // k chained gadgets
		in.Name = fmt.Sprintf("goodgadget-x%d", k)
		rep, err := studyGadget(in, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// DisagreeRow is one point of the conflicting-links sweep: DISAGREE-style
// node pairs embedded in a ring, convergence time vs the fraction of
// conflicting links ("a link where the two adjacent nodes always prefer to
// route through each other", §VI-C).
type DisagreeRow struct {
	ConflictFraction float64
	Converged        bool
	Time             time.Duration
}

// DisagreeSweep builds rings of n nodes where a fraction of adjacent pairs
// disagree, and measures convergence time as the fraction grows.
func DisagreeSweep(n int, fractions []float64, opts SectionVICOptions) ([]DisagreeRow, error) {
	if opts.Batch == 0 {
		opts.Batch = 20 * time.Millisecond
	}
	if opts.Horizon == 0 {
		opts.Horizon = 60 * time.Second
	}
	var out []DisagreeRow
	for _, f := range fractions {
		in := disagreeRing(n, f)
		net := simnet.New(opts.Seed+13, nil)
		_, err := pathvector.BuildSPP(net, in, simnet.DefaultLink(), pathvector.Config{
			BatchInterval: opts.Batch,
			StartStagger:  opts.Batch / 2,
		})
		if err != nil {
			return nil, err
		}
		run := net.Run(opts.Horizon)
		out = append(out, DisagreeRow{ConflictFraction: f, Converged: run.Converged, Time: run.Time})
	}
	return out, nil
}

// disagreeRing builds a 2n-node instance of n adjacent pairs; a fraction f
// of the pairs are DISAGREE pairs (each member prefers the other's route),
// the rest prefer their own external route.
func disagreeRing(pairs int, f float64) *spp.Instance {
	in := spp.NewInstance(fmt.Sprintf("disagree-ring-%.2f", f))
	conflicting := int(f*float64(pairs) + 0.5)
	for i := 0; i < pairs; i++ {
		a := spp.Node(fmt.Sprintf("a%d", i))
		b := spp.Node(fmt.Sprintf("b%d", i))
		ra := fmt.Sprintf("r%da", i)
		rb := fmt.Sprintf("r%db", i)
		in.AddSession(a, b, 0)
		if i < conflicting {
			in.Rank(a, spp.P(string(a), string(b), rb), spp.P(string(a), ra))
			in.Rank(b, spp.P(string(b), string(a), ra), spp.P(string(b), rb))
		} else {
			in.Rank(a, spp.P(string(a), ra), spp.P(string(a), string(b), rb))
			in.Rank(b, spp.P(string(b), rb), spp.P(string(b), string(a), ra))
		}
	}
	return in
}
