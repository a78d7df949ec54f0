package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fsr/internal/engine"
	"fsr/internal/spp"
)

// TableIRow classifies one policy configuration on the Table I spectrum.
type TableIRow struct {
	Policy      string
	Topology    string // General | Specific
	Preferences string // Specific | Constrained
	Filters     string // None | Constrained | Specific
}

// TableI reproduces the paper's Table I: the spectrum of policy
// configurations FSR accepts, as the paper tabulates it.
func TableI() []TableIRow {
	return []TableIRow{
		{Policy: "Hop-count", Topology: "General", Preferences: "Specific", Filters: "None"},
		{Policy: "Gao-Rexford", Topology: "General", Preferences: "Constrained", Filters: "Constrained"},
		{Policy: "IGP-cost", Topology: "Specific", Preferences: "Specific", Filters: "Constrained"},
		{Policy: "SPP instance", Topology: "Specific", Preferences: "Specific", Filters: "Specific"},
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

// run executes the instance on the compiled simulator under the options,
// seeded with opts.Seed+salt.
func (opts SectionVICOptions) run(in *spp.Instance, salt int64) (*engine.RunReport, error) {
	return engine.SimRunner{}.Run(context.TODO(), in, engine.RunOptions{
		Seed:          opts.Seed + salt,
		BatchInterval: opts.Batch,
		StartStagger:  opts.Batch / 2,
		Horizon:       opts.Horizon,
	})
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
	ana, _, err := spp.Analyze(context.TODO(), in)
	if err != nil {
		return rep, err
	}
	rep.Sat = ana.Sat
	run, err := opts.run(in, 11)
	if err != nil {
		return rep, err
	}
	rep.Converged = run.Converged
	rep.Time = run.Time
	rep.Messages, rep.TotalBytes = run.Messages, run.Bytes
	return rep, nil
}
