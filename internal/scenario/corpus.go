package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fsr/internal/engine"
	"fsr/internal/spp"
)

// Corpus: interesting campaign outcomes serialized as JSON Lines, one
// self-contained entry per line, so a counterexample found by a sharded
// overnight campaign replays anywhere with `fsr campaign -replay FILE` —
// no seed, generator version, or topology dataset required.

// The wire form has one builder and two front ends. wire.build (wire.go) is
// the only code that turns wire fields into an *spp.Instance and the only
// place the form's rules live; it works on interned token ids and validates
// on them, leaving the wording of every rejection to Instance.Validate. The
// byte reader (read.go: ReadRequest, ReadInstance) feeds it straight from
// request bytes and is what the daemon's upload endpoints run. DecodeInstance
// feeds it from an InstanceJSON, the struct encoding/json fills: corpus
// lines (ReadCorpus → Replay), the benchmark's replay, GET
// /v1/instances/{id} via EncodeInstance, and the tests — where
// json.Unmarshal + DecodeInstance is the byte reader's oracle.

// InstanceJSON is the wire form of an SPP instance. Sessions are
// undirected (the Instance invariant: every session contributes both
// directed links); node order is preserved because it fixes the signature
// declaration order and hence the exact solver input.
type InstanceJSON struct {
	Name     string              `json:"name"`
	Nodes    []string            `json:"nodes"`
	Origins  []string            `json:"origins"`
	Sessions []SessionJSON       `json:"sessions"`
	Rank     map[string][]string `json:"rank"` // node → rendered paths, most preferred first
}

// SessionJSON is one undirected session with its optional IGP cost.
type SessionJSON struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Cost int    `json:"cost,omitempty"`
}

// EncodeInstance converts an instance to its wire form. Paths are stored
// as comma-joined node lists to stay grep-able in the corpus file.
func EncodeInstance(in *spp.Instance) InstanceJSON {
	out := InstanceJSON{Name: in.Name, Rank: map[string][]string{}}
	for _, n := range in.Nodes {
		out.Nodes = append(out.Nodes, string(n))
	}
	for _, o := range in.Origins {
		out.Origins = append(out.Origins, string(o))
	}
	for _, l := range in.Sessions() {
		out.Sessions = append(out.Sessions, SessionJSON{A: string(l.From), B: string(l.To), Cost: in.Cost[l]})
	}
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			out.Rank[string(n)] = append(out.Rank[string(n)], joinPath(p))
		}
	}
	return out
}

func joinPath(p spp.Path) string {
	parts := make([]string, len(p))
	for i, n := range p {
		parts[i] = string(n)
	}
	return strings.Join(parts, ",")
}

// DecodeInstance rebuilds an instance from its wire form, preserving node,
// origin, and session order exactly, and validates it. It is the second
// front end of the one builder (wire.build): the strings are interned into
// the same id-space form the byte reader produces, so the two cannot
// disagree on a rule.
func DecodeInstance(j InstanceJSON) (*spp.Instance, error) {
	w := newWire(len(j.Nodes)+len(j.Origins)+8, 0)
	w.name = j.Name
	var buf []byte
	token := func(s string) int32 {
		buf = append(buf[:0], s...)
		return w.token(buf)
	}
	for _, n := range j.Nodes {
		w.nodes = append(w.nodes, token(n))
	}
	for _, o := range j.Origins {
		w.origins = append(w.origins, token(o))
	}
	for _, s := range j.Sessions {
		w.sessions = append(w.sessions, wireSession{a: token(s.A), b: token(s.B), cost: s.Cost})
	}
	for n, ranked := range j.Rank {
		w.startRank(token(n))
		for _, p := range ranked {
			buf = append(buf[:0], p...)
			w.path(buf)
		}
	}
	in, _, err := w.build()
	return in, err
}

// CorpusEntry is one replayable record: the instance, the behavior the
// campaign observed on it, and the observation conditions (horizon,
// analysis-only), so a replay re-creates the recording environment no
// matter which flags it runs under.
type CorpusEntry struct {
	Kind      string       `json:"kind"`
	Seed      int64        `json:"seed"`
	Expected  string       `json:"expected"`
	Outcome   string       `json:"outcome"`
	Sat       bool         `json:"sat"`
	Converged bool         `json:"converged"`
	HorizonNS int64        `json:"horizon_ns,omitempty"`
	NoSim     bool         `json:"no_sim,omitempty"`
	Shrunk    bool         `json:"shrunk,omitempty"`
	Note      string       `json:"note,omitempty"`
	Instance  InstanceJSON `json:"instance"`
}

// CorpusEntries serializes a report's interesting results, preferring each
// result's shrunken instance when the shrinker produced one and
// regenerating the original instance (deterministically, from kind and
// seed) otherwise.
func (r *Report) CorpusEntries() ([]CorpusEntry, error) {
	shrunkByIndex := map[int]*spp.Instance{}
	for _, sh := range r.Shrunk {
		shrunkByIndex[sh.Index] = sh.Instance
	}
	var out []CorpusEntry
	for _, res := range r.Interesting() {
		entry := CorpusEntry{
			Kind:      string(res.Kind),
			Seed:      res.Seed,
			Expected:  res.Expected.String(),
			Outcome:   res.Outcome.String(),
			Sat:       res.Sat,
			Converged: res.Converged,
			HorizonNS: int64(r.Horizon),
			NoSim:     r.NoSim,
			Note:      res.Note,
		}
		if min, ok := shrunkByIndex[res.Index]; ok {
			entry.Shrunk = true
			entry.Instance = EncodeInstance(min)
		} else {
			sc, err := Generate(res.Kind, res.Seed)
			if err != nil {
				return nil, err
			}
			entry.Instance = EncodeInstance(sc.Instance)
		}
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// WriteCorpus writes entries as JSON Lines.
func WriteCorpus(w io.Writer, entries []CorpusEntry) error {
	enc := json.NewEncoder(w)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadCorpus parses a JSON Lines corpus.
func ReadCorpus(r io.Reader) ([]CorpusEntry, error) {
	dec := json.NewDecoder(r)
	var out []CorpusEntry
	for {
		var e CorpusEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("scenario: corpus entry %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// ReplayResult compares one corpus entry's recorded behavior against a
// fresh evaluation.
type ReplayResult struct {
	Entry CorpusEntry
	// Sat and Converged are the fresh observations.
	Sat       bool
	Converged bool
	// Reproduced reports that the fresh run matched the recorded verdict
	// and convergence bit.
	Reproduced bool
	Err        string
}

// String renders one replay line.
func (r ReplayResult) String() string {
	status := "reproduced"
	if !r.Reproduced {
		status = fmt.Sprintf("DIFFERS (recorded sat=%v converged=%v, got sat=%v converged=%v)",
			r.Entry.Sat, r.Entry.Converged, r.Sat, r.Converged)
	}
	if r.Err != "" {
		status = "error: " + r.Err
	}
	return fmt.Sprintf("%s seed %d [%s, %d nodes]: %s",
		r.Entry.Kind, r.Entry.Seed, r.Entry.Outcome, len(r.Entry.Instance.Nodes), status)
}

// Replay re-evaluates each corpus entry's instance under the spec's solver
// and runner but the *entry's* recorded observation conditions: each entry
// carries the horizon and analysis-only bit it was recorded under, so its
// convergence bit is compared like for like regardless of the replaying
// session's configuration.
func Replay(ctx context.Context, entries []CorpusEntry, spec Spec) ([]ReplayResult, error) {
	spec = spec.withDefaults()
	out := make([]ReplayResult, 0, len(entries))
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		rr := ReplayResult{Entry: e}
		in, err := DecodeInstance(e.Instance)
		if err != nil {
			rr.Err = err.Error()
			out = append(out, rr)
			continue
		}
		espec := spec
		if e.HorizonNS > 0 {
			espec.Horizon = time.Duration(e.HorizonNS)
		}
		espec.NoSim = e.NoSim
		// Churn entries carry no plan on the wire: the plan is seed-derived,
		// so regenerating the scenario from (kind, seed) rebuilds the exact
		// fault schedule the recording ran under. Ops referencing nodes a
		// shrunk instance no longer has are skipped by the runner.
		var plan *engine.FaultPlan
		if sc, err := Generate(Kind(e.Kind), e.Seed); err == nil {
			plan = sc.Plan
		}
		// Corpus files are untrusted input (another shard, another machine,
		// hand edits): give each entry the same per-scenario budget the
		// sweep and the shrinker enforce.
		ectx, cancel := context.WithTimeout(ctx, spec.ScenarioTimeout)
		sat, _, rep, err := evaluate(ectx, in, espec, e.Seed, plan)
		cancel()
		if err != nil {
			rr.Err = err.Error()
			out = append(out, rr)
			continue
		}
		rr.Sat, rr.Converged = sat, rep != nil && rep.Converged
		rr.Reproduced = rr.Sat == e.Sat && rr.Converged == e.Converged
		out = append(out, rr)
	}
	return out, nil
}
