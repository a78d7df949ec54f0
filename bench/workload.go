package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fsr"
	"fsr/internal/scenario"
	"fsr/internal/spp"
)

// The five workloads. Inputs are made here, from the seed, before any clock
// starts; the program under test receives only what this file generates.
// Every expected answer is fixed by how the input was built (see README.md,
// "Answers by construction"), never by asking the program.

const (
	whatifQuery   = "whatif-query"
	whatifEdit    = "whatif-edit"
	oneshotUpload = "oneshot-upload"
	scaleSession  = "scale-session"
	campaignSim   = "campaign-sim"
)

// workloadNames is the run order, and must list exactly the workloads
// BENCHMARK.json declares (bench_test.go checks).
var workloadNames = []string{whatifQuery, whatifEdit, oneshotUpload, scaleSession, campaignSim}

// loopShape states how load is offered, per workload, for result.json.
var loopShape = map[string]string{
	whatifQuery:   "closed loop, 1 client, 1 keep-alive connection to a fresh fsr serve",
	whatifEdit:    "closed loop, 1 client, 1 keep-alive connection to a fresh fsr serve",
	oneshotUpload: "closed loop, 1 client, 1 keep-alive connection to a fresh fsr serve",
	scaleSession:  "closed loop, 1 caller in a fresh worker process, Session defaults",
	campaignSim:   "closed loop, 1 caller in a fresh worker process, Session defaults",
}

// sizes holds every instance size and repetition count. fullSizes is what
// the benchmark measures; the tier-1 smoke test shrinks them.
type sizes struct {
	WhatifN     int // internet instance resident in the whatif-* daemons
	UploadSmall int // chain and internet uploads on the classic path
	UploadLarge int // internet uploads on the scale path (safe and planted)
	ScaleN      int // internet instance of scale-session
	Campaign    int // scenarios per campaign-sim operation
	QueryPool   int // distinct whatif-query requests cycled through
	EditPool    int // distinct whatif-edit sessions cycled through
	Setups      int // set-ups per untraced run; setup_s is their median
	Warmup      time.Duration
	TracedOps   map[string]int // operations the traced run replays
}

var fullSizes = sizes{
	WhatifN: 5000, UploadSmall: 400, UploadLarge: 2000, ScaleN: 50000,
	Campaign: 128, QueryPool: 64, EditPool: 16, Setups: 3, Warmup: 2 * time.Second,
	TracedOps: map[string]int{whatifQuery: 20, whatifEdit: 5, oneshotUpload: 5, scaleSession: 3, campaignSim: 4},
}

// topologySeed fixes the generated AS graphs. Power-law topologies of one
// size differ between generator seeds by a fifth in links and permitted
// paths, and the quadratic layers square that: with the topology following
// -seed, oneshot-upload read 355–562 ms over ten seeds. So -seed decides
// what is *done* to the topology (which nodes are re-ranked, where the
// dispute pair is planted, which scenarios a campaign draws), not its shape.
const topologySeed = 1

// pairDegree is the number of sessions the two ends of a planted dispute
// pair have between them. ReRank refreshes one segment per incident link,
// so a draw that lands on a hundred-session hub costs ten times one on an
// ordinary AS, and a uniform draw over links lands on hubs often. Five is
// the commonest sum, with hundreds of candidates at every generated size.
const pairDegree = 5

// campaignKinds cycles through the mixed and the churn generators, so each
// operation runs conversion, analysis and the compiled runner both with and
// without a fault plan.
var campaignKinds = []fsr.ScenarioKind{
	fsr.ScenarioGadgetSplice, fsr.ScenarioGaoRexford, fsr.ScenarioIBGP,
	fsr.ScenarioChurnFlap, fsr.ScenarioChurnStorm, fsr.ScenarioChurnDispute,
}

// Wire mirrors of the daemon's request and response bodies
// (internal/server keeps its own unexported). The workloads marshal them,
// the client checks answers with them, and the traced replay times
// encoding/json on them.
type (
	createReq struct {
		ID       string                 `json:"id,omitempty"`
		Gadget   string                 `json:"gadget,omitempty"`
		Instance *scenario.InstanceJSON `json:"instance,omitempty"`
	}
	whatIfOp struct {
		Op    string   `json:"op"`
		Node  string   `json:"node,omitempty"`
		Paths []string `json:"paths,omitempty"`
		A     string   `json:"a,omitempty"`
		B     string   `json:"b,omitempty"`
		Cost  int      `json:"cost,omitempty"`
	}
	whatIfReq struct {
		Ops     []whatIfOp `json:"ops"`
		Discard bool       `json:"discard,omitempty"`
	}
	analyzeReq struct {
		Gadget   string                 `json:"gadget,omitempty"`
		Instance *scenario.InstanceJSON `json:"instance,omitempty"`
	}
)

// request is one HTTP call of a serve workload with its expected answer.
type request struct {
	Label  string // names the request in error listings and per-request medians
	Method string
	Path   string
	Body   []byte
	Want   expect
}

// expect is an answer known by construction. Safe nil means only the
// status is checked (instance creation).
type expect struct {
	Status    int
	Safe      *bool
	Mode      string // "" where the daemon's discharge mode is not part of the contract
	Discarded bool
	Core      int      // exact core size; -1 where unspecified
	Suspects  []string // nodes the answer must implicate
}

// answer is what the client reads out of a response body.
type answer struct {
	Safe      *bool    `json:"safe"`
	Mode      string   `json:"mode"`
	Discarded bool     `json:"discarded"`
	Core      []string `json:"core"`
	Suspects  []string `json:"suspects"`
	Error     string   `json:"error"`
}

// check compares a response with the expectation and returns what it
// read; why is "" when the response is correct.
func (e expect) check(status int, body []byte) (a answer, why string) {
	if status != e.Status {
		return a, fmt.Sprintf("status %d, want %d: %.200s", status, e.Status, body)
	}
	if e.Safe == nil {
		return a, ""
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, "undecodable response: " + err.Error()
	}
	switch {
	case a.Safe == nil || *a.Safe != *e.Safe:
		return a, fmt.Sprintf("safe=%v, want %v", a.Safe, *e.Safe)
	case e.Mode != "" && a.Mode != e.Mode:
		return a, fmt.Sprintf("mode=%q, want %q", a.Mode, e.Mode)
	case a.Discarded != e.Discarded:
		return a, fmt.Sprintf("discarded=%v, want %v", a.Discarded, e.Discarded)
	case e.Core >= 0 && len(a.Core) != e.Core:
		return a, fmt.Sprintf("core of %d, want %d", len(a.Core), e.Core)
	}
	for _, want := range e.Suspects {
		found := false
		for _, got := range a.Suspects {
			found = found || got == want
		}
		if !found {
			return a, fmt.Sprintf("suspects %v miss %s", a.Suspects, want)
		}
	}
	return a, ""
}

func safeAnswer() expect { t := true; return expect{Status: 200, Safe: &t, Core: 0} }
func unsafeAnswer(core int, suspects ...spp.Node) expect {
	f := false
	e := expect{Status: 200, Safe: &f, Core: core}
	for _, n := range suspects {
		e.Suspects = append(e.Suspects, string(n))
	}
	return e
}

// inputs is everything one workload run feeds the program under test.
type inputs struct {
	// Serve workloads: requests that make the daemon ready, then the pool
	// of operations the client cycles through.
	setup []request
	ops   [][]request
	// scale-session: the violation-free instance, the same instance with
	// a planted dispute pair, and the pair.
	safe, unsafe *spp.Instance
	pair         [2]spp.Node
	// campaign-sim: the i-th operation's campaign.
	campaign func(i int) fsr.CampaignSpec
}

const residentID = "bench"

// generate builds a workload's inputs; equal (name, seed, sizes) give
// byte-identical inputs.
func generate(name string, seed int64, sz sizes) (*inputs, error) {
	switch name {
	case whatifQuery, whatifEdit:
		base := fsr.GenerateInternetSPP("internet", sz.WhatifN, topologySeed)
		in := &inputs{setup: []request{
			post("create", "/v1/instances", createReq{ID: residentID, Instance: wire(base)}, expect{Status: 201}),
			post("verify", "/v1/instances/"+residentID+"/verify", nil, safeAnswer()),
		}}
		rng := rand.New(rand.NewSource(seed))
		multi := multiPathNodes(base)
		if len(multi) < 3 {
			return nil, fmt.Errorf("%s: instance has %d nodes with two permitted paths, want 3", name, len(multi))
		}
		if name == whatifQuery {
			want := safeAnswer()
			want.Mode, want.Discarded = "delta", true
			for i := 0; i < sz.QueryPool; i++ {
				w := multi[rng.Intn(len(multi))]
				body := whatIfReq{Ops: []whatIfOp{rerank(w, swapTop(base.Permitted[w]))}, Discard: true}
				in.ops = append(in.ops, []request{post("query", whatifPath, body, want)})
			}
			return in, nil
		}
		delta := safeAnswer()
		delta.Mode = "delta"
		sessions := pairSessions(base)
		for i := 0; i < sz.EditPool; i++ {
			l := sessions[rng.Intn(len(sessions))]
			u, v := l.From, l.To
			w := multi[rng.Intn(len(multi))]
			for w == u || w == v {
				w = multi[rng.Intn(len(multi))]
			}
			du, dv := disputePair(u, v)
			in.ops = append(in.ops, []request{
				post("break", whatifPath, whatIfReq{Ops: []whatIfOp{rerank(u, du), rerank(v, dv)}}, unsafeAnswer(4, u, v)),
				post("repair", whatifPath, whatIfReq{Ops: []whatIfOp{rerank(u, base.Permitted[u]), rerank(v, base.Permitted[v])}}, safeAnswer()),
				post("tweak", whatifPath, whatIfReq{Ops: []whatIfOp{rerank(w, swapTop(base.Permitted[w]))}}, delta),
				post("untweak", whatifPath, whatIfReq{Ops: []whatIfOp{rerank(w, base.Permitted[w])}}, safeAnswer()),
			})
		}
		return in, nil

	case oneshotUpload:
		large := fsr.GenerateInternetSPP("internet-large", sz.UploadLarge, topologySeed)
		planted := large.Clone()
		planted.Name = "internet-planted"
		u, v := pickSession(planted, rand.New(rand.NewSource(seed)))
		plant(planted, u, v)
		analyze := func(in *spp.Instance, want expect) request {
			return post(in.Name, "/v1/analyze", analyzeReq{Instance: wire(in)}, want)
		}
		return &inputs{ops: [][]request{{
			analyze(fsr.ChainGadget(sz.UploadSmall), safeAnswer()),
			analyze(fsr.GenerateInternetSPP("internet-small", sz.UploadSmall, topologySeed), safeAnswer()),
			analyze(large, safeAnswer()),
			analyze(planted, unsafeAnswer(-1, u, v)),
			analyze(fsr.Figure3IBGP(), unsafeAnswer(-1)),
		}}}, nil

	case scaleSession:
		in := &inputs{safe: fsr.GenerateInternetSPP("internet", sz.ScaleN, topologySeed)}
		in.unsafe = in.safe.Clone()
		u, v := pickSession(in.unsafe, rand.New(rand.NewSource(seed)))
		plant(in.unsafe, u, v)
		in.pair = [2]spp.Node{u, v}
		return in, nil

	case campaignSim:
		return &inputs{campaign: func(i int) fsr.CampaignSpec {
			return fsr.CampaignSpec{
				Kinds: campaignKinds, Count: sz.Campaign,
				BaseSeed: seed*1_000_000 + int64(sz.Campaign*i),
			}
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames, ", "))
}

const whatifPath = "/v1/instances/" + residentID + "/whatif"

func post(label, path string, body any, want expect) request {
	rq := request{Label: label, Method: "POST", Path: path, Want: want}
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			panic(err) // the mirrors above always marshal
		}
		rq.Body = data
	}
	return rq
}

func wire(in *spp.Instance) *scenario.InstanceJSON {
	j := scenario.EncodeInstance(in)
	return &j
}

func rerank(n spp.Node, paths []spp.Path) whatIfOp {
	op := whatIfOp{Op: "rerank", Node: string(n)}
	for _, p := range paths {
		parts := make([]string, len(p))
		for i, hop := range p {
			parts[i] = string(hop)
		}
		op.Paths = append(op.Paths, strings.Join(parts, ","))
	}
	return op
}

// multiPathNodes lists, in instance order, the nodes a top-two swap can be
// applied to.
func multiPathNodes(in *spp.Instance) []spp.Node {
	var out []spp.Node
	for _, n := range in.Nodes {
		if len(in.Permitted[n]) >= 2 {
			out = append(out, n)
		}
	}
	return out
}

// swapTop returns the ranking with its two most-preferred paths exchanged.
func swapTop(paths []spp.Path) []spp.Path {
	out := append([]spp.Path(nil), paths...)
	out[0], out[1] = out[1], out[0]
	return out
}

// pairSessions lists the sessions a dispute pair may be planted on: both
// ends hold a ranking and have pairDegree sessions between them.
func pairSessions(in *spp.Instance) []spp.Link {
	degree := map[spp.Node]int{}
	for _, l := range in.Links {
		degree[l.From]++
	}
	var out []spp.Link
	for _, l := range in.Links {
		if degree[l.From]+degree[l.To] == pairDegree && len(in.Permitted[l.From]) > 0 && len(in.Permitted[l.To]) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// pickSession draws one of pairSessions.
func pickSession(in *spp.Instance, rng *rand.Rand) (u, v spp.Node) {
	sessions := pairSessions(in)
	l := sessions[rng.Intn(len(sessions))]
	return l.From, l.To
}

// disputePair is the two-node DISAGREE cycle over fresh origin tokens: each
// end prefers the route through the other over its own. Two preferences
// plus two strict-monotonicity entries form a four-constraint cycle, so any
// instance holding these two rankings is unsat with exactly this core and
// u, v as its suspects.
func disputePair(u, v spp.Node) (ru, rv []spp.Path) {
	ou, ov := spp.Node("rx_"+string(u)), spp.Node("rx_"+string(v))
	return []spp.Path{{u, v, ov}, {u, ou}}, []spp.Path{{v, u, ou}, {v, ov}}
}

func plant(in *spp.Instance, u, v spp.Node) {
	ru, rv := disputePair(u, v)
	in.Rank(u, ru...)
	in.Rank(v, rv...)
}

// fingerprint is the SHA-256 over everything generate produced, the
// determinism check of bench_test.go.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	for _, rq := range in.setup {
		h.Write(rq.Body)
	}
	for _, op := range in.ops {
		for _, rq := range op {
			h.Write(rq.Body)
		}
	}
	for _, inst := range []*spp.Instance{in.safe, in.unsafe} {
		if inst != nil {
			data, _ := json.Marshal(wire(inst))
			h.Write(data)
		}
	}
	if in.campaign != nil {
		for i := 0; i < 4; i++ {
			spec := in.campaign(i)
			fmt.Fprint(h, spec.Kinds, spec.Count, spec.BaseSeed)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
