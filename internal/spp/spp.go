// Package spp models the Stable Paths Problem (Griffin, Shepherd, Wilfong)
// and implements the FSR conversion of SPP instances to routing algebras
// (paper §III-B), the gadget library used in the evaluation (Figure 3's
// iBGP gadget, GOODGADGET, BADGADGET, DISAGREE), and the extraction of SPP
// instances from protocol executions (§VI-B).
//
// An SPP instance is a topology in which each node carries a ranked list of
// permitted paths to a single destination. Following the paper's Figure 3
// conventions, a permitted path is written as the owning node followed by
// the downstream nodes and terminated by an origin token (the externally
// learned route, r1/r2/r3 in the figure). An egress node's own path is the
// two-element path [node, origin], which the paper renders as just "(r1)".
package spp

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
)

// Node identifies a router or AS in an SPP instance. Origin tokens (the
// externally learned routes, e.g. r1) are also Nodes: they appear only as
// the last element of paths.
type Node string

// Path is a permitted path: Path[0] is the owning node, Path[len-1] is the
// origin token, and consecutive elements are connected by links.
type Path []Node

// P builds a Path from node names, a convenience for literals:
// P("a","b","e","r2").
func P(nodes ...string) Path {
	p := make(Path, len(nodes))
	for i, n := range nodes {
		p[i] = Node(n)
	}
	return p
}

// String renders the path the way the paper writes it: "aber2", except that
// multi-character node names are joined with dots ("u1.u7.r2").
func (p Path) String() string { return p.render("") }

// render returns prefix followed by String's rendering, in one allocation.
func (p Path) render(prefix string) string {
	sep, n := "", len(prefix)
	for _, x := range p {
		n += len(x)
		if len(x) > 1 && !isOrigin(x) {
			sep = "."
		}
	}
	var b strings.Builder
	b.Grow(n + len(sep)*max(len(p)-1, 0))
	b.WriteString(prefix)
	for i, x := range p {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(string(x))
	}
	return b.String()
}

// isOrigin reports whether the node looks like an origin token (r1, r2…);
// purely cosmetic, used by String.
func isOrigin(n Node) bool {
	return len(n) >= 2 && n[0] == 'r' && n[1] >= '0' && n[1] <= '9'
}

// Owner returns the owning node (the first element).
func (p Path) Owner() Node {
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Tail returns the path with the owner removed: the permitted path the
// next-hop node must itself hold for this path to be realizable.
func (p Path) Tail() Path {
	if len(p) <= 1 {
		return nil
	}
	return p[1:]
}

// Key returns a comparable rendering used for map keys.
func (p Path) Key() string { return p.String() }

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Link is a directed link (an iBGP session direction or an inter-AS edge).
type Link struct {
	From, To Node
}

// String renders "from→to".
func (l Link) String() string { return string(l.From) + "→" + string(l.To) }

// Instance is an SPP instance: a topology plus ranked permitted paths.
type Instance struct {
	// Name identifies the instance in reports and generated algebra names.
	Name string
	// Nodes lists the real (router) nodes in a stable order.
	Nodes []Node
	// Origins lists the origin tokens (externally learned routes).
	Origins []Node
	// Links lists the directed links among real nodes. An undirected
	// session contributes both directions.
	Links []Link
	// Cost optionally annotates links with IGP costs (Figure 3 shows them);
	// zero-valued entries mean unannotated.
	Cost map[Link]int
	// Permitted maps each node to its ranked permitted paths, most
	// preferred first. Egress nodes hold their [node, origin] path.
	Permitted map[Node][]Path
}

// NewInstance returns an empty instance with initialized maps.
func NewInstance(name string) *Instance {
	return &Instance{
		Name:      name,
		Cost:      map[Link]int{},
		Permitted: map[Node][]Path{},
	}
}

// AddNode declares a real node (idempotent).
func (in *Instance) AddNode(n Node) {
	if !slices.Contains(in.Nodes, n) {
		in.Nodes = append(in.Nodes, n)
	}
}

// AddOrigin declares an origin token (idempotent).
func (in *Instance) AddOrigin(n Node) {
	if !slices.Contains(in.Origins, n) {
		in.Origins = append(in.Origins, n)
	}
}

// AddSession adds a bidirectional link between two real nodes with an
// optional IGP cost.
func (in *Instance) AddSession(a, b Node, cost int) {
	in.AddNode(a)
	in.AddNode(b)
	in.Links = append(in.Links, Link{a, b}, Link{b, a})
	if cost != 0 {
		in.Cost[Link{a, b}] = cost
		in.Cost[Link{b, a}] = cost
	}
}

// Rank sets the ranked permitted paths of a node, most preferred first.
// Origin tokens referenced by the paths are declared automatically.
func (in *Instance) Rank(n Node, paths ...Path) {
	in.AddNode(n)
	for _, p := range paths {
		if len(p) >= 2 {
			in.AddOrigin(p[len(p)-1])
		}
	}
	in.Permitted[n] = paths
}

// HasLink reports whether the directed link u→v exists.
func (in *Instance) HasLink(u, v Node) bool {
	return slices.Contains(in.Links, Link{u, v})
}

// Sessions lists the undirected sessions, one link per connected pair: the
// direction Links lists first, in Links order.
func (in *Instance) Sessions() []Link {
	seen := make(map[Link]bool, len(in.Links))
	var out []Link
	for _, l := range in.Links {
		if !seen[l] && !seen[Link{l.To, l.From}] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// topoIndex is the hash-set view of an instance's declarations — real
// nodes (with their position in Nodes), origin tokens, directed links — that
// structural validation resolves membership against, so validating an
// instance is linear in its size instead of one slice scan per hop.
type topoIndex struct {
	nodes   map[Node]int32
	origins map[Node]bool
	links   map[Link]bool
}

// indexInstance builds the index of the instance's current declarations.
func indexInstance(in *Instance) *topoIndex {
	ix := &topoIndex{
		nodes:   make(map[Node]int32, len(in.Nodes)),
		origins: make(map[Node]bool, len(in.Origins)),
		links:   make(map[Link]bool, len(in.Links)),
	}
	for i, n := range in.Nodes {
		ix.nodes[n] = int32(i)
	}
	for _, o := range in.Origins {
		ix.origins[o] = true
	}
	for _, l := range in.Links {
		ix.links[l] = true
	}
	return ix
}

// incidentLinks lists, per node position, the positions in Links of the
// directed links with that node at either end, ascending — the topology
// index a resident verifier keeps beside topoIndex, so that re-ranking a
// node reaches the monotonicity segments it feeds without scanning Links.
// A link end that is not a declared node has no list to be on.
func incidentLinks(in *Instance, nodes map[Node]int32) [][]int32 {
	ends := make([]int32, 0, 2*len(in.Links))
	deg := make([]int32, len(in.Nodes))
	for _, l := range in.Links {
		for _, n := range [2]Node{l.From, l.To} {
			ni, ok := nodes[n]
			if !ok {
				ni = -1
			} else {
				deg[ni]++
			}
			ends = append(ends, ni)
		}
	}
	// One backing array, each list capped at its length so that a later
	// append copies it out instead of running into its neighbour.
	flat := make([]int32, 0, len(ends))
	out := make([][]int32, len(in.Nodes))
	for ni, d := range deg {
		out[ni] = flat[len(flat) : len(flat) : len(flat)+int(d)]
		flat = flat[:len(flat)+int(d)]
	}
	for i, ni := range ends {
		if ni >= 0 {
			out[ni] = append(out[ni], int32(i/2))
		}
	}
	return out
}

// validatePath is the structural check of one permitted path p ranked at
// node n of the instance called name: long enough, owned by n, terminated by
// a declared origin token, walking existing links among declared nodes.
// anyOrigin skips the origin-token check for callers that declare a path's
// token on the fly (DeltaVerifier.ReRank, like Instance.Rank).
func (ix *topoIndex) validatePath(name string, n Node, p Path, anyOrigin bool) error {
	if len(p) < 2 {
		return fmt.Errorf("spp %s: node %s: path %q too short", name, n, p)
	}
	if p.Owner() != n {
		return fmt.Errorf("spp %s: node %s: path %s not owned by node", name, n, p)
	}
	if !anyOrigin && !ix.origins[p[len(p)-1]] {
		return fmt.Errorf("spp %s: node %s: path %s does not end in an origin token", name, n, p)
	}
	for i := 0; i+2 < len(p); i++ { // hops among real nodes
		if !ix.links[Link{p[i], p[i+1]}] {
			return fmt.Errorf("spp %s: node %s: path %s uses missing link %s→%s", name, n, p, p[i], p[i+1])
		}
	}
	for i := 1; i+1 < len(p); i++ {
		if _, ok := ix.nodes[p[i]]; !ok {
			return fmt.Errorf("spp %s: node %s: path %s crosses undeclared node %s", name, n, p, p[i])
		}
	}
	return nil
}

// undeclaredRanking reports the (alphabetically first) Permitted key that is
// not a declared node, or nil.
func (ix *topoIndex) undeclaredRanking(in *Instance) error {
	var first Node
	found := false
	for n := range in.Permitted {
		if _, ok := ix.nodes[n]; !ok && (!found || n < first) {
			first, found = n, true
		}
	}
	if found {
		return fmt.Errorf("spp %s: ranking for undeclared node %s", in.Name, first)
	}
	return nil
}

// Validate checks structural well-formedness: every permitted path is owned
// by its node, terminates in an origin token, and walks existing links. The
// first error reported is deterministic: rankings are checked in Nodes
// order, then rankings of undeclared nodes in name order.
func (in *Instance) Validate() error {
	ix := indexInstance(in)
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			if err := ix.validatePath(in.Name, n, p, false); err != nil {
				return err
			}
		}
	}
	return ix.undeclaredRanking(in)
}

// permitted reports whether path p is in the owner's ranked list.
func (in *Instance) permitted(p Path) bool {
	for _, q := range in.Permitted[p.Owner()] {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// Conversion is the result of translating an SPP instance to a routing
// algebra (§III-B), retaining the maps needed to interpret analysis results
// in terms of the instance (§VI-B pinpointing) and to deploy the algebra on
// the instance's topology.
type Conversion struct {
	// Instance is the source instance.
	Instance *Instance
	// Algebra is the finite algebra encoding the instance.
	Algebra *algebra.Tabular
	// SigOf maps a permitted path (by Key) to its signature.
	SigOf map[string]algebra.Sig
	// PathOf maps a signature back to the permitted path.
	PathOf map[algebra.Sig]Path
	// LabelOf maps each directed link to its unique label constant.
	LabelOf map[Link]algebra.Label
	// LinkOf maps a label back to its link.
	LinkOf map[algebra.Label]Link
}

// sigName renders the paper's signature naming: the egress path [d, r1] is
// written r1; longer paths aber2 become r_aber2.
func sigName(p Path) string {
	if len(p) == 2 {
		return string(p[1])
	}
	return p.render("r_")
}

// ToAlgebra converts the instance to a routing algebra following §III-B:
//
//   - each directed link uv gets a unique label constant l_uv;
//   - each permitted path p gets a unique signature r_p;
//   - each per-node ranking r1, …, rn becomes the pairwise preferences
//     r1 ≺ r2, …, rn−1 ≺ rn;
//   - for every permitted path uvp whose tail vp is itself permitted at v,
//     the concatenation entry l_uv ⊕ r_vp = r_uvp is defined; every other
//     combination is φ (prohibited).
//
// Egress paths [u, o] become the origination set: node u originates r_[u,o].
func (in *Instance) ToAlgebra() (*Conversion, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	conv := &Conversion{
		Instance: in,
		SigOf:    map[string]algebra.Sig{},
		PathOf:   map[algebra.Sig]Path{},
		LabelOf:  map[Link]algebra.Label{},
		LinkOf:   map[algebra.Label]Link{},
	}
	b := algebra.NewBuilder("spp-" + in.Name)

	// Labels: one constant per directed link.
	var labels []algebra.Label
	for _, l := range in.Links {
		lab := algebra.LSym("l_" + string(l.From) + string(l.To))
		if _, dup := conv.LinkOf[lab]; dup {
			return nil, fmt.Errorf("spp %s: duplicate link %s", in.Name, l)
		}
		conv.LabelOf[l] = lab
		conv.LinkOf[lab] = l
		labels = append(labels, lab)
	}
	b.Labels(labels...)

	// Signatures: one constant per permitted path, in node order then rank
	// order for stability.
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			s := algebra.Symbol(sigName(p))
			if _, dup := conv.PathOf[s]; dup {
				return nil, fmt.Errorf("spp %s: duplicate permitted path %s", in.Name, p)
			}
			conv.SigOf[p.Key()] = s
			conv.PathOf[s] = p
			b.Sigs(s)
		}
	}

	// Preferences: the ranked list becomes adjacent pairwise preferences.
	for _, n := range in.Nodes {
		paths := in.Permitted[n]
		sigs := make([]algebra.Sig, len(paths))
		for i, p := range paths {
			sigs[i] = conv.SigOf[p.Key()]
		}
		b.Chain(sigs...)
	}

	// Concatenation: l_uv ⊕ r_vp = r_uvp for permitted uvp with permitted
	// tail vp. Unlisted combinations default to φ.
	for _, n := range in.Nodes {
		for _, p := range in.Permitted[n] {
			tail := p.Tail()
			if len(tail) < 2 {
				continue // egress path: origination, no concatenation
			}
			if !in.permitted(tail) {
				continue // tail not permitted: path can never be realized
			}
			lab := conv.LabelOf[Link{p[0], p[1]}]
			if lab == nil {
				return nil, fmt.Errorf("spp %s: path %s uses missing link %s→%s", in.Name, p, p[0], p[1])
			}
			b.Concat(lab, conv.SigOf[tail.Key()], conv.SigOf[p.Key()])
		}
	}

	// SPP filtering is fully encoded in ⊕P (unlisted ⇒ φ); imports and
	// exports pass everything, and link constants are their own reverses.
	alg, err := b.Build()
	if err != nil {
		return nil, err
	}
	conv.Algebra = alg
	return conv, nil
}

// Origination is one entry of the origination set: node announces sig at
// protocol start (its externally learned route).
type Origination struct {
	Node Node
	Sig  algebra.Sig
	Path Path
}

// Originations lists the egress paths of the instance as origination-set
// entries, in node order.
func (c *Conversion) Originations() []Origination {
	var out []Origination
	for _, n := range c.Instance.Nodes {
		for _, p := range c.Instance.Permitted[n] {
			if len(p) == 2 {
				out = append(out, Origination{Node: n, Sig: c.SigOf[p.Key()], Path: p})
			}
		}
	}
	return out
}

// OwnerOfSig returns the node whose ranking contains the signature's path.
func (c *Conversion) OwnerOfSig(s algebra.Sig) (Node, bool) {
	p, ok := c.PathOf[s]
	if !ok {
		return "", false
	}
	return p.Owner(), true
}

// SuspectNodes maps an unsat core back to the nodes whose configuration the
// violating constraints mention — the §VI-B "hint" pointing operators at the
// routers to fix. Preference constraints implicate the ranking's owner;
// monotonicity constraints implicate the owner of the derived path.
func (c *Conversion) SuspectNodes(core []analysis.Constraint) []Node {
	seen := map[Node]bool{}
	var out []Node
	add := func(s algebra.Sig) {
		if n, found := c.OwnerOfSig(s); found && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, cc := range core {
		switch cc.Kind {
		case analysis.KindPreference:
			add(cc.Pref.A)
		case analysis.KindMonotonicity:
			add(cc.Entry.Out)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
