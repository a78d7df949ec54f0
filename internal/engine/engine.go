// Package engine executes NDlog programs over the simnet platform,
// substituting for the RapidNet declarative networking engine the paper
// compiles its generated programs with (§V). Each node holds materialized
// tables and evaluates rules incrementally: a tuple delta (a received msg
// event or a local table change) joins against the node's tables, derived
// heads with a remote location specifier are shipped to their node, and
// keyed tables give RapidNet's replace-on-insert semantics (which the GPV
// program uses for BGP's implicit withdraw).
//
// Supported fragment (sufficient for the generated GPV programs and
// HLP-style variants): single-headed rules; bodies of table/event atoms,
// assignments and conditions; one aggregate (argmin) head per rule with a
// single table atom in its body. These are the constructs the paper's
// listings use.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fsr/internal/ndlog"
	"fsr/internal/simnet"
)

// Tuple is a predicate instance, the unit stored in tables and shipped
// between nodes.
type Tuple struct {
	Pred string
	Args []ndlog.Value
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = fmt.Sprintf("%v", a)
	}
	return t.Pred + "(" + strings.Join(parts, ",") + ")"
}

// WireSize estimates the advert-comparable on-the-wire size of a tuple.
func (t Tuple) WireSize() int {
	size := 16
	for _, a := range t.Args {
		switch v := a.(type) {
		case ndlog.List:
			size += 4 * len(v)
		case string:
			size += 4
		default:
			size += 4
		}
	}
	return size
}

func init() {
	simnet.RegisterPayload(Tuple{})
	simnet.RegisterPayload(ndlog.List{})
}

// Config parameterizes one engine node.
type Config struct {
	// Program is the NDlog program to execute (shared, read-only).
	Program *ndlog.Program
	// Initial are the node's configuration tuples (step 4 of §V-B: label
	// rows and origination sig rows).
	Initial []Tuple
	// BatchInterval batches remote sends, like the GPV batching of §VI-A;
	// the timer is jittered by up to 50% (MRAI-style) to break symmetric
	// oscillation lockstep. Zero sends on the next event.
	BatchInterval time.Duration
	// StartStagger delays the initial tuple injection by a deterministic
	// per-node random offset in [0, StartStagger).
	StartStagger time.Duration
	// OnTuple observes every locally inserted tuple (for SPP extraction
	// and debugging).
	OnTuple func(node simnet.NodeID, t Tuple)
}

// table is one materialized table instance.
type table struct {
	decl ndlog.TableDecl
	rows map[string][]ndlog.Value
}

func (tb *table) key(args []ndlog.Value) string {
	var b strings.Builder
	if idx := tb.decl.Keys; len(idx) > 0 {
		for _, i := range idx {
			if i < len(args) {
				writeKeyValue(&b, args[i])
			}
		}
	} else {
		for i := range args {
			writeKeyValue(&b, args[i])
		}
	}
	return b.String()
}

// writeKeyValue renders one key component followed by the '|' separator.
func writeKeyValue(b *strings.Builder, v ndlog.Value) {
	writeValue(b, v)
	b.WriteByte('|')
}

// writeValue renders a Value the way fmt's %v would, but with the concrete
// kinds (string, int, bool, List) written directly — this runs on every
// tuple insert, and the reflective %v dominated the interpreted runner's
// allocation profile.
func writeValue(b *strings.Builder, v ndlog.Value) {
	switch x := v.(type) {
	case string:
		b.WriteString(x)
	case int:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], int64(x), 10))
	case bool:
		if x {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case ndlog.List:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeValue(b, e)
		}
		b.WriteByte(']')
	default:
		fmt.Fprintf(b, "%v", v)
	}
}

// Node is one NDlog engine instance attached to a simnet node.
type Node struct {
	cfg    Config
	funcs  map[string]ndlog.FuncDef
	aggs   map[string]ndlog.AggDef
	tables map[string]*table
	// byBodyPred indexes rules by the predicates appearing in their bodies.
	byBodyPred map[string][]int

	outbox         []outMsg
	flushScheduled bool
	// pos maps a neighbour's name, which the rules' location specifiers
	// give, to its position in env.Neighbors(), which Send takes. Built on
	// the first flush.
	pos map[simnet.NodeID]int
}

type outMsg struct {
	to    simnet.NodeID
	tuple Tuple
}

var _ simnet.Handler = (*Node)(nil)

// NewNode builds an engine node for the program. The a_pref aggregate is
// synthesized from the program's f_pref function (Table II).
func NewNode(cfg Config) (*Node, error) {
	n := &Node{
		cfg:        cfg,
		funcs:      map[string]ndlog.FuncDef{},
		aggs:       map[string]ndlog.AggDef{},
		tables:     map[string]*table{},
		byBodyPred: map[string][]int{},
	}
	for _, f := range cfg.Program.Funcs {
		if f.Impl == nil {
			return nil, ndlog.Errf("function %s has no implementation", f.Name)
		}
		n.funcs[f.Name] = f
	}
	for _, d := range cfg.Program.Materialized {
		n.tables[d.Name] = &table{decl: d, rows: map[string][]ndlog.Value{}}
	}
	for ri, r := range cfg.Program.Rules {
		for _, bt := range r.Body {
			if a, ok := bt.(ndlog.Atom); ok {
				n.byBodyPred[a.Pred] = append(n.byBodyPred[a.Pred], ri)
			}
		}
	}
	if pref, ok := n.funcs["f_pref"]; ok {
		n.aggs["a_pref"] = ndlog.AggDef{Name: "a_pref", Better: n.prefBetter(pref)}
	}
	return n, nil
}

// prefBetter builds the a_pref comparator over projected head rows: the
// aggregate column is compared with f_pref; ties break toward the shorter,
// then lexicographically smaller companion path (the deterministic stand-in
// for BGP's final tie-breakers, matching the native GPV implementation).
func (n *Node) prefBetter(pref ndlog.FuncDef) func(a, b []ndlog.Value) bool {
	call := func(x, y ndlog.Value) bool {
		v, err := pref.Impl([]ndlog.Value{x, y})
		if err != nil {
			return false
		}
		res, _ := v.(bool)
		return res
	}
	return func(a, b []ndlog.Value) bool {
		sa, pa := aggColumns(a)
		sb, pb := aggColumns(b)
		if call(sa, sb) {
			return true
		}
		if call(sb, sa) {
			return false
		}
		if len(pa) != len(pb) {
			return len(pa) < len(pb)
		}
		return fmt.Sprintf("%v", pa) < fmt.Sprintf("%v", pb)
	}
}

// aggColumns extracts the aggregate column (the signature) and the
// companion path from a projected head row: by GPV convention the
// aggregated S is the penultimate argument and the path is last.
func aggColumns(row []ndlog.Value) (sig ndlog.Value, path ndlog.List) {
	if len(row) >= 2 {
		sig = row[len(row)-2]
	}
	if p, ok := row[len(row)-1].(ndlog.List); ok {
		path = p
	}
	return sig, path
}

// Start implements simnet.Handler: inject configuration tuples.
func (n *Node) Start(env simnet.Env) {
	inject := func() {
		for _, t := range n.cfg.Initial {
			n.insert(env, t)
		}
	}
	if n.cfg.StartStagger > 0 {
		env.Schedule(time.Duration(env.Rand().Int63n(int64(n.cfg.StartStagger))), inject)
	} else {
		inject()
	}
}

// Receive implements simnet.Handler: a remote tuple arrives (an event such
// as msg, or a shipped materialized tuple).
func (n *Node) Receive(env simnet.Env, from int, payload any) {
	t, ok := payload.(Tuple)
	if !ok {
		panic(fmt.Sprintf("engine: unexpected payload %T", payload))
	}
	n.insert(env, t)
}

// Table returns a snapshot of a table's rows (for post-run inspection).
func (n *Node) Table(pred string) [][]ndlog.Value {
	tb := n.tables[pred]
	if tb == nil {
		return nil
	}
	keys := make([]string, 0, len(tb.rows))
	for k := range tb.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]ndlog.Value, 0, len(keys))
	for _, k := range keys {
		row := make([]ndlog.Value, len(tb.rows[k]))
		copy(row, tb.rows[k])
		out = append(out, row)
	}
	return out
}

// insert applies a tuple delta: store it (materialized predicates, with
// replace-on-key) and trigger dependent rules. Events (undeclared
// predicates) only trigger.
func (n *Node) insert(env simnet.Env, t Tuple) {
	if tb := n.tables[t.Pred]; tb != nil {
		k := tb.key(t.Args)
		if old, exists := tb.rows[k]; exists && rowEqual(old, t.Args) {
			return // no-op insert: fixpoint, do not retrigger
		}
		tb.rows[k] = t.Args
	}
	if n.cfg.OnTuple != nil {
		n.cfg.OnTuple(env.Self(), t)
	}
	for _, ri := range n.byBodyPred[t.Pred] {
		rule := n.cfg.Program.Rules[ri]
		if isAggRule(rule) {
			n.evalAggRule(env, rule, t)
		} else {
			n.evalRule(env, rule, t)
		}
	}
}

func rowEqual(a, b []ndlog.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ndlog.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func isAggRule(r ndlog.Rule) bool {
	for _, a := range r.Head.Args {
		if _, ok := a.(ndlog.Agg); ok {
			return true
		}
	}
	return false
}

// binding is a variable environment.
type binding map[string]ndlog.Value

// unify binds an atom's argument pattern against a concrete row.
func unify(a ndlog.Atom, row []ndlog.Value, env binding) (binding, bool) {
	if len(a.Args) != len(row) {
		return nil, false
	}
	out := binding{}
	for k, v := range env {
		out[k] = v
	}
	for i, arg := range a.Args {
		switch v := arg.(type) {
		case ndlog.Var:
			if bound, ok := out[string(v)]; ok {
				if !ndlog.Equal(bound, row[i]) {
					return nil, false
				}
			} else {
				out[string(v)] = row[i]
			}
		case ndlog.Str:
			if !ndlog.Equal(string(v), row[i]) {
				return nil, false
			}
		case ndlog.Int:
			if !ndlog.Equal(int(v), row[i]) {
				return nil, false
			}
		case ndlog.Bool:
			if !ndlog.Equal(bool(v), row[i]) {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return out, true
}

// eval evaluates an expression under a binding.
func (n *Node) eval(e ndlog.Expr, env binding) (ndlog.Value, error) {
	switch v := e.(type) {
	case ndlog.Var:
		val, ok := env[string(v)]
		if !ok {
			return nil, ndlog.Errf("unbound variable %s", v)
		}
		return val, nil
	case ndlog.Str:
		return string(v), nil
	case ndlog.Int:
		return int(v), nil
	case ndlog.Bool:
		return bool(v), nil
	case ndlog.Call:
		f, ok := n.funcs[v.Fn]
		if !ok {
			return nil, ndlog.Errf("unknown function %s", v.Fn)
		}
		args := make([]ndlog.Value, len(v.Args))
		for i, a := range v.Args {
			val, err := n.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = val
		}
		return f.Impl(args)
	case ndlog.Cmp:
		l, err := n.eval(v.L, env)
		if err != nil {
			return nil, err
		}
		r, err := n.eval(v.R, env)
		if err != nil {
			return nil, err
		}
		return compare(v.Op, l, r)
	default:
		return nil, ndlog.Errf("unsupported expression %T", e)
	}
}

func compare(op string, l, r ndlog.Value) (ndlog.Value, error) {
	switch op {
	case "==":
		return ndlog.Equal(l, r), nil
	case "!=":
		return !ndlog.Equal(l, r), nil
	}
	li, lok := l.(int)
	ri, rok := r.(int)
	if !lok || !rok {
		return nil, ndlog.Errf("comparison %s needs integers, got %T and %T", op, l, r)
	}
	switch op {
	case "<":
		return li < ri, nil
	case "<=":
		return li <= ri, nil
	case ">":
		return li > ri, nil
	case ">=":
		return li >= ri, nil
	}
	return nil, ndlog.Errf("unknown comparison %s", op)
}

// evalRule evaluates a non-aggregate rule against a delta tuple: the delta
// is bound to each matching body atom in turn, the remaining atoms join
// against local tables, and guards/assignments run in body order.
func (n *Node) evalRule(env simnet.Env, rule ndlog.Rule, delta Tuple) {
	for bi, bt := range rule.Body {
		a, ok := bt.(ndlog.Atom)
		if !ok || a.Pred != delta.Pred {
			continue
		}
		if b, ok := unify(a, delta.Args, binding{}); ok {
			n.joinRest(env, rule, b, 0, bi)
		}
	}
}

// joinRest processes body terms from index i (skipping the delta position),
// emitting the head under every complete binding.
func (n *Node) joinRest(env simnet.Env, rule ndlog.Rule, b binding, i, deltaIdx int) {
	if i >= len(rule.Body) {
		n.emit(env, rule, b)
		return
	}
	if i == deltaIdx {
		n.joinRest(env, rule, b, i+1, deltaIdx)
		return
	}
	switch t := rule.Body[i].(type) {
	case ndlog.Atom:
		tb := n.tables[t.Pred]
		if tb == nil {
			return // joining an event predicate: no stored rows
		}
		keys := make([]string, 0, len(tb.rows))
		for k := range tb.rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if nb, ok := unify(t, tb.rows[k], b); ok {
				n.joinRest(env, rule, nb, i+1, deltaIdx)
			}
		}
	case ndlog.Assign:
		val, err := n.eval(t.Expr, b)
		if err != nil {
			return // evaluation failure: rule does not fire
		}
		if bound, ok := b[t.Var]; ok {
			if !ndlog.Equal(bound, val) {
				return
			}
			n.joinRest(env, rule, b, i+1, deltaIdx)
			return
		}
		nb := binding{}
		for k, v := range b {
			nb[k] = v
		}
		nb[t.Var] = val
		n.joinRest(env, rule, nb, i+1, deltaIdx)
	case ndlog.Cond:
		val, err := n.eval(t.Expr, b)
		if err != nil {
			return
		}
		if ok, _ := val.(bool); ok {
			n.joinRest(env, rule, b, i+1, deltaIdx)
		}
	}
}

// emit constructs the head tuple and routes it by location specifier.
func (n *Node) emit(env simnet.Env, rule ndlog.Rule, b binding) {
	args := make([]ndlog.Value, len(rule.Head.Args))
	for i, e := range rule.Head.Args {
		val, err := n.eval(e, b)
		if err != nil {
			return
		}
		args[i] = val
	}
	n.route(env, rule.Head, Tuple{Pred: rule.Head.Pred, Args: args})
}

// route delivers a head tuple: locally when the location specifier names
// this node, remotely (batched) otherwise.
func (n *Node) route(env simnet.Env, head ndlog.Atom, t Tuple) {
	loc := env.Self()
	if head.LocArg >= 0 {
		if s, ok := t.Args[head.LocArg].(string); ok {
			loc = simnet.NodeID(s)
		}
	}
	if loc == env.Self() {
		n.insert(env, t)
		return
	}
	n.outbox = append(n.outbox, outMsg{to: loc, tuple: t})
	n.scheduleFlush(env)
}

// scheduleFlush mirrors the GPV batching: one outstanding jittered timer.
func (n *Node) scheduleFlush(env simnet.Env) {
	if n.flushScheduled {
		return
	}
	n.flushScheduled = true
	d := n.cfg.BatchInterval
	if d > 0 {
		d += time.Duration(env.Rand().Int63n(int64(d)/2 + 1))
	}
	env.Schedule(d, func() {
		n.flushScheduled = false
		out := n.outbox
		n.outbox = nil
		if n.pos == nil {
			n.pos = simnet.Positions(env)
		}
		for _, m := range out {
			to, ok := n.pos[m.to]
			if !ok {
				panic(fmt.Sprintf("engine: %s sent to non-neighbor %s", env.Self(), m.to))
			}
			env.Send(to, m.tuple, m.tuple.WireSize())
		}
	})
}

// evalAggRule recomputes the aggregate group(s) affected by a delta: the
// rule must have exactly one table atom in its body (the GPV gpvSelect
// shape). The group key is the head's non-aggregate arguments; the winning
// row per group is upserted into the head table.
func (n *Node) evalAggRule(env simnet.Env, rule ndlog.Rule, delta Tuple) {
	var bodyAtom ndlog.Atom
	found := false
	for _, bt := range rule.Body {
		if a, ok := bt.(ndlog.Atom); ok {
			if found {
				return // unsupported: multiple atoms in aggregate body
			}
			bodyAtom, found = a, true
		}
	}
	if !found || bodyAtom.Pred != delta.Pred {
		return
	}
	tb := n.tables[bodyAtom.Pred]
	if tb == nil {
		return
	}
	// Determine the delta's group key to limit recomputation.
	deltaGroup, ok := n.groupOf(rule, bodyAtom, delta.Args)
	if !ok {
		return
	}
	type best struct {
		row []ndlog.Value
	}
	winners := map[string]*best{}
	keys := make([]string, 0, len(tb.rows))
	for k := range tb.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		row := tb.rows[k]
		b, ok := unify(bodyAtom, row, binding{})
		if !ok {
			continue
		}
		if !n.passGuards(rule, b) {
			continue
		}
		group, proj, ok := n.projectAgg(rule, b)
		if !ok || group != deltaGroup {
			continue
		}
		w := winners[group]
		if w == nil {
			winners[group] = &best{row: proj}
			continue
		}
		agg := n.aggOf(rule)
		if agg != nil && agg.Better(proj, w.row) {
			w.row = proj
		}
	}
	if w := winners[deltaGroup]; w != nil {
		n.route(env, rule.Head, Tuple{Pred: rule.Head.Pred, Args: w.row})
	}
}

// passGuards evaluates the rule's non-atom body terms under b.
func (n *Node) passGuards(rule ndlog.Rule, b binding) bool {
	for _, bt := range rule.Body {
		switch t := bt.(type) {
		case ndlog.Assign:
			val, err := n.eval(t.Expr, b)
			if err != nil {
				return false
			}
			if bound, ok := b[t.Var]; ok {
				if !ndlog.Equal(bound, val) {
					return false
				}
			} else {
				b[t.Var] = val
			}
		case ndlog.Cond:
			val, err := n.eval(t.Expr, b)
			if err != nil {
				return false
			}
			if ok, _ := val.(bool); !ok {
				return false
			}
		}
	}
	return true
}

// aggIndex returns the position of the aggregate argument in the head.
func aggIndex(rule ndlog.Rule) int {
	for i, e := range rule.Head.Args {
		if _, ok := e.(ndlog.Agg); ok {
			return i
		}
	}
	return -1
}

// projectAgg evaluates the head args under b, returning the group key and
// the full projected row. Following the paper's a_pref<S> convention, the
// group key is formed by the head arguments *before* the aggregate
// (localOpt(@U,D,a_pref<S>,P) groups by (U,D)); arguments after it are
// companions of the winning row (the argmin's path).
func (n *Node) projectAgg(rule ndlog.Rule, b binding) (string, []ndlog.Value, bool) {
	ai := aggIndex(rule)
	var groupKey strings.Builder
	row := make([]ndlog.Value, len(rule.Head.Args))
	for i, e := range rule.Head.Args {
		if agg, ok := e.(ndlog.Agg); ok {
			val, err := n.eval(ndlog.Var(agg.Arg), b)
			if err != nil {
				return "", nil, false
			}
			row[i] = val
			continue
		}
		val, err := n.eval(e, b)
		if err != nil {
			return "", nil, false
		}
		row[i] = val
		if i < ai {
			fmt.Fprintf(&groupKey, "%v|", val)
		}
	}
	return groupKey.String(), row, true
}

// groupOf computes the group key of a delta row for an aggregate rule. The
// delta may itself fail the guards (e.g. a φ signature) while still
// invalidating its group's previous winner, so the key is derived from the
// pre-aggregate head arguments alone.
func (n *Node) groupOf(rule ndlog.Rule, bodyAtom ndlog.Atom, row []ndlog.Value) (string, bool) {
	b, ok := unify(bodyAtom, row, binding{})
	if !ok {
		return "", false
	}
	ai := aggIndex(rule)
	var groupKey strings.Builder
	for i, e := range rule.Head.Args {
		if i >= ai {
			break
		}
		val, err := n.eval(e, b)
		if err != nil {
			return "", false
		}
		fmt.Fprintf(&groupKey, "%v|", val)
	}
	return groupKey.String(), true
}

// aggOf returns the rule's aggregate definition.
func (n *Node) aggOf(rule ndlog.Rule) *ndlog.AggDef {
	for _, e := range rule.Head.Args {
		if agg, ok := e.(ndlog.Agg); ok {
			if def, ok := n.aggs[agg.Fn]; ok {
				return &def
			}
		}
	}
	return nil
}
