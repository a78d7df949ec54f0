// Package analysis implements FSR's automated safety analysis (§IV of the
// paper): it reduces the convergence proof for a policy configuration,
// expressed as a routing algebra, to a constraint-satisfaction problem and
// decides it with the smt package (the Yices substitute).
//
// The reduction follows the paper's three steps exactly:
//
//  1. each path signature becomes a positive-integer variable;
//  2. each asserted preference s1 ⪯ s2 becomes the constraint s1 ≤ s2
//     (equal preference becomes s1 = s2);
//  3. each entry s′ = l ⊕ s of the combined concatenation operator becomes
//     the strict-monotonicity constraint s < s′ (or s ≤ s′ when checking
//     plain monotonicity). Entries producing φ impose no constraint.
//
// sat means the algebra is strictly monotonic, hence (Sobrinho, Theorem 4.1)
// every path-vector protocol implementing it converges. unsat yields a
// minimal unsatisfiable core mapped back to the offending policy statements.
// Note strict monotonicity is sufficient, not necessary: a safe-but-not-
// strictly-monotonic policy is reported Unsafe (a false positive the paper
// accepts, §IV-A).
package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fsr/internal/algebra"
	"fsr/internal/obs"
	"fsr/internal/smt"
)

// Condition selects which monotonicity property to check.
type Condition int

const (
	// StrictMonotonicity checks s ≺ l ⊕ s for all l, s — the sufficient
	// condition for safety (Theorem 4.1).
	StrictMonotonicity Condition = iota
	// Monotonicity checks s ⪯ l ⊕ s — used on the first factor of a lexical
	// product (a monotonic ⊗ strictly-monotonic product is safe).
	Monotonicity
)

// String returns the paper's name for the condition.
func (c Condition) String() string {
	if c == Monotonicity {
		return "monotonicity"
	}
	return "strict monotonicity"
}

// ConstraintKind distinguishes the two constraint families of §IV-B.
type ConstraintKind int

const (
	// KindPreference marks a constraint generated from the ⪯ relation
	// (step 2).
	KindPreference ConstraintKind = iota
	// KindMonotonicity marks a constraint generated from a ⊕ entry
	// (step 3).
	KindMonotonicity
	// KindQuantified marks the universally quantified monotonicity
	// constraint of a closed-form algebra (e.g. hop count's
	// forall s. s < s+1).
	KindQuantified
)

// Constraint pairs an SMT assertion with its algebra-level provenance so
// unsat cores can be reported in policy terms (§IV-B: "identify the
// preference relation for each violating constraint").
type Constraint struct {
	Assertion smt.Assertion
	Kind      ConstraintKind
	// Pref is set for KindPreference.
	Pref algebra.PrefPair
	// Entry is set for KindMonotonicity.
	Entry algebra.ConcatEntry
	// Label is set for KindQuantified (the label whose delta is checked).
	Label algebra.Label
}

// String renders the constraint with its provenance, as the CLI reports it.
func (c Constraint) String() string {
	switch c.Kind {
	case KindPreference:
		return fmt.Sprintf("preference %s: %s %s %s", c.Pref, c.Assertion.A, c.Assertion.Rel, c.Assertion.B)
	case KindMonotonicity:
		return fmt.Sprintf("monotonicity of %s: %s %s %s", c.Entry, c.Assertion.A, c.Assertion.Rel, c.Assertion.B)
	default:
		return fmt.Sprintf("monotonicity over label %s: %s", c.Label, c.Assertion)
	}
}

// Result is the outcome of a single monotonicity check on one algebra.
type Result struct {
	// Algebra is the checked algebra's name.
	Algebra string
	// Condition is the property that was checked.
	Condition Condition
	// Sat reports whether the property holds (solver returned sat).
	Sat bool
	// Model maps signature renderings to the integers Yices would print
	// (e.g. C=1, P=2, R=2 for monotone Gao-Rexford), when Sat.
	Model map[string]int
	// Core is the minimal unsatisfiable subset of generated constraints
	// when !Sat, with algebra-level provenance.
	Core []Constraint
	// CoreIdx gives each Core element's position in the generated
	// constraint list.
	CoreIdx []int
	// NumPreference and NumMonotonicity count generated constraints, the
	// figures the paper reports for §VI-B (292 ranking / 259 strict-mono).
	NumPreference   int
	NumMonotonicity int
	// Stats carries solver effort (duration, graph size).
	Stats smt.Stats
}

// CoreEntries returns the ⊕ entries appearing in the unsat core — the
// "violating constraints" users start from when fixing a configuration.
func (r Result) CoreEntries() []algebra.ConcatEntry {
	var out []algebra.ConcatEntry
	for _, c := range r.Core {
		if c.Kind == KindMonotonicity {
			out = append(out, c.Entry)
		}
	}
	return out
}

// CorePrefs returns the preference statements appearing in the unsat core.
func (r Result) CorePrefs() []algebra.PrefPair {
	var out []algebra.PrefPair
	for _, c := range r.Core {
		if c.Kind == KindPreference {
			out = append(out, c.Pref)
		}
	}
	return out
}

// String summarizes the result the way the FSR CLI prints it.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s — ", r.Algebra, r.Condition)
	if r.Sat {
		b.WriteString("sat")
		if len(r.Model) > 0 {
			b.WriteString(" (model: ")
			first := true
			for _, kv := range sortedModel(r.Model) {
				if !first {
					b.WriteString(", ")
				}
				first = false
				fmt.Fprintf(&b, "%s=%d", kv.k, kv.v)
			}
			b.WriteString(")")
		}
	} else {
		fmt.Fprintf(&b, "unsat; minimal core of %d constraint(s):", len(r.Core))
		for _, c := range r.Core {
			b.WriteString("\n  " + c.String())
		}
	}
	return b.String()
}

type kv struct {
	k string
	v int
}

func sortedModel(m map[string]int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// sigVars assigns a distinct solver variable to every signature (step 1),
// sanitizing renderings into identifier-safe tokens.
type sigVars struct {
	vars  map[algebra.Sig]smt.Var
	names map[smt.Var]algebra.Sig
}

func newSigVars(sigs []algebra.Sig) (*sigVars, error) {
	sv := &sigVars{
		vars:  make(map[algebra.Sig]smt.Var, len(sigs)),
		names: make(map[smt.Var]algebra.Sig, len(sigs)),
	}
	for _, s := range sigs {
		base := sanitize(s.String())
		name := smt.Var(base)
		for i := 2; ; i++ {
			if _, taken := sv.names[name]; !taken {
				break
			}
			name = smt.Var(fmt.Sprintf("%s_%d", base, i))
		}
		if _, dup := sv.vars[s]; dup {
			return nil, fmt.Errorf("analysis: duplicate signature %s in universe", s)
		}
		sv.vars[s] = name
		sv.names[name] = s
	}
	return sv, nil
}

func (sv *sigVars) term(s algebra.Sig) smt.Term { return smt.Term{Var: sv.vars[s]} }

// VarName exposes step 1's variable naming — the sanitized signature
// rendering, before collision suffixing — to layers that mirror constraint
// generation incrementally (the spp delta verifier). Callers are expected
// to detect rendering collisions themselves and fall back to the full
// pipeline, where newSigVars applies the suffixes.
func VarName(rendering string) smt.Var { return smt.Var(sanitize(rendering)) }

func sanitize(s string) string {
	clean := func(r rune) bool {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_'
	}
	dirty := false
	for _, r := range s {
		if !clean(r) {
			dirty = true
			break
		}
	}
	if !dirty {
		if s == "" {
			return "sig"
		}
		return s // already identifier-safe: no rebuild, no allocation
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if clean(r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// constraintGen holds the condition-independent part of constraint
// generation for one algebra: the signature-variable interning, the
// enumerated preference and ⊕ tables (or closed-form deltas), and the
// provenance strings. Generating for a concrete Condition is then a cheap
// stamp-out, so callers that check both strict and plain monotonicity on
// the same algebra (analyzeProduct's double-check) enumerate the algebra
// once instead of twice.
type constraintGen struct {
	name string

	// Finite algebras.
	sv          *sigVars
	prefs       []algebra.PrefPair
	table       []algebra.ConcatEntry
	prefOrigins []string
	monoOrigins []string

	// Closed-form (infinite) algebras.
	closed       bool
	labels       []algebra.Label
	deltas       []int
	quantOrigins []string
}

// newConstraintGen enumerates the algebra once, following §IV-B's step 1
// (signature interning) and the table walks of steps 2–3.
func newConstraintGen(a algebra.Algebra) (*constraintGen, error) {
	g := &constraintGen{name: a.Name()}
	sigs := a.Sigs()
	if sigs == nil {
		cf, ok := a.(algebra.ClosedForm)
		if !ok {
			return nil, fmt.Errorf("analysis: algebra %s has an infinite signature universe and no closed form; cannot generate constraints", a.Name())
		}
		g.closed = true
		g.labels = a.Labels()
		g.deltas = make([]int, len(g.labels))
		g.quantOrigins = make([]string, len(g.labels))
		for i, l := range g.labels {
			d, ok := cf.ConcatDelta(l)
			if !ok {
				return nil, fmt.Errorf("analysis: algebra %s: label %s has no linear concatenation", a.Name(), l)
			}
			g.deltas[i] = d
			g.quantOrigins[i] = fmt.Sprintf("mono: %s ⊕ s = s+%d", l, d)
		}
		return g, nil
	}
	sv, err := newSigVars(sigs)
	if err != nil {
		return nil, err
	}
	g.sv = sv
	g.prefs = algebra.Preferences(a)
	g.table = algebra.ConcatTable(a)
	g.prefOrigins = make([]string, len(g.prefs))
	for i := range g.prefs {
		g.prefOrigins[i] = "pref: " + g.prefs[i].String()
	}
	g.monoOrigins = make([]string, len(g.table))
	for i := range g.table {
		g.monoOrigins[i] = "mono: " + g.table[i].String()
	}
	return g, nil
}

// len returns the number of constraints the generator stamps out.
func (g *constraintGen) len() int {
	if g.closed {
		return len(g.labels)
	}
	return len(g.prefs) + len(g.table)
}

// constraints stamps out the constraint list for the condition. Only the
// monotonicity relation (s < s′ vs s ≤ s′) depends on it; provenance is
// shared.
func (g *constraintGen) constraints(cond Condition) []Constraint {
	rel := smt.Lt
	if cond == Monotonicity {
		rel = smt.Le
	}
	out := make([]Constraint, 0, g.len())
	if g.closed {
		for i, l := range g.labels {
			as := smt.Assertion{
				Rel:      rel,
				A:        smt.V("s"),
				B:        smt.V("s").Plus(g.deltas[i]),
				QuantVar: "s",
				Origin:   g.quantOrigins[i],
			}
			out = append(out, Constraint{Assertion: as, Kind: KindQuantified, Label: l})
		}
		return out
	}
	// Step 2: preference constraints. The paper's §IV-C encodings translate
	// strict preferences to <, equalities to =, and plain ⪯ to ≤.
	for i, p := range g.prefs {
		r := smt.Le
		switch {
		case p.Equal:
			r = smt.Eq
		case p.Strict:
			r = smt.Lt
		}
		as := smt.Assertion{
			Rel:    r,
			A:      g.sv.term(p.A),
			B:      g.sv.term(p.B),
			Origin: g.prefOrigins[i],
		}
		out = append(out, Constraint{Assertion: as, Kind: KindPreference, Pref: p})
	}
	// Step 3: monotonicity constraints from the combined ⊕ table; φ results
	// impose none (any signature is strictly preferred to φ by definition).
	for i, e := range g.table {
		as := smt.Assertion{
			Rel:    rel,
			A:      g.sv.term(e.In),
			B:      g.sv.term(e.Out),
			Origin: g.monoOrigins[i],
		}
		out = append(out, Constraint{Assertion: as, Kind: KindMonotonicity, Entry: e})
	}
	return out
}

// Constraints generates the solver constraints for the given algebra and
// condition, following §IV-B's three steps. Finite algebras enumerate their
// ⊕ table; infinite algebras must implement algebra.ClosedForm and yield
// quantified constraints.
func Constraints(a algebra.Algebra, cond Condition) ([]Constraint, error) {
	g, err := newConstraintGen(a)
	if err != nil {
		return nil, err
	}
	return g.constraints(cond), nil
}

// Check decides the given condition for the algebra with the native solver
// backend: it generates the constraints, runs the solver, and maps the
// outcome back to policy terms.
func Check(a algebra.Algebra, cond Condition) (Result, error) {
	return CheckWith(context.Background(), a, cond, smt.Native{})
}

// CheckWith is Check with an explicit context and solver: production passes
// smt.Native, tests the smt.Reference oracle, and a cancelled context aborts
// the solve with ctx.Err().
func CheckWith(ctx context.Context, a algebra.Algebra, cond Condition, solver smt.Solver) (Result, error) {
	g, err := newConstraintGen(a)
	if err != nil {
		return Result{}, err
	}
	return checkGen(ctx, g, cond, solver)
}

// checkGen runs one condition check over a prepared generator, mapping the
// solver outcome back to policy terms. Cores come back positionally via
// Result.CoreIdx; the Origin-keyed map is only built as a fallback for
// third-party Solver implementations that don't fill it.
func checkGen(ctx context.Context, g *constraintGen, cond Condition, solver smt.Solver) (Result, error) {
	if solver == nil {
		solver = smt.Native{}
	}
	ctx, sp := obs.StartSpan(ctx, "check")
	sp.Attr("algebra", g.name)
	sp.Attr("condition", cond.String())
	defer sp.End()
	genStart := time.Now()
	_, gsp := obs.StartSpan(ctx, "constraint-gen")
	cons := g.constraints(cond)
	gsp.End()
	obsStageGen.Observe(time.Since(genStart).Seconds())
	return solvePrepared(ctx, g.name, cond, cons, solver)
}

// CheckPrepared decides an already-generated constraint list, mapping the
// solver outcome back to the constraints positionally — the entry point
// for callers that mirror the §IV-B generation themselves (the spp sharded
// generator) and need verdict, model, and core handling identical to
// CheckWith. The constraint list must be in canonical order: preference
// constraints first, then monotonicity, exactly as Constraints emits them.
func CheckPrepared(ctx context.Context, name string, cond Condition, cons []Constraint, solver smt.Solver) (Result, error) {
	if solver == nil {
		solver = smt.Native{}
	}
	ctx, sp := obs.StartSpan(ctx, "check")
	sp.Attr("algebra", name)
	sp.Attr("condition", cond.String())
	defer sp.End()
	return solvePrepared(ctx, name, cond, cons, solver)
}

// solvePrepared is the shared back half of checkGen and CheckPrepared:
// extract the assertions, solve, and map the outcome back to constraints.
func solvePrepared(ctx context.Context, name string, cond Condition, cons []Constraint, solver smt.Solver) (Result, error) {
	asserts := make([]smt.Assertion, len(cons))
	res := Result{Algebra: name, Condition: cond}
	for i := range cons {
		asserts[i] = cons[i].Assertion
		if cons[i].Kind == KindPreference {
			res.NumPreference++
		} else {
			res.NumMonotonicity++
		}
	}
	obsConstraints.Add(int64(len(cons)))
	solveStart := time.Now()
	out, err := solver.Solve(ctx, asserts)
	obsStageSolve.Observe(time.Since(solveStart).Seconds())
	if err != nil {
		return Result{}, err
	}
	res.Sat = out.Sat
	res.Stats = out.Stats
	if out.Sat {
		res.Model = make(map[string]int, len(out.Model))
		for v, val := range out.Model {
			res.Model[string(v)] = val
		}
		return res, nil
	}
	idx := out.CoreIdx
	if len(idx) != len(out.Core) {
		byOrigin := make(map[string]int, len(cons))
		for i := range cons {
			byOrigin[cons[i].Assertion.Origin] = i
		}
		idx = make([]int, 0, len(out.Core))
		for _, a := range out.Core {
			if i, ok := byOrigin[a.Origin]; ok {
				idx = append(idx, i)
			}
		}
	}
	res.Core = make([]Constraint, 0, len(idx))
	res.CoreIdx = make([]int, 0, len(idx))
	for _, i := range idx {
		if i >= 0 && i < len(cons) {
			res.Core = append(res.Core, cons[i])
			res.CoreIdx = append(res.CoreIdx, i)
		}
	}
	return res, nil
}

// Yices renders the constraints for (a, cond) in the paper's Yices surface
// syntax (§IV-C listings).
func Yices(a algebra.Algebra, cond Condition) (string, error) {
	cons, err := Constraints(a, cond)
	if err != nil {
		return "", err
	}
	solver := smt.NewContext()
	for _, c := range cons {
		solver.Assert(c.Assertion)
	}
	return smt.Emit(solver), nil
}

// Verdict is the overall safety verdict for a policy configuration.
type Verdict int

const (
	// Safe: a strictly monotonic algebra (directly or via the composition
	// rule), hence convergent on every topology by Theorem 4.1.
	Safe Verdict = iota
	// Unsafe: strict monotonicity cannot be established. The policy may
	// still converge (the condition is sufficient, not necessary).
	Unsafe
)

// String returns "safe" or "unsafe".
func (v Verdict) String() string {
	if v == Safe {
		return "safe"
	}
	return "unsafe"
}

// Report is the outcome of AnalyzeSafety: the verdict, the reasoning chain
// (which factor was checked for which condition), and every solver result
// along the way.
type Report struct {
	Verdict Verdict
	Reason  string
	Steps   []Result
}

// String renders the report for CLI display.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict: %s — %s", r.Verdict, r.Reason)
	for _, s := range r.Steps {
		b.WriteString("\n" + s.String())
	}
	return b.String()
}

// AnalyzeSafety decides safety for a policy configuration with the native
// solver, applying the composition rule for lexical products
// (§IV-B): for A ⊗ B, if A is strictly monotonic the product is safe; if A
// is monotonic and B strictly monotonic it is safe; otherwise it is deemed
// unsafe. Non-product algebras are safe iff strictly monotonic.
func AnalyzeSafety(a algebra.Algebra) (Report, error) {
	return AnalyzeSafetyWith(context.Background(), a, smt.Native{})
}

// AnalyzeSafetyWith is AnalyzeSafety with an explicit context and solver
// backend.
func AnalyzeSafetyWith(ctx context.Context, a algebra.Algebra, solver smt.Solver) (Report, error) {
	if p, ok := a.(algebra.Product); ok {
		return analyzeProduct(ctx, p, solver)
	}
	res, err := CheckWith(ctx, a, StrictMonotonicity, solver)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Steps: []Result{res}}
	if res.Sat {
		rep.Verdict = Safe
		rep.Reason = fmt.Sprintf("%s is strictly monotonic", a.Name())
	} else {
		rep.Verdict = Unsafe
		rep.Reason = fmt.Sprintf("%s violates strict monotonicity (%d-constraint core)", a.Name(), len(res.Core))
	}
	return rep, nil
}

func analyzeProduct(ctx context.Context, p algebra.Product, solver smt.Solver) (Report, error) {
	// The first factor is checked for strict monotonicity and, on failure,
	// plain monotonicity. When it is a leaf algebra, both checks share one
	// constraint generation (the enumeration of the ⊕ table dominates the
	// analysis cost for tabular algebras); a nested product recurses.
	var (
		steps      []Result
		strictSafe bool
		checkMono  func() (Result, error)
	)
	if _, nested := p.First.(algebra.Product); nested {
		first, err := AnalyzeSafetyWith(ctx, p.First, solver)
		if err != nil {
			return Report{}, err
		}
		steps, strictSafe = first.Steps, first.Verdict == Safe
		checkMono = func() (Result, error) { return CheckWith(ctx, p.First, Monotonicity, solver) }
	} else {
		g, err := newConstraintGen(p.First)
		if err != nil {
			return Report{}, err
		}
		strict, err := checkGen(ctx, g, StrictMonotonicity, solver)
		if err != nil {
			return Report{}, err
		}
		steps, strictSafe = []Result{strict}, strict.Sat
		checkMono = func() (Result, error) { return checkGen(ctx, g, Monotonicity, solver) }
	}
	rep := Report{Steps: steps}
	if strictSafe {
		rep.Verdict = Safe
		rep.Reason = fmt.Sprintf("first factor of %s is strictly monotonic; lexical product is safe", p.Name())
		return rep, nil
	}
	mono, err := checkMono()
	if err != nil {
		return Report{}, err
	}
	rep.Steps = append(rep.Steps, mono)
	if !mono.Sat {
		rep.Verdict = Unsafe
		rep.Reason = fmt.Sprintf("first factor %s is not even monotonic; %s deemed unsafe", p.First.Name(), p.Name())
		return rep, nil
	}
	second, err := AnalyzeSafetyWith(ctx, p.Second, solver)
	if err != nil {
		return Report{}, err
	}
	rep.Steps = append(rep.Steps, second.Steps...)
	if second.Verdict == Safe {
		rep.Verdict = Safe
		rep.Reason = fmt.Sprintf("%s is monotonic and %s is strictly monotonic; lexical product %s is safe", p.First.Name(), p.Second.Name(), p.Name())
	} else {
		rep.Verdict = Unsafe
		rep.Reason = fmt.Sprintf("%s is monotonic but %s is not strictly monotonic; %s deemed unsafe", p.First.Name(), p.Second.Name(), p.Name())
	}
	return rep, nil
}
