package smt

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the Yices 1.x surface syntax used in the paper's
// §IV-C listings, in both directions: Emit renders a Solver's context as
// Yices input and Parse reads such input back into a Solver. The round trip
// lets FSR display the exact encodings the paper prints and lets users feed
// hand-written Yices files to the built-in solver.

// sigTypeName is the signature type the paper defines:
// (define-type Sig (subtype (n::nat) (> n 0))).
const sigTypeName = "Sig"

// Emit renders the solver's logical context in Yices syntax, matching the
// paper's §IV-C listings: a Sig type declaration, one define per variable,
// and one assert per atom. Comment lines carry assertion provenance.
func Emit(s *Context) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(define-type %s (subtype (n::nat) (> n 0)))\n", sigTypeName)

	// Collect ground variables in first-appearance order.
	seen := map[Var]bool{}
	var vars []Var
	addVar := func(t Term, quant Var) {
		if t.Var == "" || t.Var == quant || seen[t.Var] {
			return
		}
		seen[t.Var] = true
		vars = append(vars, t.Var)
	}
	for _, a := range s.asserts {
		addVar(a.A, a.QuantVar)
		addVar(a.B, a.QuantVar)
	}
	for _, v := range vars {
		fmt.Fprintf(&b, "(define %s::%s)\n", v, sigTypeName)
	}

	lastOrigin := ""
	for _, a := range s.asserts {
		if a.Origin != "" && a.Origin != lastOrigin {
			fmt.Fprintf(&b, ";; %s\n", a.Origin)
			lastOrigin = a.Origin
		}
		if a.QuantVar != "" {
			fmt.Fprintf(&b, "(assert (forall (%s::%s) (%s %s %s)))\n",
				a.QuantVar, sigTypeName, a.Rel, emitTerm(a.A), emitTerm(a.B))
			continue
		}
		fmt.Fprintf(&b, "(assert (%s %s %s))\n", a.Rel, emitTerm(a.A), emitTerm(a.B))
	}
	b.WriteString("(check)\n")
	return b.String()
}

func emitTerm(t Term) string {
	switch {
	case t.Var == "":
		return strconv.Itoa(t.K)
	case t.K == 0:
		return string(t.Var)
	case t.K > 0:
		return fmt.Sprintf("(+ %s %d)", t.Var, t.K)
	default:
		return fmt.Sprintf("(- %s %d)", t.Var, -t.K)
	}
}

// Parse reads Yices-syntax input (the subset Emit produces, which is also
// the subset the paper's listings use) into a fresh Solver. Unsupported
// constructs produce an error naming the offending form.
func Parse(input string) (*Context, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s := NewContext()
	for !p.eof() {
		form, err := p.sexp()
		if err != nil {
			return nil, err
		}
		if err := applyForm(s, form); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sexp is a parsed s-expression: either an atom (string) or a list.
type sexp struct {
	atom string
	list []sexp
}

func (e sexp) isAtom() bool { return e.list == nil }

func (e sexp) String() string {
	if e.isAtom() {
		return e.atom
	}
	parts := make([]string, len(e.list))
	for i, c := range e.list {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

func lex(input string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ';': // comment to end of line
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(input) && !strings.ContainsRune("() \t\n\r;", rune(input[j])) {
				j++
			}
			toks = append(toks, input[i:j])
			i = j
		}
	}
	return toks, nil
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) sexp() (sexp, error) {
	if p.eof() {
		return sexp{}, fmt.Errorf("smt: unexpected end of input")
	}
	tok := p.toks[p.pos]
	p.pos++
	if tok == ")" {
		return sexp{}, fmt.Errorf("smt: unexpected ')'")
	}
	if tok != "(" {
		return sexp{atom: tok}, nil
	}
	list := []sexp{}
	for {
		if p.eof() {
			return sexp{}, fmt.Errorf("smt: unterminated '('")
		}
		if p.toks[p.pos] == ")" {
			p.pos++
			return sexp{list: list}, nil
		}
		child, err := p.sexp()
		if err != nil {
			return sexp{}, err
		}
		list = append(list, child)
	}
}

func applyForm(s *Context, form sexp) error {
	if form.isAtom() || len(form.list) == 0 {
		return fmt.Errorf("smt: expected a form, got %s", form)
	}
	head := form.list[0]
	if !head.isAtom() {
		return fmt.Errorf("smt: expected a form head, got %s", head)
	}
	switch head.atom {
	case "define-type", "set-evidence!", "set-verbosity!", "check":
		return nil // declarations and directives carry no constraints
	case "define":
		return nil // variable declarations are implicit in use
	case "assert", "assert+":
		if len(form.list) != 2 {
			return fmt.Errorf("smt: assert wants one body, got %s", form)
		}
		return applyAssert(s, form.list[1])
	default:
		return fmt.Errorf("smt: unsupported form %s", head.atom)
	}
}

func applyAssert(s *Context, body sexp) error {
	if body.isAtom() || len(body.list) == 0 {
		return fmt.Errorf("smt: unsupported assertion body %s", body)
	}
	head := body.list[0]
	if head.isAtom() && head.atom == "forall" {
		// (forall (v::T) atom)
		if len(body.list) != 3 {
			return fmt.Errorf("smt: malformed forall %s", body)
		}
		binder := body.list[1]
		var name string
		switch {
		case binder.isAtom():
			name = binder.atom
		case len(binder.list) == 1 && binder.list[0].isAtom():
			name = binder.list[0].atom
		default:
			return fmt.Errorf("smt: malformed forall binder %s", binder)
		}
		name = strings.SplitN(name, "::", 2)[0]
		a, err := parseAtom(body.list[2])
		if err != nil {
			return err
		}
		a.QuantVar = Var(name)
		s.Assert(a)
		return nil
	}
	a, err := parseAtom(body)
	if err != nil {
		return err
	}
	s.Assert(a)
	return nil
}

func parseAtom(e sexp) (Assertion, error) {
	if e.isAtom() || len(e.list) != 3 || !e.list[0].isAtom() {
		return Assertion{}, fmt.Errorf("smt: expected (rel a b), got %s", e)
	}
	var rel Rel
	switch e.list[0].atom {
	case "<":
		rel = Lt
	case "<=":
		rel = Le
	case "=":
		rel = Eq
	case ">":
		rel = Gt
	case ">=":
		rel = Ge
	default:
		return Assertion{}, fmt.Errorf("smt: unsupported relation %s", e.list[0].atom)
	}
	a, err := parseTerm(e.list[1])
	if err != nil {
		return Assertion{}, err
	}
	b, err := parseTerm(e.list[2])
	if err != nil {
		return Assertion{}, err
	}
	return Assertion{Rel: rel, A: a, B: b}, nil
}

func parseTerm(e sexp) (Term, error) {
	if e.isAtom() {
		if n, err := strconv.Atoi(e.atom); err == nil {
			return C(n), nil
		}
		name := strings.SplitN(e.atom, "::", 2)[0]
		// The paper writes s+1 as a single token in prose; accept it.
		if i := strings.IndexByte(name, '+'); i > 0 {
			if k, err := strconv.Atoi(name[i+1:]); err == nil {
				return V(name[:i]).Plus(k), nil
			}
		}
		return V(name), nil
	}
	if len(e.list) == 3 && e.list[0].isAtom() {
		op := e.list[0].atom
		if op == "+" || op == "-" {
			base, err := parseTerm(e.list[1])
			if err != nil {
				return Term{}, err
			}
			k, err := parseTerm(e.list[2])
			if err != nil {
				return Term{}, err
			}
			if !k.IsConst() && !base.IsConst() {
				return Term{}, fmt.Errorf("smt: non-linear term %s", e)
			}
			if !k.IsConst() {
				if op == "-" {
					return Term{}, fmt.Errorf("smt: unsupported term %s", e)
				}
				base, k = k, base
			}
			if op == "-" {
				return base.Plus(-k.K), nil
			}
			return base.Plus(k.K), nil
		}
	}
	return Term{}, fmt.Errorf("smt: unsupported term %s", e)
}
