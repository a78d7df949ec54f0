package ndlog

import (
	"fmt"
	"strconv"
	"strings"

	"fsr/internal/algebra"
)

// This file implements §V-B: the automatic translation from routing algebra
// to an NDlog program. The output is the GPV program of §V-A together with
// the four policy functions of Table II:
//
//	⪯   → f_pref
//	⊕P  → f_concatSig
//	⊕I  → f_import
//	⊕E  → f_export
//
// Each function carries both a §V-C style display body and a compiled Go
// implementation closing over the algebra, which the engine executes. The
// paper's "phi" stands for the prohibited signature φ on the wire.

// PhiKey is the wire rendering of the prohibited signature φ.
const PhiKey = "phi"

// GPVSource is the generated path-vector mechanism, a faithful rendition of
// the §V-A GPV program adapted to the engine's keyed-table semantics:
//
//   - sig is keyed by (U, V, D) — a neighbor's new advertisement replaces
//     its previous one (BGP's implicit withdraw);
//   - prohibited results are stored as "phi" rather than suppressed, so a
//     filtered re-advertisement retracts the neighbor's candidate;
//   - gpvSelect aggregates valid candidates with a_pref;
//   - gpvSend re-advertises a changed selection through the export filter.
//
// Loop prevention (f_inPath) is applied at reception, as in BGP.
const GPVSource = `
materialize(label, 3, keys(1,2)).
materialize(sig, 5, keys(1,2,3)).
materialize(localOpt, 4, keys(1,2)).

gpvRecv sig(@U,V,D,SNew,PNew) :- msg(@U,V,D,S,P), label(@U,V,L),
	SNew=f_concatSigChecked(L,S,U,P), PNew=f_concatPath(U,P).
gpvSelect localOpt(@U,D,a_pref<SNew>,PNew) :- sig(@U,V,D,SNew,PNew),
	f_isValid(SNew)==true.
gpvSend msg(@N,U,D,S,P) :- localOpt(@U,D,S,P), label(@U,N,L),
	f_export(L,S)==true, f_inPath(N,P)==false.
`

// Generate translates a policy configuration (routing algebra) into a
// runnable NDlog program: the GPV mechanism plus the generated policy
// functions. The topology-dependent tuples of step 4 (label and initial
// sig rows) are produced separately by the engine's deployment
// configuration, mirroring the per-router configuration generation of the
// paper.
func Generate(alg algebra.Algebra) (*Program, error) {
	prog, err := Parse("gpv-"+alg.Name(), GPVSource)
	if err != nil {
		return nil, fmt.Errorf("ndlog: internal GPV source: %w", err)
	}
	codec := newKeyCodec(alg)
	prog.Funcs = append(prog.Funcs, policyFuncs(alg, codec)...)
	prog.Funcs = append(prog.Funcs, builtinFuncs()...)
	return prog, nil
}

// keyCodec converts between signatures and labels and their wire
// renderings. Both maps are built once, so a policy-function call costs a
// lookup, not a pass over the algebra.
type keyCodec struct {
	byKey   map[string]algebra.Sig
	byLabel map[string]algebra.Label
}

func newKeyCodec(alg algebra.Algebra) *keyCodec {
	c := &keyCodec{byKey: map[string]algebra.Sig{}, byLabel: map[string]algebra.Label{}}
	for _, s := range alg.Sigs() {
		c.byKey[s.String()] = s
	}
	for _, l := range alg.Labels() {
		if _, taken := c.byLabel[l.String()]; !taken { // the first label of a rendering wins
			c.byLabel[l.String()] = l
		}
	}
	return c
}

func (c *keyCodec) decode(key string) (algebra.Sig, bool) {
	if key == PhiKey {
		return algebra.Prohibited, true
	}
	if s, ok := c.byKey[key]; ok {
		return s, true
	}
	// Closed-form numeric algebras render signatures as integers.
	if len(c.byKey) == 0 {
		if n, err := strconv.Atoi(key); err == nil {
			return algebra.Num(n), true
		}
	}
	return nil, false
}

func encode(s algebra.Sig) string {
	if algebra.IsProhibited(s) {
		return PhiKey
	}
	return s.String()
}

// decodeLabel: labels travel as their renderings too, integers for the
// closed-form algebras.
func (c *keyCodec) decodeLabel(key string) (algebra.Label, bool) {
	if l, ok := c.byLabel[key]; ok {
		return l, true
	}
	if n, err := strconv.Atoi(key); err == nil {
		return algebra.LNum(n), true
	}
	return nil, false
}

// policyFuncs generates Table II's four functions (steps 1–3 of §V-B).
func policyFuncs(alg algebra.Algebra, codec *keyCodec) []FuncDef {
	argStr := func(args []Value, i int) (string, error) {
		s, ok := args[i].(string)
		if !ok {
			return "", Errf("argument %d: want string, got %T", i, args[i])
		}
		return s, nil
	}
	sigArg := func(args []Value, i int) (algebra.Sig, error) {
		key, err := argStr(args, i)
		if err != nil {
			return nil, err
		}
		s, ok := codec.decode(key)
		if !ok {
			return algebra.Prohibited, nil // unknown signatures are prohibited
		}
		return s, nil
	}
	labelArg := func(args []Value, i int) (algebra.Label, error) {
		key, err := argStr(args, i)
		if err != nil {
			return nil, err
		}
		l, ok := codec.decodeLabel(key)
		if !ok {
			return nil, Errf("unknown label %q", key)
		}
		return l, nil
	}

	fPref := FuncDef{
		Name:   "f_pref",
		Params: []string{"S1", "S2"},
		Text:   prefText(alg),
		Impl: func(args []Value) (Value, error) {
			s1, err := sigArg(args, 0)
			if err != nil {
				return nil, err
			}
			s2, err := sigArg(args, 1)
			if err != nil {
				return nil, err
			}
			return alg.Prefer(s1, s2) && !alg.Prefer(s2, s1), nil
		},
	}
	fConcat := FuncDef{
		Name:   "f_concatSig",
		Params: []string{"L", "S"},
		Text:   concatText(alg),
		Impl: func(args []Value) (Value, error) {
			l, err := labelArg(args, 0)
			if err != nil {
				return nil, err
			}
			s, err := sigArg(args, 1)
			if err != nil {
				return nil, err
			}
			return encode(alg.Concat(l, s)), nil
		},
	}
	fImport := FuncDef{
		Name:   "f_import",
		Params: []string{"L", "S"},
		Text:   filterText(alg, "f_import", alg.Import),
		Impl: func(args []Value) (Value, error) {
			l, err := labelArg(args, 0)
			if err != nil {
				return nil, err
			}
			s, err := sigArg(args, 1)
			if err != nil {
				return nil, err
			}
			if algebra.IsProhibited(s) {
				return false, nil
			}
			return alg.Import(l, s), nil
		},
	}
	fExport := FuncDef{
		Name:   "f_export",
		Params: []string{"L", "S"},
		Text:   filterText(alg, "f_export", alg.Export),
		Impl: func(args []Value) (Value, error) {
			l, err := labelArg(args, 0)
			if err != nil {
				return nil, err
			}
			s, err := sigArg(args, 1)
			if err != nil {
				return nil, err
			}
			if algebra.IsProhibited(s) {
				return false, nil
			}
			return alg.Export(l, s), nil
		},
	}
	// f_concatSigChecked composes import filtering, loop prevention and
	// signature generation into the single assignment gpvRecv uses; it
	// returns "phi" for every rejected case so a replaced advertisement
	// retracts the neighbor's previous candidate.
	fChecked := FuncDef{
		Name:   "f_concatSigChecked",
		Params: []string{"L", "S", "U", "P"},
		Impl: func(args []Value) (Value, error) {
			l, err := labelArg(args, 0)
			if err != nil {
				return nil, err
			}
			s, err := sigArg(args, 1)
			if err != nil {
				return nil, err
			}
			u, ok := args[2].(string)
			if !ok {
				return nil, Errf("f_concatSigChecked: U must be a string")
			}
			path, ok := args[3].(List)
			if !ok {
				return nil, Errf("f_concatSigChecked: P must be a list")
			}
			for _, hop := range path {
				if hop == u {
					return PhiKey, nil // loop
				}
			}
			if algebra.IsProhibited(s) {
				return PhiKey, nil
			}
			if !alg.Import(l, s) {
				return PhiKey, nil
			}
			return encode(alg.Concat(l, s)), nil
		},
	}
	// f_origin maps a link label to the origination-set signature (§V-B
	// step 4), used when constructing initial sig tuples.
	fOrigin := FuncDef{
		Name:   "f_origin",
		Params: []string{"L"},
		Impl: func(args []Value) (Value, error) {
			l, err := labelArg(args, 0)
			if err != nil {
				return nil, err
			}
			return encode(alg.Origin(l)), nil
		},
	}
	return []FuncDef{fPref, fConcat, fImport, fExport, fChecked, fOrigin}
}

// builtinFuncs are the mechanism-level helpers of the GPV program.
func builtinFuncs() []FuncDef {
	return []FuncDef{
		{
			Name:   "f_concatPath",
			Params: []string{"U", "P"},
			Impl: func(args []Value) (Value, error) {
				p, ok := args[1].(List)
				if !ok {
					return nil, Errf("f_concatPath: P must be a list")
				}
				out := make(List, 0, len(p)+1)
				out = append(out, args[0])
				out = append(out, p...)
				return out, nil
			},
		},
		{
			Name:   "f_head",
			Params: []string{"P"},
			Impl: func(args []Value) (Value, error) {
				p, ok := args[0].(List)
				if !ok || len(p) == 0 {
					return nil, Errf("f_head: want a nonempty list")
				}
				return p[0], nil
			},
		},
		{
			Name:   "f_last",
			Params: []string{"P"},
			Impl: func(args []Value) (Value, error) {
				p, ok := args[0].(List)
				if !ok || len(p) == 0 {
					return nil, Errf("f_last: want a nonempty list")
				}
				return p[len(p)-1], nil
			},
		},
		{
			Name:   "f_inPath",
			Params: []string{"N", "P"},
			Impl: func(args []Value) (Value, error) {
				p, ok := args[1].(List)
				if !ok {
					return nil, Errf("f_inPath: want a list")
				}
				for _, hop := range p {
					if hop == args[0] {
						return true, nil
					}
				}
				return false, nil
			},
		},
		{
			Name:   "f_isValid",
			Params: []string{"S"},
			Impl: func(args []Value) (Value, error) {
				return args[0] != PhiKey, nil
			},
		},
	}
}

// prefText renders f_pref the way §V-C prints it.
func prefText(alg algebra.Algebra) string {
	var b strings.Builder
	b.WriteString("#def_func f_pref(S1,S2) {\n")
	prefs := algebra.Preferences(alg)
	if len(prefs) == 0 {
		b.WriteString("  return S1 <= S2\n")
	}
	for _, p := range prefs {
		if p.Equal {
			continue
		}
		fmt.Fprintf(&b, "  if (S1=='%s' && S2=='%s') return true\n", p.A, p.B)
	}
	if len(prefs) > 0 {
		b.WriteString("  return false\n")
	}
	b.WriteString("}")
	return b.String()
}

// concatText renders f_concatSig the way §V-C prints it.
func concatText(alg algebra.Algebra) string {
	var b strings.Builder
	b.WriteString("#def_func f_concatSig(L,S) {\n")
	sigs := alg.Sigs()
	if sigs == nil {
		b.WriteString("  return L+S\n}")
		return b.String()
	}
	for _, l := range alg.Labels() {
		for _, s := range sigs {
			out := alg.Concat(l, s)
			if algebra.IsProhibited(out) {
				continue
			}
			fmt.Fprintf(&b, "  if (L=='%s') && (S=='%s') return '%s'\n", l, s, out)
		}
	}
	b.WriteString("  return 'phi'\n}")
	return b.String()
}

// filterText renders f_import / f_export the way §V-C prints them: only the
// filtered (false) cases are listed, with a default of true.
func filterText(alg algebra.Algebra, name string, allow func(algebra.Label, algebra.Sig) bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#def_func %s(L,S) {\n", name)
	sigs := alg.Sigs()
	for _, l := range alg.Labels() {
		for _, s := range sigs {
			if !allow(l, s) {
				fmt.Fprintf(&b, "  if (L=='%s' && S=='%s') return false\n", l, s)
			}
		}
	}
	b.WriteString("  return true\n}")
	return b.String()
}
