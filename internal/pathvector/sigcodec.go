package pathvector

import (
	"strconv"

	"fsr/internal/algebra"
)

// SigCodec recovers signatures from their wire rendering (Sig.String()).
// Finite algebras decode by table lookup; closed-form numeric algebras parse
// integers; lexical products decode componentwise. It is a Node's default
// Config.SigFromKey: only deployment mode's Advert carries a rendering, and
// simulated adverts share the signature itself.
type SigCodec struct {
	byKey         map[string]algebra.Sig
	numeric       bool
	first, second *SigCodec
}

// NewSigCodec builds a codec for the algebra's signature universe.
func NewSigCodec(a algebra.Algebra) *SigCodec {
	if p, ok := a.(algebra.Product); ok {
		return &SigCodec{first: NewSigCodec(p.First), second: NewSigCodec(p.Second)}
	}
	sigs := a.Sigs()
	if sigs == nil {
		return &SigCodec{numeric: true}
	}
	c := &SigCodec{byKey: make(map[string]algebra.Sig, len(sigs))}
	for _, s := range sigs {
		c.byKey[s.String()] = s
	}
	return c
}

// FromKey decodes a rendered signature; ok is false for renderings outside
// the universe (treated as prohibited by the protocol).
func (c *SigCodec) FromKey(key string) (algebra.Sig, bool) {
	switch {
	case c.first != nil:
		inner, ok := stripParens(key)
		if !ok {
			return nil, false
		}
		a, b, ok := splitPair(inner)
		if !ok {
			return nil, false
		}
		sa, oka := c.first.FromKey(a)
		sb, okb := c.second.FromKey(b)
		if !oka || !okb {
			return nil, false
		}
		return algebra.SigPair{A: sa, B: sb}, true
	case c.numeric:
		n, err := strconv.Atoi(key)
		if err != nil {
			return nil, false
		}
		return algebra.Num(n), true
	default:
		s, ok := c.byKey[key]
		return s, ok
	}
}

// stripParens removes one layer of enclosing parentheses.
func stripParens(s string) (string, bool) {
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return "", false
	}
	return s[1 : len(s)-1], true
}

// splitPair splits "a,b" at the top-level comma (components may themselves
// be parenthesized pairs).
func splitPair(s string) (string, string, bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return "", "", false
}
