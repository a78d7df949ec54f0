package scenario

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"fsr/internal/spp"
)

// The byte reader: request bytes → validated *spp.Instance in one pass. It
// scans the wire form (and the envelope the daemon's upload endpoints wrap
// it in) without reflection or an intermediate InstanceJSON: each token is
// interned as it is read, each "a,b,c" path goes from the JSON string's
// bytes straight into the id slab, and wire.build assembles and validates
// the instance. Nothing here recurses, so no input can deepen the stack.
// The wire is not garbage afterwards: ReadRequest reads into a store that
// Release clears and parks for the next upload (wire.go: spare), so what a
// one-shot upload allocates is its distinct token strings and its Instance,
// not the tables and arrays it is read and built in.
//
// It reads what encoding/json (with DisallowUnknownFields) reads into an
// InstanceJSON — fields in any order, null for any field, whitespace,
// escapes, invalid UTF-8 replaced by U+FFFD, integers only for cost — and
// is stricter in three ways, each pinned by FuzzReadInstance: keys match
// exactly (encoding/json folds case), a key may appear once per object
// (encoding/json merges the two values of a repeated rank, sessions or
// instance key), and only whitespace may follow the value. ReadWhatIf reads
// a what-if batch with the same strictness (FuzzReadWhatIf).

// Request is the decoded body of POST /v1/instances and POST /v1/analyze.
type Request struct {
	ID, Gadget string
	// Instance is the inline instance, or InstanceErr why it was rejected;
	// both nil when the body carried none. Stats describes its decode.
	Instance    *spp.Instance
	InstanceErr error
	Stats       ReadStats
	// w is the store the inline instance was read and built in, until
	// Release.
	w *wire
}

// ReadRequest decodes an upload envelope {"id", "gadget", "instance"}. The
// id field is only known to endpoints that name what they load (withID).
// A body that is not the envelope's JSON is the returned error; an inline
// instance that is well-formed JSON but fails validation is InstanceErr.
//
// An inline instance is read into the store the last released request left
// parked (a fresh one when none is), and its arrays and maps are that
// store's: see Release. On error the store has been released already.
func ReadRequest(body []byte, withID bool) (Request, error) {
	s := scanner{data: body}
	var req Request
	known := envelopeKeys
	if !withID {
		known = known[:2]
	}
	err := s.object(known, func(i int, _ []byte) (err error) {
		switch i {
		case 0:
			req.Gadget, err = s.text()
		case 1:
			if !s.null() {
				req.w = takeWire(len(body))
				req.Instance, req.Stats, req.InstanceErr, err = s.instance(req.w)
			}
		case 2:
			req.ID, err = s.text()
		}
		return err
	})
	if err == nil {
		err = s.end()
	}
	if err != nil {
		req.Release()
	}
	return req, err
}

// Release hands the request's store back for the next upload and drops
// Instance. Call it once, after the last use of the instance: the next
// ReadRequest overwrites the arrays and maps it is made of. A request whose
// instance must outlive it is never released; its store is then garbage
// like any other value.
func (r *Request) Release() {
	if r.w != nil {
		r.w.release()
		r.w = nil
	}
	r.Instance = nil
}

// WhatIf is the decoded body of POST /v1/instances/{id}/whatif: a batch of
// edits, and whether to roll it back once verified (a pure query).
type WhatIf struct {
	Ops     []WhatIfOp
	Discard bool
}

// WhatIfOp is one edit: Op is rerank (Node, Paths most preferred first),
// drop-session (A, B) or add-session (A, B, Cost).
type WhatIfOp struct {
	Op    string
	Node  spp.Node
	Paths []spp.Path
	A, B  spp.Node
	Cost  int
}

// ReadWhatIf decodes a what-if body {"ops": [{"op", "node", "paths", "a",
// "b", "cost"}, …], "discard"}. A path is a comma-joined node list, the
// space around every hop trimmed; it costs one string for all its hops and
// one slice.
func ReadWhatIf(body []byte) (WhatIf, error) {
	s := scanner{data: body}
	var req WhatIf
	err := s.object(whatIfKeys, func(i int, _ []byte) (err error) {
		if i == 1 {
			req.Discard, err = s.boolean()
			return err
		}
		return s.array(func() error {
			op, err := s.whatIfOp()
			req.Ops = append(req.Ops, op)
			return err
		})
	})
	if err == nil {
		err = s.end()
	}
	return req, err
}

// The keys of the objects with a fixed field set, in the order the readers
// switch on.
var (
	envelopeKeys = []string{"gadget", "instance", "id"}
	instanceKeys = []string{"name", "nodes", "origins", "sessions", "rank"}
	sessionKeys  = []string{"a", "b", "cost"}
	whatIfKeys   = []string{"ops", "discard"}
	opKeys       = []string{"op", "node", "paths", "a", "b", "cost"}
)

// scanner is a cursor over one JSON text.
type scanner struct {
	data []byte
	pos  int
	// buf holds the last unquoted string that could not be read in place.
	buf []byte
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and reports the next byte, 0 at the end of input.
func (s *scanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

func (s *scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input, want %s", want)
	}
	return s.errorf("unexpected %q, want %s", s.data[s.pos], want)
}

// end accepts only whitespace up to the end of input.
func (s *scanner) end() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.errorf("unexpected %q after the request's value", s.data[s.pos])
	}
	return nil
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool { return s.literal("null") }

// literal consumes lit if it is next.
func (s *scanner) literal(lit string) bool {
	if s.peek() == lit[0] && bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
		s.pos += len(lit)
		return true
	}
	return false
}

// object reads {"key": value, …} or null, calling field with each key
// positioned at its value. With known keys, field gets the key's index in
// known, anything else is an unknown field, and a key may appear once; with
// none, any key goes and field gets its bytes.
func (s *scanner) object(known []string, field func(i int, key []byte) error) error {
	if s.null() {
		return nil
	}
	if s.peek() != '{' {
		return s.unexpected("an object")
	}
	s.pos++
	seen := 0
	for first := true; ; first = false {
		done, err := s.next('}', first)
		if done || err != nil {
			return err
		}
		if s.peek() != '"' {
			return s.unexpected("a key")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		i := -1
		if known != nil {
			if i = slices.Index(known, string(key)); i < 0 {
				return s.errorf("unknown field %q", key)
			}
			if seen&(1<<i) != 0 {
				return s.errorf("duplicate key %q", key)
			}
			seen |= 1 << i
		}
		if s.peek() != ':' {
			return s.unexpected("':'")
		}
		s.pos++
		if err := field(i, key); err != nil {
			return err
		}
	}
}

// array reads [value, …] or null, calling elem positioned at each value.
func (s *scanner) array(elem func() error) error {
	if s.null() {
		return nil
	}
	if s.peek() != '[' {
		return s.unexpected("an array")
	}
	s.pos++
	for first := true; ; first = false {
		done, err := s.next(']', first)
		if done || err != nil {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// next steps to the next member of an object or array: the closer ends it,
// and every member but the first follows a comma.
func (s *scanner) next(closer byte, first bool) (done bool, err error) {
	c := s.peek()
	if c == closer {
		s.pos++
		return true, nil
	}
	if first {
		return false, nil
	}
	if c != ',' {
		return false, s.unexpected("',' or '" + string(closer) + "'")
	}
	s.pos++
	if s.peek() == closer {
		return false, s.unexpected("a value")
	}
	return false, nil
}

// str reads a string literal (or null, the empty string) and returns its
// value: a slice of the input when the literal needs no unquoting, s.buf
// otherwise. The bytes are only good until the next call.
func (s *scanner) str() ([]byte, error) {
	if s.null() {
		return nil, nil
	}
	if s.peek() != '"' {
		return nil, s.unexpected("a string")
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return s.unquote(start, i)
		case c < ' ':
			s.pos = i
			return nil, s.errorf("control character in string")
		}
	}
	s.pos = len(s.data)
	return nil, s.errorf("unterminated string")
}

// text is str, copied out.
func (s *scanner) text() (string, error) {
	b, err := s.str()
	return string(b), err
}

// unquote is str's slow path: the literal starting at start has an escape
// or a non-ASCII byte at i. Escapes are decoded and invalid UTF-8 and lone
// surrogates become U+FFFD, as encoding/json has it.
func (s *scanner) unquote(start, i int) ([]byte, error) {
	buf := append(s.buf[:0], s.data[start:i]...)
	for i < len(s.data) {
		switch c := s.data[i]; {
		case c == '"':
			s.pos, s.buf = i+1, buf
			return buf, nil
		case c == '\\':
			i++
			if i >= len(s.data) {
				s.pos = i
				return nil, s.errorf("unterminated string")
			}
			switch e := s.data[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := s.hex4(i + 1)
				if !ok {
					s.pos = i
					return nil, s.errorf(`invalid \u escape`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone half is U+FFFD and
					// what follows it is read on its own.
					low, ok := rune(0), false
					if i+2 < len(s.data) && s.data[i+1] == '\\' && s.data[i+2] == 'u' {
						low, ok = s.hex4(i + 3)
					}
					if pair := utf16.DecodeRune(r, low); ok && pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				s.pos = i
				return nil, s.errorf("invalid escape %q", e)
			}
			i++
		case c < ' ':
			s.pos = i
			return nil, s.errorf("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.data[i:])
			buf = utf8.AppendRune(buf, r) // RuneError for an invalid byte
			i += size
		}
	}
	s.pos = len(s.data)
	return nil, s.errorf("unterminated string")
}

// hex4 decodes the four hex digits at s.data[at:].
func (s *scanner) hex4(at int) (rune, bool) {
	if at+4 > len(s.data) {
		return 0, false
	}
	var r rune
	for _, c := range s.data[at : at+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// boolean reads true, false or null (false).
func (s *scanner) boolean() (bool, error) {
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"), s.null():
		return false, nil
	}
	return false, s.unexpected("a boolean")
}

// integer reads a JSON number that is an integer fitting int (or null, 0),
// which is what encoding/json stores into an int field.
func (s *scanner) integer() (int, error) {
	if s.null() {
		return 0, nil
	}
	s.peek()
	start := s.pos
	i := start
	if i < len(s.data) && s.data[i] == '-' {
		i++
	}
	digits := i
	for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
		i++
	}
	switch {
	case i == digits:
		return 0, s.unexpected("an integer")
	case s.data[digits] == '0' && i > digits+1:
		s.pos = digits + 1
		return 0, s.errorf("number with a leading zero")
	case i < len(s.data) && (s.data[i] == '.' || s.data[i] == 'e' || s.data[i] == 'E'):
		s.pos = i
		return 0, s.errorf("number is not an integer")
	}
	v, err := strconv.ParseInt(string(s.data[start:i]), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errorf("number %s does not fit an int", s.data[start:i])
	}
	s.pos = i
	return int(v), nil
}

// instance reads one wire-form object (or null, the empty instance) into w,
// an empty wire, and builds it. invalid is wire.build's verdict on a
// well-formed wire form; err is a body that is not one.
func (s *scanner) instance(w *wire) (in *spp.Instance, st ReadStats, invalid, err error) {
	tokens := func(into *[]int32) error {
		return s.array(func() error {
			b, err := s.str()
			if err == nil {
				*into = append(*into, w.token(b))
			}
			return err
		})
	}
	err = s.object(instanceKeys, func(i int, _ []byte) (err error) {
		switch i {
		case 0:
			w.name, err = s.text()
		case 1:
			err = tokens(&w.nodes)
		case 2:
			err = tokens(&w.origins)
		case 3:
			err = s.array(func() error { return s.session(w) })
		case 4:
			err = s.object(nil, func(_ int, owner []byte) error {
				if !w.startRank(w.token(owner)) {
					return s.errorf("duplicate key %q", owner)
				}
				return s.array(func() error {
					b, err := s.str()
					if err == nil {
						w.path(b)
					}
					return err
				})
			})
		}
		return err
	})
	if err != nil {
		return nil, st, nil, err
	}
	in, st, invalid = w.build()
	return in, st, invalid, nil
}

// session reads one {"a", "b", "cost"} object (or null); an end left out
// is the empty token.
func (s *scanner) session(w *wire) error {
	ses := wireSession{a: -1, b: -1}
	err := s.object(sessionKeys, func(i int, _ []byte) (err error) {
		var b []byte
		switch i {
		case 0:
			b, err = s.str()
			ses.a = w.token(b)
		case 1:
			b, err = s.str()
			ses.b = w.token(b)
		case 2:
			ses.cost, err = s.integer()
		}
		return err
	})
	if ses.a < 0 {
		ses.a = w.token(nil)
	}
	if ses.b < 0 {
		ses.b = w.token(nil)
	}
	w.sessions = append(w.sessions, ses)
	return err
}

// whatIfOp reads one op object (or null, the zero op).
func (s *scanner) whatIfOp() (op WhatIfOp, err error) {
	nodes := [...]*spp.Node{1: &op.Node, 3: &op.A, 4: &op.B}
	err = s.object(opKeys, func(i int, _ []byte) (err error) {
		var text string
		switch i {
		case 0:
			op.Op, err = s.text()
		case 2:
			err = s.array(func() error {
				text, err := s.text()
				op.Paths = append(op.Paths, hops(text))
				return err
			})
		case 5:
			op.Cost, err = s.integer()
		default:
			text, err = s.text()
			*nodes[i] = spp.Node(text)
		}
		return err
	})
	return op, err
}

// hops splits a comma-joined node list into substrings of it, trimmed.
func hops(path string) spp.Path {
	p := make(spp.Path, 0, strings.Count(path, ",")+1)
	for {
		hop, rest, more := strings.Cut(path, ",")
		p = append(p, spp.Node(strings.TrimSpace(hop)))
		if !more {
			return p
		}
		path = rest
	}
}
