package smt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// decodeSystem reads a small system off a byte string, two bytes an atom
// and at most 16 atoms, over four variables: the first byte picks the
// relation (all five) and, one time in eight, makes the atom the quantified
// pattern ∀s. s Rel s+k for k in −1..1, valid or not; the second picks the
// two sides of a ground atom, or k.
func decodeSystem(data []byte) []Assertion {
	vars := []string{"a", "b", "c", "d"}
	var out []Assertion
	for i := 0; i+1 < len(data) && len(out) < 16; i += 2 {
		x, y := data[i], data[i+1]
		a := Assertion{Rel: Rel(x % 5), Origin: fmt.Sprintf("r%d", len(out))}
		if x/5%8 == 0 {
			a.A, a.B, a.QuantVar = V("s"), V("s").Plus(int(y%3)-1), "s"
		} else {
			a.A, a.B = V(vars[y&3]), V(vars[y>>2&3])
		}
		out = append(out, a)
	}
	return out
}

// isCycleCore reports whether the atoms of an unsat core are a cheap
// certificate: oriented as edges A → B (an equality either way), they close
// exactly one simple cycle, and at least one of them is strict. Each
// variable then meets exactly two atom ends, and a walk from the first
// atom's A uses every atom once, all along or all against their
// orientation, and comes back.
func isCycleCore(core []Assertion) bool {
	ends := map[Var]int{}
	for _, a := range core {
		if a.QuantVar != "" || a.Rel > Eq {
			return false
		}
		ends[a.A.Var]++
		ends[a.B.Var]++
	}
	if len(core) == 0 || len(ends) != len(core) {
		return false
	}
	for _, n := range ends {
		if n != 2 {
			return false
		}
	}
	used := make([]bool, len(core))
	at, along, against, strict := core[0].A.Var, true, true, false
	for step := range core {
		k := -1
		for i, a := range core {
			if !used[i] && (a.A.Var == at || a.B.Var == at) && (step > 0 || i == 0) {
				k = i
				break
			}
		}
		if k < 0 {
			return false
		}
		used[k] = true
		a := core[k]
		if a.A.Var == at {
			at, against = a.B.Var, against && a.Rel == Eq
		} else {
			at, along = a.A.Var, along && a.Rel == Eq
		}
		strict = strict || a.Rel == Lt
	}
	return at == core[0].A.Var && (along || against) && strict
}

// checkAgainstReference holds Native to the Reference oracle on one system
// — verdict, model, core positions and core atoms — and every unsat core to
// the certificate shape: one invalid universal, or one simple cycle through
// a strict atom.
func checkAgainstReference(t *testing.T, asserts []Assertion) {
	t.Helper()
	ctx := context.Background()
	got, err := Native{}.Solve(ctx, asserts)
	if err != nil {
		t.Fatalf("native: %v\n%s", err, formatCore(asserts))
	}
	want, err := Reference{}.Solve(ctx, asserts)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if got.Sat != want.Sat || !reflect.DeepEqual(got.Model, want.Model) ||
		!reflect.DeepEqual(got.CoreIdx, want.CoreIdx) || !reflect.DeepEqual(got.Core, want.Core) {
		t.Fatalf("native and reference disagree:\nnative    sat=%v model=%v core=%v\nreference sat=%v model=%v core=%v\ninstance:\n%s",
			got.Sat, got.Model, got.CoreIdx, want.Sat, want.Model, want.CoreIdx, formatCore(asserts))
	}
	if got.Sat {
		return
	}
	if len(got.Core) == 1 && got.Core[0].QuantVar != "" {
		if ok, err := quantifiedValid(got.Core[0]); err != nil || ok {
			t.Fatalf("core %s is a valid universal", got.Core[0])
		}
		return
	}
	if !isCycleCore(got.Core) {
		t.Fatalf("core is not one simple cycle through a strict atom:\n%s\ninstance:\n%s", formatCore(got.Core), formatCore(asserts))
	}
}

// FuzzSolveAgainstReference decodes arbitrary bytes into small systems of
// the decided fragment and checks each with checkAgainstReference.
func FuzzSolveAgainstReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 24)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1}) // ∀s. s < s: the invalid universal alone
	f.Add([]byte{1, 0}) // a < a
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, decodeSystem(data)) })
}

// TestSolveAgainstReference runs checkAgainstReference on seeded byte
// strings, so the certificate shape is held on every test run, and checks
// that both verdicts and both kinds of core came up.
func TestSolveAgainstReference(t *testing.T) {
	var sat, cycles, universals int
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 2+rng.Intn(30))
		rng.Read(data)
		asserts := decodeSystem(data)
		checkAgainstReference(t, asserts)
		res, _ := Native{}.Solve(context.Background(), asserts)
		switch {
		case res.Sat:
			sat++
		case res.Core[0].QuantVar != "":
			universals++
		default:
			cycles++
		}
	}
	if sat == 0 || cycles == 0 || universals == 0 {
		t.Fatalf("%d sat, %d cycle cores, %d universal cores: want each > 0", sat, cycles, universals)
	}
}

// TestIsCycleCore: the certificate shape accepts simple cycles through a
// strict atom, in either walking direction and with equalities either way,
// and nothing else.
func TestIsCycleCore(t *testing.T) {
	a, b, c := V("a"), V("b"), V("c")
	for _, tc := range []struct {
		core []Assertion
		want bool
	}{
		{[]Assertion{{Rel: Lt, A: a, B: a}}, true},
		{[]Assertion{{Rel: Lt, A: a, B: b}, {Rel: Le, A: b, B: a}}, true},
		{[]Assertion{{Rel: Lt, A: a, B: b}, {Rel: Eq, A: a, B: b}}, true},
		{[]Assertion{{Rel: Le, A: a, B: b}, {Rel: Eq, A: c, B: b}, {Rel: Lt, A: c, B: a}}, true},
		{[]Assertion{{Rel: Le, A: a, B: b}, {Rel: Le, A: b, B: a}}, false}, // no strict atom
		{[]Assertion{{Rel: Lt, A: a, B: b}, {Rel: Lt, A: a, B: b}}, false}, // not a cycle
		{[]Assertion{{Rel: Lt, A: a, B: b}, {Rel: Lt, A: b, B: c}}, false}, // a path
		{[]Assertion{{Rel: Lt, A: a, B: a}, {Rel: Lt, A: b, B: b}}, false}, // two cycles
		{[]Assertion{{Rel: Lt, A: a, B: b}, {Rel: Lt, A: b, B: a}, {Rel: Lt, A: a, B: a}}, false},
	} {
		if got := isCycleCore(tc.core); got != tc.want {
			t.Errorf("isCycleCore(%s) = %v, want %v", formatCore(tc.core), got, tc.want)
		}
	}
}

// TestNativeRejectsOutsideFragment: Native reports an error naming the atom,
// with no verdict, for a constant side, an offset and an unsupported
// quantified shape; Emit and Parse still carry all three.
func TestNativeRejectsOutsideFragment(t *testing.T) {
	for _, tc := range []struct {
		name string
		atom Assertion
		want string
	}{
		{"constant", Assertion{Rel: Le, A: V("x"), B: C(3), Origin: "cap"}, "x <= 3"},
		{"offset", Assertion{Rel: Lt, A: V("x").Plus(2), B: V("y"), Origin: "gap"}, "x+2 < y"},
		{"quantified", Assertion{Rel: Lt, A: V("s"), B: V("t"), QuantVar: "s", Origin: "free"}, "∀s. s < t"},
	} {
		asserts := []Assertion{{Rel: Lt, A: V("x"), B: V("y")}, tc.atom}
		res, err := Native{}.Solve(context.Background(), asserts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(res, Result{}) {
			t.Errorf("%s: a verdict came with the error: %+v", tc.name, res)
		}
		c := NewContext()
		c.AssertAll(asserts)
		parsed, err := Parse(Emit(c))
		if err != nil || parsed.Len() != len(asserts) {
			t.Errorf("%s: Emit/Parse lost the atom: %v", tc.name, err)
		}
	}
}
