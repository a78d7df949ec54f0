package fsr

import (
	"context"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fsr/internal/algebra"
	"fsr/internal/analysis"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/analysis_parity.golden from the current code")

// TestAnalysisParityGolden pins what the algebra pipeline answers: for every
// built-in algebra, the custom-policy example's and the configuration
// language's, the strict and plain monotonicity checks' verdict, model, core
// positions and Stats (bar the clock and the loop effort), and the
// Session.Analyze report. Any change to the solver behind it must leave this
// file byte-identical.
func TestAnalysisParityGolden(t *testing.T) {
	ctx := context.Background()
	sess := NewSession()
	custom := configAlgebra(t, filepath.Join("examples", "custom-policy", "main.go"), "src")
	grA := configAlgebra(t, filepath.Join("internal", "config", "config_test.go"), "gaoRexfordSrc")
	algebras := []Algebra{
		algebra.HopCount{},
		algebra.IGPCost{Weights: []int{1, 5, 10}},
		algebra.IGPCost{Weights: []int{0, 3}},
		algebra.GaoRexfordA(),
		algebra.GaoRexfordB(),
		algebra.BackupRouting(1),
		algebra.BackupRouting(2),
		algebra.BackupRouting(3),
		algebra.GaoRexfordWithHopCount(),
		custom,
		Compose(custom, HopCount()),
		grA,
		Compose(grA, HopCount()),
	}
	var b strings.Builder
	for _, a := range algebras {
		fmt.Fprintf(&b, "== %s\n", a.Name())
		for _, check := range []func(context.Context, Algebra) (AnalysisResult, error){
			sess.CheckStrictMonotonicity, sess.CheckMonotonicity,
		} {
			res, err := check(ctx, a)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			writeParityResult(&b, res)
		}
		rep, err := sess.Analyze(ctx, a)
		if err != nil {
			fmt.Fprintf(&b, "analyze error: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "analyze: %s — %s\n", rep.Verdict, rep.Reason)
		for _, s := range rep.Steps {
			b.WriteString("  step ")
			writeParityResult(&b, s)
		}
	}
	path := filepath.Join("testdata", "analysis_parity.golden")
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-parity to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("analysis answers differ from %s:\n%s", path, got)
	}
}

// writeParityResult renders one check: verdict, sorted model, core
// positions and the Stats a solver must reproduce exactly.
func writeParityResult(b *strings.Builder, res analysis.Result) {
	st := res.Stats
	fmt.Fprintf(b, "%s/%s sat=%v prefs=%d monos=%d core=%v\n", res.Algebra, res.Condition, res.Sat,
		res.NumPreference, res.NumMonotonicity, res.CoreIdx)
	fmt.Fprintf(b, "    stats assertions=%d variables=%d edges=%d components=%d trivial=%d levels=%d width=%d\n",
		st.Assertions, st.Variables, st.Edges, st.Components, st.TrivialComponents, st.Levels, st.MaxLevelWidth)
	if len(res.Model) > 0 {
		keys := make([]string, 0, len(res.Model))
		for k := range res.Model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteString("    model")
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%d", k, res.Model[k])
		}
		b.WriteString("\n")
	}
	for _, c := range res.Core {
		fmt.Fprintf(b, "    core %s\n", c.Assertion)
	}
}

// configAlgebra parses the configuration text held by the string constant
// name in the Go file at path and returns its first algebra, so the golden
// follows the example as it is written.
func configAlgebra(t *testing.T, path, name string) Algebra {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var src string
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, id := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && id.Name == name {
					src, err = strconv.Unquote(lit.Value)
				}
			}
		}
		return src == ""
	})
	if src == "" || err != nil {
		t.Fatalf("%s: no string constant %s (%v)", path, name, err)
	}
	file, err := ParseConfig(src)
	if err != nil || len(file.Algebras) == 0 {
		t.Fatalf("%s: %s holds no algebra (%v)", path, name, err)
	}
	return file.Algebras[0]
}
