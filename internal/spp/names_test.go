package spp_test

import (
	"reflect"
	"testing"

	"fsr/internal/analysis"
	"fsr/internal/spp"
)

// nameEdgeCases are instances built by direct field assignment, which
// AddNode's dedupe would not let exist: a node name listed twice in Nodes,
// rankings and links whose ends are not declared, paths through an
// undeclared node. validate is the error text Validate reports ("" for
// none).
func nameEdgeCases() []struct {
	in       *spp.Instance
	validate string
} {
	build := func(name string, nodes []spp.Node, links []spp.Link, permitted map[spp.Node][]spp.Path) *spp.Instance {
		in := spp.NewInstance(name)
		in.Nodes, in.Links, in.Origins = nodes, links, []spp.Node{"r1", "r2"}
		in.Permitted = permitted
		return in
	}
	session := func(a, b spp.Node) []spp.Link { return []spp.Link{{From: a, To: b}, {From: b, To: a}} }
	cat := func(ls ...[]spp.Link) (out []spp.Link) {
		for _, l := range ls {
			out = append(out, l...)
		}
		return out
	}
	return []struct {
		in       *spp.Instance
		validate string
	}{
		// a is listed twice, ranks a path, ends two sessions and is an
		// interior hop of b's and c's paths: two positions hold one ranking,
		// which ToAlgebra reads as a duplicate permitted path.
		{build("repeated-ranked", []spp.Node{"a", "b", "c", "a"}, cat(session("a", "b"), session("b", "c")),
			map[spp.Node][]spp.Path{
				"a": {{"a", "r1"}},
				"b": {{"b", "a", "r1"}, {"b", "r2"}},
				"c": {{"c", "b", "a", "r1"}, {"c", "b", "r2"}},
			}), ""},
		// The same shape with a's ranking empty: the instance has an
		// algebra, and the paths through a have no permitted tail there, so
		// the emitter cannot prove them from their tails.
		{build("repeated-empty-ranking", []spp.Node{"a", "b", "c", "a"}, cat(session("a", "b"), session("b", "c")),
			map[spp.Node][]spp.Path{
				"a": {},
				"b": {{"b", "a", "r1"}, {"b", "r2"}},
				"c": {{"c", "b", "a", "r1"}, {"c", "b", "r2"}},
			}), ""},
		// z ranks a path but is not declared, while a repeated a makes the
		// declared nodes with a ranking as many as the rankings.
		{build("undeclared-ranking-beside-repeat", []spp.Node{"a", "b", "a"}, session("a", "b"),
			map[spp.Node][]spp.Path{
				"a": {},
				"b": {{"b", "r1"}},
				"z": {{"z", "r2"}},
			}), "spp undeclared-ranking-beside-repeat: ranking for undeclared node z"},
		// A session to a node nobody declared: its links carry labels but
		// no permitted extension.
		{build("undeclared-link-end", []spp.Node{"a", "b"}, cat(session("a", "b"), session("a", "x")),
			map[spp.Node][]spp.Path{
				"a": {{"a", "r1"}},
				"b": {{"b", "a", "r1"}, {"b", "r2"}},
			}), ""},
		// A path over that session crosses the undeclared node.
		{build("crosses-undeclared", []spp.Node{"a", "b"}, cat(session("a", "b"), session("a", "x")),
			map[spp.Node][]spp.Path{
				"a": {{"a", "r1"}},
				"b": {{"b", "a", "x", "r1"}, {"b", "r2"}},
			}), "spp crosses-undeclared: node b: path baxr1 crosses undeclared node x"},
		// Only x→a is listed, so the hop a→x is missing although both ends
		// have a link between them.
		{build("one-way-undeclared", []spp.Node{"a", "b"}, cat(session("a", "b"), []spp.Link{{From: "x", To: "a"}}),
			map[spp.Node][]spp.Path{
				"a": {{"a", "r1"}},
				"b": {{"b", "a", "x", "r1"}, {"b", "r2"}},
			}), "spp one-way-undeclared: node b: path baxr1 uses missing link a→x"},
		// A hop to an undeclared node with no link at all.
		{build("missing-undeclared-hop", []spp.Node{"a", "b"}, session("a", "b"),
			map[spp.Node][]spp.Path{
				"a": {{"a", "y", "r1"}, {"a", "r1"}},
				"b": {{"b", "r2"}},
			}), "spp missing-undeclared-hop: node a: path ayr1 uses missing link a→y"},
	}
}

// TestRepeatedAndUndeclaredNames pins what every entry point makes of
// repeated and undeclared names: Validate's exact error text; Analyze,
// ShardedConstraints and NewTable as the algebra pipeline answers or
// rejects; NewDeltaVerifier as Validate rejects, and, once built, its
// Verify against VerifyFull before and inside a transaction that declares
// a node and re-ranks the repeated one, and after rolling it back.
func TestRepeatedAndUndeclaredNames(t *testing.T) {
	for _, tc := range nameEdgeCases() {
		in := tc.in
		t.Run(in.Name, func(t *testing.T) {
			err := in.Validate()
			if got := errText(err); got != tc.validate {
				t.Fatalf("Validate: %q, want %q", got, tc.validate)
			}
			requireOracleParity(t, in)

			conv, convErr := in.ToAlgebra()
			cons, _, err := spp.ShardedConstraints(in, 0)
			if errText(err) != errText(convErr) {
				t.Fatalf("ShardedConstraints: error %v, ToAlgebra %v", err, convErr)
			}
			if convErr == nil {
				want, err := analysis.Constraints(conv.Algebra, analysis.StrictMonotonicity)
				if err != nil || !reflect.DeepEqual(cons, want) {
					t.Fatalf("ShardedConstraints:\n%+v\nanalysis.Constraints (err %v):\n%+v", cons, err, want)
				}
			}
			if _, err := spp.NewTable(in); errText(err) != errText(convErr) {
				t.Fatalf("NewTable: error %v, ToAlgebra %v", err, convErr)
			}

			v, err := spp.NewDeltaVerifier(in)
			if errText(err) != tc.validate {
				t.Fatalf("NewDeltaVerifier: error %v, want %q", err, tc.validate)
			}
			if err != nil {
				return
			}
			spp.RequireVerifyParity(t, "loaded", v)
			v.Begin()
			if err := v.AddSession("a", "fresh", 0); err != nil {
				t.Fatal(err)
			}
			if err := v.ReRank("fresh", spp.Path{"fresh", "a", "r1"}, spp.Path{"fresh", "r2"}); err != nil {
				t.Fatal(err)
			}
			if err := v.ReRank("a", spp.Path{"a", "fresh", "r2"}, spp.Path{"a", "r1"}); err != nil {
				t.Fatal(err)
			}
			spp.RequireVerifyParity(t, "inside the transaction", v)
			v.Rollback()
			spp.RequireVerifyParity(t, "rolled back", v)
			if got := v.Snapshot(); !reflect.DeepEqual(got.Nodes, in.Nodes) {
				t.Fatalf("rolled back to nodes %v, loaded %v", got.Nodes, in.Nodes)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
