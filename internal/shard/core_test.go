package shard

import (
	"testing"

	"sqlpp"
	"sqlpp/internal/ast"
	"sqlpp/internal/compat"
	"sqlpp/internal/value"
)

// TestCoreIsAFixpoint: Core is a language. The splitter sends its shard
// and merge queries as printed Core, so a node that parses and rewrites
// a printed Core must get the tree that was printed back, and answer what
// the original text answers. Every conformance case (the paper's 28
// listings among them) and every property query is checked in both
// compatibility modes. A window's printed form is not yet Core (ROADMAP
// item 18): windowed queries are skipped by name, and the splitter sends
// them to gather.
func TestCoreIsAFixpoint(t *testing.T) {
	type fixCase struct {
		name   string
		data   map[string]value.Value
		query  string
		strict bool
	}
	var cases []fixCase
	for _, c := range compat.Suite() {
		cases = append(cases, fixCase{c.Name, c.Data, c.Query, c.Strict})
	}
	for _, q := range propertyQueries {
		cases = append(cases, fixCase{"property", map[string]value.Value{"data": sqlpp.MustParseValue(fuzzCatalog)}, q, false})
	}
	checked := 0
	for _, c := range cases {
		for _, compatMode := range []bool{false, true} {
			eng := sqlpp.New(&sqlpp.Options{Compat: compatMode, StopOnError: c.strict})
			for name, v := range c.data {
				if err := eng.Register(name, v); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			core, err := eng.Rewrite(c.query, nil)
			if err != nil {
				continue
			}
			if hasWindows(core) {
				t.Logf("%s (compat=%v): windowed, skipped (ROADMAP item 18)", c.name, compatMode)
				continue
			}
			text := ast.Format(core)
			again, err := eng.Rewrite(text, nil)
			if err != nil {
				t.Errorf("%s (compat=%v): Core does not re-rewrite: %v\n core %s", c.name, compatMode, err, text)
				continue
			}
			if !ast.Equal(again, core) {
				t.Errorf("%s (compat=%v): Core is not a fixpoint\n core  %s\n again %s", c.name, compatMode, text, ast.Format(again))
				continue
			}
			want, werr := eng.Query(c.query)
			got, gerr := eng.Query(text)
			if (werr != nil) != (gerr != nil) {
				t.Errorf("%s (compat=%v): query err=%v, Core err=%v", c.name, compatMode, werr, gerr)
				continue
			}
			if werr == nil && got.String() != want.String() {
				t.Errorf("%s (compat=%v): Core answers %s, query %s", c.name, compatMode, got, want)
			}
			checked++
		}
	}
	t.Logf("%d case-modes re-prepare to themselves", checked)
}
