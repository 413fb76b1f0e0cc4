package parser_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/compat"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sema"
)

// FuzzParse feeds arbitrary input through the full parser. Parsing must
// either produce an AST or a positioned error — never panic — and any
// AST it accepts must format to text that parses back to the same tree,
// positions aside: the formatted text is the tree's identity (plan keys,
// the shard wire), so two trees must never share it. ast.Equal must
// agree with the reflective tree comparison, and the text must parse as
// a literal template too.
//
// Seeded with every conformance-suite query and every other committed
// fuzz corpus in the repository, so mutation explores the grammar's real
// surface, not just garbage rejection.
func FuzzParse(f *testing.F) {
	for _, c := range compat.Suite() {
		f.Add(c.Query)
	}
	for _, src := range corpusQueries(f, "testdata/fuzz/FuzzSema", "../lexer/testdata/fuzz/FuzzLexer", "../../testdata/fuzz/FuzzEvalPermissive") {
		f.Add(src)
	}
	f.Add("SELECT VALUE (FROM g AS v SELECT VALUE v) FROM t AS g")
	f.Add("PIVOT x.v AT x.k FROM t AS x")
	f.Add("PIVOT SUM(y) AT k FROM t AS x LET y = x.a * 2 WHERE x.a > 0 GROUP BY x.b AS k HAVING COUNT(*) > 0")
	f.Add("SELECT VALUE [(WITH a AS 1 SELECT VALUE a)]")
	f.Add("SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 2")
	f.Add("SELECT VALUE COLL_COUNT(g) FROM [] AS x GROUP BY () GROUP AS g")
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := parser.Parse(src)
		if err != nil {
			return
		}
		printed := ast.Format(tree)
		again, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own formatting %q: %v", src, printed, err)
		}
		if !parser.EqualTrees(tree, again) {
			t.Fatalf("%q formats to %q, which parses to another tree (formats to %q)", src, printed, ast.Format(again))
		}
		// ast.Equal agrees with the reflective comparison: on the reparse
		// (equal), and on the literal template's tree, which differs
		// exactly when the text has a numeric literal.
		if !ast.Equal(tree, again) || !ast.Equal(tree, ast.CloneExpr(tree)) {
			t.Fatalf("%q: ast.Equal rejects its own reparse or copy", src)
		}
		if tpl, err := parser.ParseTemplate(src); err != nil {
			t.Fatalf("%q parses but not as a template: %v", src, err)
		} else if ast.Equal(tree, tpl) != parser.EqualTrees(tree, tpl) {
			t.Fatalf("%q: ast.Equal says %v against its template tree, the reflective comparison %v",
				src, ast.Equal(tree, tpl), parser.EqualTrees(tree, tpl))
		}
	})
}

// corpusQueries reads the string inputs of committed fuzz corpus files.
func corpusQueries(tb testing.TB, dirs ...string) []string {
	var out []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(files) == 0 {
			tb.Fatalf("no fuzz corpus under %s: %v", dir, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				tb.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				lit, ok := strings.CutPrefix(line, "string(")
				if !ok {
					continue
				}
				src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					tb.Fatalf("%s: %v", file, err)
				}
				out = append(out, src)
			}
		}
	}
	return out
}

// FuzzSema pushes every parseable input through the static semantic
// analyzer, raw and (when it resolves against an empty catalog)
// rewritten to Core, in both typing modes. Analysis must never panic,
// and repeated runs over the same tree must return identical
// diagnostics — nondeterministic findings would break the plan cache,
// whose entries bake in the diagnostics computed at compile time.
//
// The binder must agree with the rewriter's resolution: on a Core the
// rewriter accepted, with and without SQL compatibility, sema reports no
// undefined or ungrouped variable and every free name is a template
// slot (the inputs declare no parameters).
func FuzzSema(f *testing.F) {
	for _, c := range compat.Suite() {
		f.Add(c.Query)
	}
	f.Add("FROM [1,2] AS x SELECT VALUE y")
	f.Add("FROM [1] AS e GROUP BY e.d AS d SELECT VALUE e.n")
	f.Add("SELECT VALUE 1 + 'a' || 2 FROM [1] AS dead")
	// Aggregate arguments whose nested blocks group, combine, or bind
	// the grouped variable again, and a sub-block in a window argument.
	const rows = "[{'g': 1, 'n': 2}, {'g': 1, 'n': 10}]"
	for _, arg := range []string{
		"(SELECT VALUE k FROM [1,2] AS x GROUP BY x + t.n AS k)",
		"(SELECT VALUE t.n UNION ALL SELECT VALUE 1)",
		"(SELECT VALUE t FROM [5] AS t)",
	} {
		f.Add("SELECT g, ARRAY_AGG(" + arg + ") AS m FROM " + rows + " AS t GROUP BY t.g AS g")
	}
	f.Add("SELECT t.n AS n, SUM(COLL_SUM(SELECT VALUE x FROM [1,2] AS x WHERE x < t.n)) OVER (ORDER BY t.n) AS s FROM " + rows + " AS t")
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := parser.Parse(src)
		if err != nil {
			return
		}
		for _, compatMode := range []bool{false, true} {
			core, err := rewrite.Rewrite(parser.MustParse(src), rewrite.Options{Compat: compatMode, Names: catalog.New()})
			if err != nil {
				continue
			}
			for _, d := range sema.Analyze(core, sema.Options{}) {
				if d.Code == sema.CodeUndefined || d.Code == sema.CodeUngrouped {
					t.Fatalf("the rewriter accepted %q (compat=%v) but sema reports %v\nCore: %s", src, compatMode, d, ast.Format(core))
				}
			}
			for name := range ast.FreeVars(core) {
				if _, slot := ast.SlotIndex(name); !slot {
					t.Fatalf("the rewriter accepted %q (compat=%v) but %q is free in its Core: %s", src, compatMode, name, ast.Format(core))
				}
			}
		}
		for _, strict := range []bool{false, true} {
			opts := sema.Options{StopOnError: strict}
			a := sema.Analyze(tree, opts)
			if b := sema.Analyze(tree, opts); !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic diagnostics for %q (strict=%v):\n%v\n%v", src, strict, a, b)
			}
			core, err := rewrite.Rewrite(tree, rewrite.Options{Names: catalog.New()})
			if err != nil {
				continue
			}
			a = sema.Analyze(core, opts)
			if b := sema.Analyze(core, opts); !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic Core diagnostics for %q (strict=%v):\n%v\n%v", src, strict, a, b)
			}
		}
	})
}
