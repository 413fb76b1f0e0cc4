package parser

import (
	"reflect"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/lexer"
	"sqlpp/internal/value"
)

// EqualTrees reports whether two syntax trees are equal, ignoring
// source positions. Exported for the external fuzz tests.
func EqualTrees(a, b ast.Expr) bool {
	return equalIgnoringPos(reflect.ValueOf(a), reflect.ValueOf(b))
}

var posType = reflect.TypeOf(lexer.Pos{})

func equalIgnoringPos(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() || a.Type() != b.Type() {
		return a.IsValid() == b.IsValid() && (!a.IsValid() || a.Type() == b.Type())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalIgnoringPos(a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() == posType {
			return true
		}
		for i := 0; i < a.NumField(); i++ {
			if !equalIgnoringPos(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalIgnoringPos(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// roundTrip parses src, formats the tree and parses that again; the two
// trees must be equal.
func roundTrip(t *testing.T, src string) string {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	printed := ast.Format(e)
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("Parse(%q) formats to %q, which does not parse: %v", src, printed, err)
	}
	if !EqualTrees(e, again) {
		t.Errorf("Parse(%q) formats to %q, which parses to another tree", src, printed)
	}
	return printed
}

// TestParseFormatFixpoint checks that formatting a parsed query yields
// text that parses back to the same tree, for a broad sample of the
// grammar.
func TestParseFormatFixpoint(t *testing.T) {
	queries := []string{
		`SELECT e.name AS emp_name, p.name AS proj_name FROM hr.emp AS e, e.projects AS p WHERE p.name LIKE '%Security%'`,
		`SELECT VALUE {'a': 1, 'b': [1, 2], 'c': <<3>>}`,
		`FROM t AS x WHERE x.a > 1 GROUP BY LOWER(x.b) AS b GROUP AS g HAVING COUNT(*) > 2 SELECT b AS b ORDER BY b DESC NULLS LAST LIMIT 10 OFFSET 2`,
		`SELECT * FROM t AS x`,
		`SELECT x.* , 1 AS one FROM t AS x`,
		`SELECT DISTINCT x.a FROM t AS x`,
		`PIVOT sp.price AT sp.symbol FROM prices AS sp WHERE sp.price > 0`,
		`SELECT c."date" AS "date", sym AS symbol FROM closing_prices AS c, UNPIVOT c AS price AT sym`,
		`SELECT a.x FROM t AS a LEFT JOIN u AS b ON a.id = b.id`,
		`SELECT a.x FROM t AS a CROSS JOIN u AS b`,
		`SELECT VALUE CASE WHEN x.a IS NOT NULL THEN 1 ELSE 2 END FROM t AS x`,
		`SELECT VALUE CASE x.k WHEN 1 THEN 'one' END FROM t AS x`,
		`SELECT VALUE x.a BETWEEN 1 AND 10 FROM t AS x`,
		`SELECT VALUE x.a NOT IN (1, 2, 3) FROM t AS x`,
		`SELECT VALUE x.a IN (SELECT VALUE y.b FROM u AS y) FROM t AS x`,
		`SELECT VALUE x.a IN (SELECT VALUE 1 UNION SELECT VALUE 2 UNION SELECT VALUE 3) FROM t AS x`,
		`SELECT VALUE EXISTS (SELECT VALUE 1 FROM u AS y) FROM t AS x`,
		`SELECT VALUE NOT (x.a OR x.b) AND x.c FROM t AS x`,
		`SELECT VALUE -x.a * (x.b + 2) % 3 FROM t AS x`,
		`SELECT VALUE x.a || '-' || x.b FROM t AS x`,
		`SELECT VALUE t.items[0].name FROM orders AS t`,
		`SELECT VALUE t.items[t.i + 1] FROM orders AS t`,
		`(SELECT VALUE a.x FROM t AS a) UNION ALL (SELECT VALUE b.y FROM u AS b)`,
		`SELECT VALUE 1 UNION (SELECT VALUE 2 UNION SELECT VALUE 3)`,
		`(WITH w AS 1 SELECT VALUE w) EXCEPT SELECT VALUE 2`,
		`SELECT VALUE x.a FROM t AS x AT i`,
		`SELECT VALUE v FROM t AS x LET v = x.a * 2 WHERE v > 3`,
		`SELECT VALUE x.a IS MISSING FROM t AS x`,
		`SELECT VALUE x.a LIKE '%a\%' ESCAPE '\' FROM t AS x`,
		`SELECT VALUE CAST(x.a AS INT) FROM t AS x`,
		`SELECT VALUE CAST(x.a AS "my type") FROM t AS x`,
		`SELECT VALUE COLL_AVG(SELECT VALUE y.s FROM x.ys AS y) FROM t AS x`,
		`SELECT x.a, ROW_NUMBER() OVER (PARTITION BY x.k ORDER BY x.a DESC) AS rn FROM t AS x`,
		`SELECT VALUE SUM(x.a) OVER (ORDER BY x.b NULLS LAST) FROM t AS x`,
		`WITH c AS (SELECT VALUE x.a FROM t AS x), d AS (SELECT VALUE 1) SELECT VALUE y FROM c AS y`,
		`WITH a AS (x) (1 + 2) * 3`,
		`SELECT VALUE x.a > ALL (SELECT VALUE y.b FROM u AS y) FROM t AS x`,
		`SELECT VALUE x.a = ANY [1, 2] FROM t AS x`,
		`SELECT VALUE x.a = ANY (1 + 2) FROM t AS x`,
		`SELECT VALUE x.a = (any) FROM t AS x`,
		`SELECT VALUE {(a): 1, 'b' || 'c': (EXISTS x).y} FROM t AS x`,
		`SELECT VALUE {({}): 1} FROM t AS x`,
		`SELECT VALUE (NOT x.a) = x.b AND x.a = (x.b IS NULL) FROM t AS x`,
		`SELECT - -x.n AS a, (-x.n).a AS b, -(x.n.a) AS c, 1 - (2 - 3) AS d FROM t AS x`,
	}
	for _, q := range queries {
		roundTrip(t, q)
	}
}

// TestPrecedence checks the tree each source builds against the same
// expression written with every group parenthesized.
func TestPrecedence(t *testing.T) {
	cases := []struct {
		src, grouped string
	}{
		{"1 + 2 * 3", "1 + (2 * 3)"},
		{"1 * 2 + 3", "(1 * 2) + 3"},
		{"1 - 2 - 3", "(1 - 2) - 3"},
		{"a = 1 AND b = 2 OR c = 3", "((a = 1) AND (b = 2)) OR (c = 3)"},
		{"NOT a = 1", "NOT (a = 1)"},
		{"NOT a AND b", "(NOT a) AND b"},
		{"a AND NOT b OR c", "(a AND (NOT b)) OR c"},
		{"- 2 + 3", "(-2) + 3"},
		{"-x.a * 2", "(-(x.a)) * 2"},
		{"EXISTS x.a + 1", "(EXISTS (x.a)) + 1"},
		{"'a' || 'b' = 'ab'", "('a' || 'b') = 'ab'"},
		{"1 < 2 = true", "(1 < 2) = true"},
		{"a = b IS NULL", "(a = b) IS NULL"},
		{"a LIKE b || c ESCAPE d", "a LIKE (b || c) ESCAPE d"},
		{"a BETWEEN b + 1 AND c AND d", "(a BETWEEN (b + 1) AND c) AND d"},
		{"a IN b || c = d", "(a IN b || c) = d"},
		{"a = ANY b || c", "a = ANY (b || c)"},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if !EqualTrees(got, MustParse(c.grouped)) {
			t.Errorf("Parse(%q) = %s, want the tree of %s", c.src, ast.Format(got), c.grouped)
		}
	}
	if e := MustParse("1 != 2").(*ast.Binary); e.Op != "<>" {
		t.Errorf("!= parses as %q, want <>", e.Op)
	}
}

// TestFormatParenthesizesExactlyWhereNeeded pins the printed text: a
// child is parenthesized only when the parser would otherwise build
// another tree.
func TestFormatParenthesizesExactlyWhereNeeded(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"1 + (2 * 3)", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"1 - (2 - 3)", "1 - (2 - 3)"},
		{"(NOT a) = b", "(NOT a) = b"},
		{"NOT (a = b)", "NOT a = b"},
		{"a = (b IS NULL)", "a = (b IS NULL)"},
		{"(-x).a", "(-x).a"},
		{"-(x.a)", "-x.a"},
		{"- -x", "- -x"},
		{"a - -b", "a - -b"},
		{"WITH A AS A 0%''", "WITH A AS A 0 % ''"},
		{"SELECT 00IN 00%A(0)", "SELECT 0 IN 0 % A(0)"},
		{"(SELECT VALUE 1)", "SELECT VALUE 1"},
		{"(SELECT VALUE 1) UNION ALL (SELECT VALUE 2)", "SELECT VALUE 1 UNION ALL SELECT VALUE 2"},
		{"x IN (SELECT VALUE 1 UNION SELECT VALUE 2)", "x IN (SELECT VALUE 1 UNION SELECT VALUE 2)"},
		{"COLL_SUM(SELECT VALUE v FROM g AS v)", "COLL_SUM((SELECT VALUE v FROM g AS v))"},
	}
	for _, c := range cases {
		if got := roundTrip(t, c.src); got != c.want {
			t.Errorf("Parse(%q) formats to %s, want %s", c.src, got, c.want)
		}
	}
}

func TestSelectLastBlock(t *testing.T) {
	e := MustParse(`FROM t AS x WHERE x.a SELECT VALUE x.b`)
	q, ok := e.(*ast.SFW)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if !q.SelectLast {
		t.Error("SelectLast should be recorded")
	}
	if q.Select.Value == nil {
		t.Error("SELECT VALUE expected")
	}
}

func TestImplicitAliases(t *testing.T) {
	e := MustParse(`SELECT e.name, salary FROM hr.emp AS e`)
	q := e.(*ast.SFW)
	if q.Select.Items[0].Alias != "name" {
		t.Errorf("path item alias = %q, want name", q.Select.Items[0].Alias)
	}
	if q.Select.Items[1].Alias != "salary" {
		t.Errorf("bare item alias = %q, want salary", q.Select.Items[1].Alias)
	}
	// Unaliased FROM path derives the last segment.
	e2 := MustParse(`SELECT VALUE 1 FROM hr.emp`)
	q2 := e2.(*ast.SFW)
	if q2.From[0].(*ast.FromExpr).As != "emp" {
		t.Errorf("implicit FROM alias = %q, want emp", q2.From[0].(*ast.FromExpr).As)
	}
	// Bare alias without AS.
	e3 := MustParse(`SELECT VALUE 1 FROM closing_prices c`)
	q3 := e3.(*ast.SFW)
	if q3.From[0].(*ast.FromExpr).As != "c" {
		t.Errorf("bare FROM alias = %q, want c", q3.From[0].(*ast.FromExpr).As)
	}
}

func TestLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"1", value.Int(1)},
		{"1.5", value.Float(1.5)},
		{"'x'", value.String("x")},
		{"TRUE", value.True},
		{"null", value.Null},
		{"MISSING", value.Missing},
		{"9223372036854775808", value.Float(9.223372036854776e18)}, // int64 overflow
	}
	for _, c := range cases {
		e := MustParse(c.src)
		lit, ok := e.(*ast.Literal)
		if !ok {
			t.Errorf("Parse(%q) = %T, want literal", c.src, e)
			continue
		}
		if !value.DeepEqual(lit.Val, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.src, lit.Val, c.want)
		}
	}
}

func TestBagConstructors(t *testing.T) {
	for _, src := range []string{"{{1, 2}}", "<<1, 2>>"} {
		e := MustParse(src)
		bag, ok := e.(*ast.BagCtor)
		if !ok || len(bag.Elems) != 2 {
			t.Errorf("Parse(%q) = %#v", src, e)
		}
	}
	if _, ok := MustParse("{{}}").(*ast.BagCtor); !ok {
		t.Error("empty doubled-brace bag should parse")
	}
	// Single braces with name:value is a tuple.
	if _, ok := MustParse("{'a': 1}").(*ast.TupleCtor); !ok {
		t.Error("tuple constructor expected")
	}
}

func TestCountStarAndDistinctArg(t *testing.T) {
	e := MustParse("COUNT(*)")
	c := e.(*ast.Call)
	if !c.Star || c.Name != "COUNT" {
		t.Errorf("COUNT(*) = %+v", c)
	}
	e2 := MustParse("COUNT(DISTINCT x)")
	c2 := e2.(*ast.Call)
	if !c2.Distinct || len(c2.Args) != 1 {
		t.Errorf("COUNT(DISTINCT x) = %+v", c2)
	}
}

func TestGroupByGroupAs(t *testing.T) {
	e := MustParse(`FROM t AS x GROUP BY LOWER(x.p) AS p, x.q GROUP AS g SELECT VALUE p`)
	q := e.(*ast.SFW)
	if q.GroupBy == nil || len(q.GroupBy.Keys) != 2 {
		t.Fatalf("group by = %+v", q.GroupBy)
	}
	if q.GroupBy.Keys[0].Alias != "p" || q.GroupBy.Keys[1].Alias != "" {
		t.Errorf("key aliases = %q, %q", q.GroupBy.Keys[0].Alias, q.GroupBy.Keys[1].Alias)
	}
	if q.GroupBy.GroupAs != "g" {
		t.Errorf("GROUP AS = %q", q.GroupBy.GroupAs)
	}
}

func TestKeywordsAsAttributeNames(t *testing.T) {
	// Keywords after '.' act as attribute names (lower-cased).
	e := MustParse(`SELECT VALUE t.value FROM u AS t`)
	q := e.(*ast.SFW)
	fa := q.Select.Value.(*ast.FieldAccess)
	if fa.Name != "value" {
		t.Errorf("attribute name = %q", fa.Name)
	}
	// Quoted identifiers preserve case and reservation.
	e2 := MustParse(`SELECT VALUE t."DATE" FROM u AS t`)
	fa2 := e2.(*ast.SFW).Select.Value.(*ast.FieldAccess)
	if fa2.Name != "DATE" {
		t.Errorf("quoted attribute name = %q", fa2.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"SELECT",                        // missing items
		"SELECT 1 FROM",                 // missing FROM item
		"FROM t AS x",                   // FROM-first block without SELECT
		"SELECT 1 FROM t AS x WHERE",    // missing condition
		"SELECT 1 extra garbage ,",      // trailing junk
		"SELECT VALUE (1",               // unbalanced paren
		"SELECT VALUE {\"a\" 1}",        // missing colon
		"SELECT VALUE CASE END",         // CASE without WHEN
		"SELECT VALUE x NOT 5",          // NOT without LIKE/BETWEEN/IN
		"SELECT VALUE 1 ORDER BY",       // incomplete ORDER BY
		"SELECT VALUE a.b. FROM t",      // dangling dot
		"PIVOT a.b AT a.c",              // PIVOT without FROM
		"SELECT 1 FROM t AS x GROUP BY", // incomplete GROUP BY
		"SELECT VALUE [1, ",             // unterminated array
		"SELECT VALUE x IS NULL * 2",    // a tighter operator after a closed predicate
		"SELECT VALUE x IN (1) + 1",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("SELECT VALUE x FROM t AS x WHERE !!")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "1:34") {
		t.Errorf("error should carry position 1:34: %v", err)
	}
}

func TestSemicolonTolerated(t *testing.T) {
	if _, err := Parse("SELECT VALUE 1;"); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
	if _, err := Parse("SELECT VALUE 1; SELECT VALUE 2"); err == nil {
		t.Error("two statements should not parse as one query")
	}
}

func TestSetOps(t *testing.T) {
	e := MustParse(`SELECT VALUE 1 UNION SELECT VALUE 2 EXCEPT SELECT VALUE 3`)
	top, ok := e.(*ast.SetOp)
	if !ok || top.Op != "EXCEPT" {
		t.Fatalf("top = %#v", e)
	}
	left, ok := top.L.(*ast.SetOp)
	if !ok || left.Op != "UNION" {
		t.Fatalf("set ops should be left-associative, got %#v", top.L)
	}
	e2 := MustParse(`SELECT VALUE 1 UNION ALL SELECT VALUE 2`)
	if !e2.(*ast.SetOp).All {
		t.Error("UNION ALL should set All")
	}
}

func TestPivotBlockShape(t *testing.T) {
	e := MustParse(`PIVOT dp.price AT dp.symbol FROM dates AS dp WHERE dp.price > 0 GROUP BY dp.k AS k`)
	p, ok := e.(*ast.SFW)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if p.Select.PivotAt == nil || p.Select.Value == nil || p.Where == nil || p.GroupBy == nil || len(p.From) != 1 {
		t.Errorf("pivot pieces missing: %+v", p)
	}
}
