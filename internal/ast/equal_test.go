package ast_test

import (
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/parser"
)

func TestEqual(t *testing.T) {
	same := []string{
		"SELECT e.name AS n FROM emp AS e WHERE e.id = 7 ORDER BY e.name LIMIT 3",
		"FROM t AS x GROUP BY x.a AS a GROUP AS g SELECT a AS a, COLL_COUNT(g) AS n",
		"SELECT VALUE x IN [1, 2] FROM t AS x",
		"SELECT RANK() OVER (PARTITION BY x.a ORDER BY x.b DESC NULLS FIRST) AS r FROM t AS x",
		"WITH w AS (SELECT VALUE 1) SELECT VALUE v FROM w AS v JOIN u AS y ON v = y.k",
	}
	for _, src := range same {
		a, b := parser.MustParse(src), parser.MustParse("  "+src)
		if !ast.Equal(a, b) {
			t.Errorf("%q: positions must not matter", src)
		}
		if !ast.Equal(a, ast.CloneExpr(a)) {
			t.Errorf("%q: a copy must be equal", src)
		}
	}
	differ := [][2]string{
		{"SELECT VALUE 1", "SELECT VALUE 1.0"},
		{"SELECT VALUE 1", "SELECT VALUE 2"},
		{"SELECT VALUE 'a'", "SELECT VALUE 'b'"},
		{"SELECT VALUE x FROM t AS x", "SELECT VALUE x FROM t AS y"},
		{"SELECT VALUE x IN [1] FROM t AS x", "SELECT VALUE x IN (1) FROM t AS x"},
		{"SELECT VALUE x IN [1] FROM t AS x", "SELECT VALUE x NOT IN [1] FROM t AS x"},
		{"SELECT x.a AS a FROM t AS x ORDER BY a", "SELECT x.a AS a FROM t AS x ORDER BY a DESC"},
		{"SELECT x.a AS a FROM t AS x ORDER BY a", "SELECT x.a AS a FROM t AS x ORDER BY a NULLS FIRST"},
		{"SELECT VALUE 1 UNION SELECT VALUE 2", "SELECT VALUE 1 UNION ALL SELECT VALUE 2"},
		{"SELECT x.a FROM t AS x", "FROM t AS x SELECT x.a"},
	}
	for _, p := range differ {
		if ast.Equal(parser.MustParse(p[0]), parser.MustParse(p[1])) {
			t.Errorf("%q and %q must differ", p[0], p[1])
		}
	}
}

// TestEqualIgnoresPhys: the physical annotation is not part of the query.
func TestEqualIgnoresPhys(t *testing.T) {
	a := parser.MustParse("SELECT VALUE x FROM t AS x").(*ast.SFW)
	b := ast.CloneExpr(a).(*ast.SFW)
	a.Phys = struct{}{}
	if !ast.Equal(a, b) {
		t.Error("Phys changed equality")
	}
}

func TestSlotNames(t *testing.T) {
	for _, i := range []int{0, 1, 9, 31, 32, 1234} {
		if got, ok := ast.SlotIndex(ast.SlotName(i)); !ok || got != i {
			t.Errorf("slot %d round-trips to %d, %v", i, got, ok)
		}
	}
	for _, name := range []string{"#", "#01", "#x", "0", "x", "#1a", "$1"} {
		if _, ok := ast.SlotIndex(name); ok {
			t.Errorf("%q is no slot name", name)
		}
	}
	tpl, err := parser.ParseTemplate("SELECT VALUE [x.a[0], 2.5, 'three'] FROM t AS x LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ast.Format(tpl), `SELECT VALUE [x.a["#0"], "#1", 'three'] FROM t AS x LIMIT "#2"`; got != want {
		t.Errorf("template tree %s, want %s", got, want)
	}
}
