package rewrite

import (
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/parser"
)

// nameSet is a static catalog for tests.
type nameSet map[string]bool

func (n nameSet) HasName(name string) bool { return n[name] }

// attrOracle is a static schema oracle.
type attrOracle map[string]map[string]bool

func (o attrOracle) VarHasAttr(src, attr string) (bool, bool) {
	attrs, ok := o[src]
	if !ok {
		return false, false
	}
	has, known := attrs[attr]
	return has, known
}

func rewriteQuery(t *testing.T, src string, opts Options) (string, error) {
	t.Helper()
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	out, err := Rewrite(tree, opts)
	if err != nil {
		return "", err
	}
	return ast.Format(out), nil
}

func mustRewrite(t *testing.T, src string, opts Options) string {
	t.Helper()
	got, err := rewriteQuery(t, src, opts)
	if err != nil {
		t.Fatalf("rewrite %q: %v", src, err)
	}
	return got
}

var hrNames = nameSet{"hr.emp": true, "t": true, "u": true}

func TestSelectSugarLowering(t *testing.T) {
	got := mustRewrite(t, "SELECT e.name AS n, e.id FROM hr.emp AS e", Options{Names: hrNames})
	want := "SELECT VALUE {'n': e.name, 'id': e.id} FROM hr.emp AS e"
	if got != want {
		t.Errorf("lowered to %s, want %s", got, want)
	}
}

func TestPositionalNames(t *testing.T) {
	got := mustRewrite(t, "SELECT e.a + 1, e.b FROM t AS e", Options{Names: hrNames})
	if !strings.Contains(got, "'_1': e.a + 1") {
		t.Errorf("unaliased computed item should get a positional name: %s", got)
	}
}

func TestNamedValueResolution(t *testing.T) {
	// Longest dotted prefix wins; trailing steps stay navigation.
	names := nameSet{"hr.emp": true, "hr": true}
	got := mustRewrite(t, "SELECT VALUE 1 FROM hr.emp.history AS h", Options{Names: names})
	if !strings.Contains(got, "hr.emp.history AS h") {
		t.Errorf("resolution result: %s", got)
	}
	tree := parser.MustParse("SELECT VALUE 1 FROM hr.emp.history AS h")
	out, err := Rewrite(tree, Options{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	from := out.(*ast.SFW).From[0].(*ast.FromExpr)
	fa, ok := from.Expr.(*ast.FieldAccess)
	if !ok {
		t.Fatalf("FROM expr is %T, want FieldAccess over NamedRef", from.Expr)
	}
	ref, ok := fa.Base.(*ast.NamedRef)
	if !ok || ref.Name != "hr.emp" {
		t.Errorf("base = %#v, want NamedRef hr.emp", fa.Base)
	}
}

func TestScopeShadowsCatalog(t *testing.T) {
	// A FROM alias named like a catalog value shadows it.
	tree := parser.MustParse("SELECT VALUE t.a FROM u AS t")
	out, err := Rewrite(tree, Options{Names: hrNames})
	if err != nil {
		t.Fatal(err)
	}
	val := out.(*ast.SFW).Select.Value.(*ast.FieldAccess)
	if _, ok := val.Base.(*ast.VarRef); !ok {
		t.Errorf("t should resolve to the range variable, got %T", val.Base)
	}
}

func TestImplicitQualification(t *testing.T) {
	got := mustRewrite(t, "SELECT name FROM t WHERE salary > 10", Options{Names: hrNames})
	if !strings.Contains(got, "t.name") || !strings.Contains(got, "t.salary") {
		t.Errorf("unqualified names should qualify against the single range variable: %s", got)
	}
}

func TestAmbiguousQualification(t *testing.T) {
	_, err := rewriteQuery(t, "SELECT name FROM t AS a, u AS b", Options{Names: hrNames})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("two range variables without schema should be ambiguous, got %v", err)
	}
}

func TestSchemaDisambiguation(t *testing.T) {
	oracle := attrOracle{
		"t": {"name": true},
		"u": {"name": false},
	}
	got, err := rewriteQuery(t, "SELECT name FROM t AS a, u AS b",
		Options{Names: hrNames, Schema: oracle})
	if err != nil {
		t.Fatalf("schema should disambiguate: %v", err)
	}
	if !strings.Contains(got, "a.name") {
		t.Errorf("name should qualify to a (schema says t has it): %s", got)
	}
}

func TestUnresolvedName(t *testing.T) {
	_, err := rewriteQuery(t, "SELECT VALUE nowhere", Options{Names: hrNames})
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("want unresolved-name error, got %v", err)
	}
}

func TestAggregateRewriting(t *testing.T) {
	got := mustRewrite(t, `
		SELECT e.deptno, AVG(e.salary) AS avgsal
		FROM hr.emp AS e GROUP BY e.deptno`, Options{Names: hrNames})
	for _, frag := range []string{"COLL_AVG(", "SELECT VALUE", ".e.salary", "GROUP AS"} {
		if !strings.Contains(got, frag) {
			t.Errorf("rewriting should contain %q: %s", frag, got)
		}
	}
	// The group key reference becomes the key alias.
	if !strings.Contains(got, "'deptno': deptno") {
		t.Errorf("group key should be replaced by its alias: %s", got)
	}
}

func TestCountStarRewriting(t *testing.T) {
	got := mustRewrite(t, "SELECT COUNT(*) AS n FROM t AS e", Options{Names: hrNames})
	if !strings.Contains(got, "COLL_COUNT(") {
		t.Errorf("COUNT(*) should lower to COLL_COUNT over the group: %s", got)
	}
	// Implicit single group: a GROUP BY with no keys is synthesized.
	tree := parser.MustParse("SELECT COUNT(*) AS n FROM t AS e")
	out, err := Rewrite(tree, Options{Names: hrNames})
	if err != nil {
		t.Fatal(err)
	}
	q := out.(*ast.SFW)
	if q.GroupBy == nil || len(q.GroupBy.Keys) != 0 || q.GroupBy.GroupAs == "" {
		t.Errorf("implicit grouping not synthesized: %+v", q.GroupBy)
	}
}

func TestDistinctAggregate(t *testing.T) {
	got := mustRewrite(t, "SELECT COUNT(DISTINCT e.d) AS n FROM t AS e", Options{Names: hrNames})
	if !strings.Contains(got, "$DISTINCT(") {
		t.Errorf("DISTINCT aggregate argument should wrap with $DISTINCT: %s", got)
	}
}

func TestHavingAndOrderByAggregates(t *testing.T) {
	got := mustRewrite(t, `
		SELECT e.k FROM t AS e GROUP BY e.k
		HAVING COUNT(*) > 1
		ORDER BY SUM(e.v) DESC`, Options{Names: hrNames})
	if !strings.Contains(got, "COLL_COUNT(") || !strings.Contains(got, "COLL_SUM(") {
		t.Errorf("HAVING/ORDER BY aggregates should rewrite: %s", got)
	}
}

func TestStrayAggregateIsError(t *testing.T) {
	_, err := rewriteQuery(t, "SELECT VALUE AVG(x.s) FROM t AS x WHERE SUM(x.s) > 1", Options{Names: hrNames})
	if err == nil {
		t.Error("aggregate in WHERE should be a compile error")
	}
}

func TestOrderByAliasSubstitution(t *testing.T) {
	got := mustRewrite(t, `
		SELECT e.v * 2 AS dbl FROM t AS e ORDER BY dbl`, Options{Names: hrNames})
	if !strings.Contains(got, "ORDER BY e.v * 2") {
		t.Errorf("ORDER BY alias should substitute the item expression: %s", got)
	}
}

func TestCompatCoercionWrapping(t *testing.T) {
	// Sugar subquery in scalar position wraps only in compat mode.
	src := "SELECT VALUE 1 + (SELECT u2.a FROM u AS u2) FROM t AS x"
	core := mustRewrite(t, src, Options{Names: hrNames})
	if strings.Contains(core, "$COERCE_SCALAR") {
		t.Errorf("core mode must not coerce: %s", core)
	}
	compatForm := mustRewrite(t, src, Options{Names: hrNames, Compat: true})
	if !strings.Contains(compatForm, "$COERCE_SCALAR(") {
		t.Errorf("compat mode should coerce scalar subqueries: %s", compatForm)
	}
	// IN subqueries coerce to collections.
	inSrc := "SELECT VALUE x.a IN (SELECT u2.a FROM u AS u2) FROM t AS x"
	inForm := mustRewrite(t, inSrc, Options{Names: hrNames, Compat: true})
	if !strings.Contains(inForm, "$COERCE_COLL(") {
		t.Errorf("compat IN subquery should coerce to a collection: %s", inForm)
	}
	// SELECT VALUE subqueries never coerce.
	sv := "SELECT VALUE 1 + (SELECT VALUE u2.a FROM u AS u2) FROM t AS x"
	svForm := mustRewrite(t, sv, Options{Names: hrNames, Compat: true})
	if strings.Contains(svForm, "$COERCE") {
		t.Errorf("SELECT VALUE subquery must not coerce: %s", svForm)
	}
	// COLL_* arguments are exempt.
	coll := "SELECT VALUE COLL_AVG(SELECT u2.a FROM u AS u2) FROM t AS x"
	collForm := mustRewrite(t, coll, Options{Names: hrNames, Compat: true})
	if strings.Contains(collForm, "$COERCE") {
		t.Errorf("COLL_* arguments must not coerce: %s", collForm)
	}
}

func TestSelectStarLowering(t *testing.T) {
	got := mustRewrite(t, "SELECT * FROM t AS a, u AS b", Options{Names: hrNames})
	if !strings.Contains(got, "$MERGE('a', a, 'b', b)") {
		t.Errorf("SELECT * should lower to $MERGE over the block variables: %s", got)
	}
	star := mustRewrite(t, "SELECT a.*, 1 AS one FROM t AS a", Options{Names: hrNames})
	if !strings.Contains(star, "$MERGE('', a, 'one', 1)") {
		t.Errorf("a.* should lower to a $MERGE part: %s", star)
	}
}

func TestFromAliasRequired(t *testing.T) {
	// (SELECT ...) as a FROM source has no derivable alias.
	_, err := rewriteQuery(t, "SELECT VALUE x FROM (SELECT VALUE 1) x2, (SELECT VALUE 2) AS x", Options{Names: hrNames})
	if err != nil {
		t.Fatalf("aliased subquery sources should work: %v", err)
	}
}

// TestGroupKeyMatchIsByTree: a post-group expression becomes the key
// alias only when it is the key expression, not when it merely shares
// a spelling with it once precedence is forgotten. (-e.x).a is not the
// key -e.x.a, so it still names the pre-group variable e — out of scope
// after GROUP BY.
func TestGroupKeyMatchIsByTree(t *testing.T) {
	got := mustRewrite(t, "SELECT k, -(e.x.a) AS w FROM t AS e GROUP BY -e.x.a AS k", Options{Names: hrNames})
	if !strings.Contains(got, "'w': k") {
		t.Errorf("-(e.x.a) is the key expression and should read the alias: %s", got)
	}
	_, err := rewriteQuery(t, "SELECT k, (-e.x).a AS v FROM t AS e GROUP BY -e.x.a AS k", Options{Names: hrNames})
	if err == nil || !strings.Contains(err.Error(), `unresolved name "e"`) {
		t.Errorf("(-e.x).a must not be rewritten to the key alias k; got err %v", err)
	}
}

// TestGroupKeyFormsMatch pins one set of matches per key form: a key is
// matched in the form it was written (a parenthesized occurrence is the
// same tree) and in the form resolution gave it, so an unqualified key
// read qualified, a qualified key read unqualified, and a catalog name
// read as written all become the key alias.
func TestGroupKeyFormsMatch(t *testing.T) {
	cases := []struct{ query, want string }{
		{"SELECT k, (e.x.a) + 1 AS w FROM t AS e GROUP BY e.x.a AS k",
			"SELECT VALUE {'k': k, 'w': k + 1} FROM t AS e GROUP BY e.x.a AS k GROUP AS $g1"},
		{"SELECT deptno AS d FROM t AS e GROUP BY e.deptno",
			"SELECT VALUE {'d': deptno} FROM t AS e GROUP BY e.deptno AS deptno GROUP AS $g1"},
		{"SELECT e.deptno AS d FROM t AS e GROUP BY deptno",
			"SELECT VALUE {'d': deptno} FROM t AS e GROUP BY e.deptno AS deptno GROUP AS $g1"},
		{"SELECT deptno AS d FROM t AS e GROUP BY deptno",
			"SELECT VALUE {'d': deptno} FROM t AS e GROUP BY e.deptno AS deptno GROUP AS $g1"},
		{"SELECT t AS d FROM t AS e GROUP BY t",
			"SELECT VALUE {'d': $k1} FROM t AS e GROUP BY t AS $k1 GROUP AS $g1"},
	}
	for _, c := range cases {
		if got := mustRewrite(t, c.query, Options{Names: hrNames}); got != c.want {
			t.Errorf("%s\n got  %s\n want %s", c.query, got, c.want)
		}
	}
}

func TestGroupKeyImplicitAlias(t *testing.T) {
	tree := parser.MustParse("SELECT e.deptno FROM t AS e GROUP BY e.deptno")
	out, err := Rewrite(tree, Options{Names: hrNames})
	if err != nil {
		t.Fatal(err)
	}
	q := out.(*ast.SFW)
	if q.GroupBy.Keys[0].Alias != "deptno" {
		t.Errorf("implicit group key alias = %q, want deptno", q.GroupBy.Keys[0].Alias)
	}
	// Opaque keys get synthetic aliases.
	tree2 := parser.MustParse("SELECT VALUE 1 FROM t AS e GROUP BY e.a + 1")
	out2, err := Rewrite(tree2, Options{Names: hrNames})
	if err != nil {
		t.Fatal(err)
	}
	if alias := out2.(*ast.SFW).GroupBy.Keys[0].Alias; !strings.HasPrefix(alias, "$k") {
		t.Errorf("synthetic alias = %q", alias)
	}
}

func TestLeftCorrelationScoping(t *testing.T) {
	// e is visible to the second FROM item but not vice versa.
	if _, err := rewriteQuery(t, "SELECT VALUE p FROM t AS e, e.projects AS p", Options{Names: hrNames}); err != nil {
		t.Errorf("left correlation should resolve: %v", err)
	}
	if _, err := rewriteQuery(t, "SELECT VALUE p FROM p.projects AS e, t AS p", Options{Names: hrNames}); err == nil {
		t.Error("right-to-left correlation should not resolve")
	}
}

func TestCorrelatedSubqueryScoping(t *testing.T) {
	// Outer variables are visible inside subqueries.
	src := "SELECT VALUE (SELECT VALUE u2.a FROM u AS u2 WHERE u2.a = x.a) FROM t AS x"
	if _, err := rewriteQuery(t, src, Options{Names: hrNames}); err != nil {
		t.Errorf("correlation into subquery should resolve: %v", err)
	}
	// Post-group, pre-group block variables are no longer in scope.
	bad := "SELECT e.v FROM t AS e GROUP BY e.k"
	if _, err := rewriteQuery(t, bad, Options{Names: hrNames}); err == nil {
		t.Error("referencing a non-key column after GROUP BY should fail to resolve")
	}
}
