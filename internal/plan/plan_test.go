package plan

import (
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

var registry = funcs.NewRegistry()

// exec compiles and runs a query over object-notation data.
func exec(t *testing.T, data map[string]string, query string, compatMode, strict bool) (value.Value, error) {
	t.Helper()
	cat := catalog.New()
	for name, src := range data {
		if err := cat.Register(name, sion.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Compat: compatMode, Names: cat})
	if err != nil {
		return nil, err
	}
	mode := eval.Permissive
	if strict {
		mode = eval.StopOnError
	}
	ctx := &eval.Context{Mode: mode, Compat: compatMode, Names: cat, Funcs: registry, Run: Run}
	return eval.Interpret(core)(ctx, eval.NewEnv())
}

func mustExec(t *testing.T, data map[string]string, query string) value.Value {
	t.Helper()
	v, err := exec(t, data, query, false, false)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return v
}

func checkResult(t *testing.T, got value.Value, want string) {
	t.Helper()
	w := sion.MustParse(want)
	if !value.Equivalent(got, w) {
		t.Errorf("result mismatch:\n  got  %s\n  want %s", got, w)
	}
}

func TestFromScanShapes(t *testing.T) {
	cases := []struct {
		name  string
		data  map[string]string
		query string
		want  string
	}{
		{
			"bag", map[string]string{"t": "{{1, 2}}"},
			"SELECT VALUE x FROM t AS x", "{{1, 2}}",
		},
		{
			"array", map[string]string{"t": "[1, 2]"},
			"SELECT VALUE x FROM t AS x", "{{1, 2}}",
		},
		{
			"scalar-singleton", map[string]string{"t": "5"},
			"SELECT VALUE x FROM t AS x", "{{5}}",
		},
		{
			"tuple-singleton", map[string]string{"t": "{'a': 1}"},
			"SELECT VALUE x.a FROM t AS x", "{{1}}",
		},
		{
			"null-singleton", map[string]string{"t": "null"},
			"SELECT VALUE x FROM t AS x", "{{null}}",
		},
		{
			"missing-source-is-empty", map[string]string{"t": "{'a': 1}"},
			"SELECT VALUE y FROM t.nope AS y", "{{}}",
		},
		{
			"no-from", map[string]string{},
			"SELECT VALUE 1 + 1", "{{2}}",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkResult(t, mustExec(t, c.data, c.query), c.want)
		})
	}
}

func TestFromScanStrict(t *testing.T) {
	// A non-collection source is an error in stop-on-error mode.
	_, err := exec(t, map[string]string{"t": "5"}, "SELECT VALUE x FROM t AS x", false, true)
	if err == nil {
		t.Error("scalar FROM source should error in strict mode")
	}
}

func TestAtOrdinals(t *testing.T) {
	got := mustExec(t, map[string]string{"t": "['a', 'b']"},
		"SELECT VALUE [i, v] FROM t AS v AT i")
	checkResult(t, got, "{{[0, 'a'], [1, 'b']}}")
	// Bags have no order: AT binds MISSING, and the array constructor
	// papers it over with null.
	got2 := mustExec(t, map[string]string{"t": "{{'a'}}"},
		"SELECT VALUE [i, v] FROM t AS v AT i")
	checkResult(t, got2, "{{[null, 'a']}}")
}

func TestLeftCorrelation(t *testing.T) {
	data := map[string]string{"t": `{{ {'xs': [1, 2], 'k': 10}, {'xs': [], 'k': 20}, {'xs': [3], 'k': 30} }}`}
	got := mustExec(t, data, "SELECT VALUE r.k + x FROM t AS r, r.xs AS x")
	checkResult(t, got, "{{11, 12, 33}}")
}

func TestJoins(t *testing.T) {
	data := map[string]string{
		"a": `{{ {'id': 1}, {'id': 2}, {'id': 3} }}`,
		"b": `{{ {'aid': 1, 'v': 'x'}, {'aid': 1, 'v': 'y'}, {'aid': 3, 'v': 'z'} }}`,
	}
	inner := mustExec(t, data, `
		SELECT x.id, y.v FROM a AS x JOIN b AS y ON x.id = y.aid`)
	checkResult(t, inner, `{{ {'id':1,'v':'x'}, {'id':1,'v':'y'}, {'id':3,'v':'z'} }}`)

	left := mustExec(t, data, `
		SELECT x.id, y.v FROM a AS x LEFT JOIN b AS y ON x.id = y.aid`)
	checkResult(t, left, `{{ {'id':1,'v':'x'}, {'id':1,'v':'y'}, {'id':2,'v':null}, {'id':3,'v':'z'} }}`)

	cross := mustExec(t, data, `
		SELECT VALUE [x.id, y.aid] FROM a AS x CROSS JOIN b AS y WHERE x.id = 2 AND y.aid = 3`)
	checkResult(t, cross, `{{ [2, 3] }}`)
}

func TestGroupByClasses(t *testing.T) {
	// NULL keys share a group; MISSING keys form their own; 1 and 1.0
	// group together.
	data := map[string]string{"t": `{{
	  {'k': 1, 'v': 1}, {'k': 1.0, 'v': 2},
	  {'k': null, 'v': 3}, {'k': null, 'v': 4},
	  {'v': 5}, {'v': 6},
	  {'k': 'x', 'v': 7}
	}}`}
	got := mustExec(t, data, `
		FROM t AS r GROUP BY r.k AS k GROUP AS g
		SELECT VALUE COLL_COUNT(SELECT VALUE x.r.v FROM g AS x)`)
	checkResult(t, got, "{{2, 2, 2, 1}}")
}

func TestImplicitSingleGroupOnEmptyInput(t *testing.T) {
	data := map[string]string{"t": "{{}}"}
	// Aggregates over empty input yield one row (SQL semantics) ...
	got := mustExec(t, data, "SELECT COUNT(*) AS n, SUM(r.v) AS s FROM t AS r")
	checkResult(t, got, "{{ {'n': 0, 's': null} }}")
	// ... but a grouped query yields no rows.
	got2 := mustExec(t, data, "SELECT COUNT(*) AS n FROM t AS r GROUP BY r.k")
	checkResult(t, got2, "{{}}")
}

func TestHavingWithoutAggregates(t *testing.T) {
	data := map[string]string{"t": `{{ {'k': 1}, {'k': 2} }}`}
	got := mustExec(t, data, `FROM t AS r GROUP BY r.k AS k HAVING k > 1 SELECT VALUE k`)
	checkResult(t, got, "{{2}}")
}

func TestOrderByLimitOffset(t *testing.T) {
	data := map[string]string{"t": `{{ {'v': 3}, {'v': 1}, {'v': null}, {'v': 2} }}`}
	got := mustExec(t, data, "SELECT VALUE r.v FROM t AS r ORDER BY r.v")
	checkResult(t, got, "[null, 1, 2, 3]")

	desc := mustExec(t, data, "SELECT VALUE r.v FROM t AS r ORDER BY r.v DESC")
	checkResult(t, desc, "[3, 2, 1, null]")

	nullsLast := mustExec(t, data, "SELECT VALUE r.v FROM t AS r ORDER BY r.v ASC NULLS LAST")
	checkResult(t, nullsLast, "[1, 2, 3, null]")

	limited := mustExec(t, data, "SELECT VALUE r.v FROM t AS r ORDER BY r.v NULLS LAST LIMIT 2 OFFSET 1")
	checkResult(t, limited, "[2, 3]")

	// LIMIT without ORDER BY stops the pipeline early and returns a bag.
	bagLimited := mustExec(t, data, "SELECT VALUE r.v FROM t AS r LIMIT 2")
	if elems, ok := value.Elements(bagLimited); !ok || len(elems) != 2 {
		t.Errorf("LIMIT 2 = %s", bagLimited)
	}
	if bagLimited.Kind() != value.KindBag {
		t.Errorf("un-ordered result should stay a bag, got %s", bagLimited.Kind())
	}

	// Offset past the end.
	empty := mustExec(t, data, "SELECT VALUE r.v FROM t AS r LIMIT 2 OFFSET 10")
	checkResult(t, empty, "{{}}")

	// Negative / non-integer limits are errors.
	if _, err := exec(t, data, "SELECT VALUE r.v FROM t AS r LIMIT -1", false, false); err == nil {
		t.Error("negative LIMIT should error")
	}
	if _, err := exec(t, data, "SELECT VALUE r.v FROM t AS r LIMIT 'x'", false, false); err == nil {
		t.Error("string LIMIT should error")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	data := map[string]string{"t": `{{
	  {'a': 1, 'b': 'y'}, {'a': 1, 'b': 'x'}, {'a': 0, 'b': 'z'}
	}}`}
	got := mustExec(t, data, "SELECT VALUE [r.a, r.b] FROM t AS r ORDER BY r.a DESC, r.b ASC")
	checkResult(t, got, "[[1, 'x'], [1, 'y'], [0, 'z']]")
}

func TestDistinct(t *testing.T) {
	data := map[string]string{"t": "{{1, 1.0, 2, 2, 'a', 'a'}}"}
	got := mustExec(t, data, "SELECT DISTINCT VALUE x FROM t AS x")
	checkResult(t, got, "{{1, 2, 'a'}}")
}

func TestUnpivotShapes(t *testing.T) {
	got := mustExec(t, map[string]string{"t": `{{ {'a': 1, 'b': 2} }}`},
		`SELECT VALUE {'n': n, 'v': v} FROM t AS r, UNPIVOT r AS v AT n`)
	checkResult(t, got, `{{ {'n':'a','v':1}, {'n':'b','v':2} }}`)
	// Duplicate attribute names unpivot into separate bindings.
	dup := value.EmptyTuple()
	dup.Put("a", value.Int(1))
	dup.Put("a", value.Int(2))
	cat := catalog.New()
	if err := cat.Register("t", value.Bag{dup}); err != nil {
		t.Fatal(err)
	}
	tree := parser.MustParse(`SELECT VALUE v FROM t AS r, UNPIVOT r AS v AT n`)
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run}
	v, err := Run(ctx, eval.NewEnv(), core.(*ast.SFW))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, v, "{{1, 2}}")
}

func TestPivotSkipsBadNames(t *testing.T) {
	data := map[string]string{"t": `{{
	  {'k': 'a', 'v': 1}, {'k': 2, 'v': 2}, {'k': 'c', 'v': 3}
	}}`}
	got := mustExec(t, data, "PIVOT r.v AT r.k FROM t AS r")
	checkResult(t, got, "{'a': 1, 'c': 3}")
	// Strict mode errors on the non-string attribute name instead.
	if _, err := exec(t, data, "PIVOT r.v AT r.k FROM t AS r", false, true); err == nil {
		t.Error("strict PIVOT over a non-string name should error")
	}
}

func TestPivotWithWhereAndGroup(t *testing.T) {
	data := map[string]string{"t": `{{
	  {'k': 'a', 'v': 1}, {'k': 'a', 'v': 3}, {'k': 'b', 'v': 5}
	}}`}
	// Aggregate per group, HAVING filters out 'b' (one row only).
	got := mustExec(t, data, `
		PIVOT SUM(r.v) AT k2
		FROM t AS r
		GROUP BY r.k AS k2
		HAVING COUNT(*) > 1`)
	checkResult(t, got, "{'a': 4}")
	// WHERE before grouping.
	got2 := mustExec(t, data, `
		PIVOT SUM(r.v) AT k2
		FROM t AS r
		WHERE r.v < 5
		GROUP BY r.k AS k2`)
	checkResult(t, got2, "{'a': 4}")
}

func TestSetOps(t *testing.T) {
	data := map[string]string{
		"a": "{{1, 2, 2, 3}}",
		"b": "{{2, 3, 3, 4}}",
	}
	cases := []struct {
		query, want string
	}{
		{"(SELECT VALUE x FROM a AS x) UNION (SELECT VALUE y FROM b AS y)", "{{1, 2, 3, 4}}"},
		{"(SELECT VALUE x FROM a AS x) UNION ALL (SELECT VALUE y FROM b AS y)", "{{1, 2, 2, 3, 2, 3, 3, 4}}"},
		{"(SELECT VALUE x FROM a AS x) INTERSECT (SELECT VALUE y FROM b AS y)", "{{2, 3}}"},
		{"(SELECT VALUE x FROM a AS x) INTERSECT ALL (SELECT VALUE y FROM b AS y)", "{{2, 3}}"},
		{"(SELECT VALUE x FROM a AS x) EXCEPT (SELECT VALUE y FROM b AS y)", "{{1}}"},
		{"(SELECT VALUE x FROM a AS x) EXCEPT ALL (SELECT VALUE y FROM b AS y)", "{{1, 2}}"},
	}
	for _, c := range cases {
		got := mustExec(t, data, c.query)
		checkResult(t, got, c.want)
	}
}

func TestLetBindings(t *testing.T) {
	data := map[string]string{"t": `{{ {'a': 2}, {'a': 5} }}`}
	got := mustExec(t, data, `
		SELECT VALUE sq FROM t AS r LET sq = r.a * r.a WHERE sq > 5`)
	checkResult(t, got, "{{25}}")
}

func TestCorrelatedSubqueryInSelect(t *testing.T) {
	data := map[string]string{
		"dept": `{{ {'no': 1}, {'no': 2} }}`,
		"emp":  `{{ {'d': 1, 'n': 'a'}, {'d': 1, 'n': 'b'}, {'d': 2, 'n': 'c'} }}`,
	}
	got := mustExec(t, data, `
		SELECT d.no AS no,
		       (SELECT VALUE e.n FROM emp AS e WHERE e.d = d.no) AS names
		FROM dept AS d`)
	checkResult(t, got, `{{ {'no':1,'names':{{'a','b'}}}, {'no':2,'names':{{'c'}}} }}`)
}

func TestMaxCollectionSizeGuard(t *testing.T) {
	cat := catalog.New()
	big := make(value.Bag, 100)
	for i := range big {
		big[i] = value.Int(int64(i))
	}
	if err := cat.Register("t", big); err != nil {
		t.Fatal(err)
	}
	tree := parser.MustParse("SELECT VALUE x FROM t AS x")
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &eval.Context{Names: cat, Funcs: registry, Run: Run, MaxCollectionSize: 10}
	_, err = Run(ctx, eval.NewEnv(), core.(*ast.SFW))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("size guard should trip, got %v", err)
	}
}

func TestStrictModeAbortsPipeline(t *testing.T) {
	data := map[string]string{"t": `{{ {'x': 1}, {'x': 'bad'}, {'x': 3} }}`}
	v, err := exec(t, data, "SELECT VALUE 2 * r.x FROM t AS r", false, true)
	if err == nil {
		t.Fatalf("strict mode should abort, got %s", v)
	}
	if _, ok := err.(*eval.TypeError); !ok {
		t.Errorf("error should be a *eval.TypeError, got %T", err)
	}
}

// TestDeepComposition chains the paper's operators through one another:
// pivot of a grouped unpivot, unnesting a pivoted tuple, and GROUP AS
// over the output of GROUP AS — composability (§I tenet 4) end to end.
func TestDeepComposition(t *testing.T) {
	data := map[string]string{
		"wide": `{{
		  {'date': 'd1', 'amzn': 10, 'goog': 20},
		  {'date': 'd2', 'amzn': 30, 'goog': 40}
		}}`,
	}
	// Unpivot -> group -> pivot back: totals per symbol as one tuple.
	roundTrip := mustExec(t, data, `
		PIVOT total AT sym2
		FROM (SELECT sym AS sym2, SUM(price) AS total
		      FROM wide AS c, UNPIVOT c AS price AT sym
		      WHERE NOT sym = 'date'
		      GROUP BY sym) AS g`)
	checkResult(t, roundTrip, `{'amzn': 40, 'goog': 60}`)

	// Unnest the attributes of a pivoted tuple produced by a subquery.
	unnested := mustExec(t, data, `
		SELECT VALUE {'sym': n, 'total': v}
		FROM (PIVOT total AT sym2
		      FROM (SELECT sym AS sym2, SUM(price) AS total
		            FROM wide AS c, UNPIVOT c AS price AT sym
		            WHERE NOT sym = 'date'
		            GROUP BY sym) AS g) AS piv,
		     UNPIVOT piv AS v AT n`)
	checkResult(t, unnested, `{{ {'sym':'amzn','total':40}, {'sym':'goog','total':60} }}`)

	// GROUP AS over the output of GROUP AS: group days by parity of
	// their amzn price, carrying each day's full group.
	nestedGroups := mustExec(t, data, `
		FROM (FROM wide AS c, UNPIVOT c AS price AT sym
		      WHERE NOT sym = 'date'
		      GROUP BY c."date" AS d GROUP AS per_day
		      SELECT VALUE {'d': d, 'n': COLL_COUNT(per_day)}) AS day_row
		GROUP BY day_row.n AS n GROUP AS g
		SELECT n AS syms_per_day, COLL_COUNT(g) AS days`)
	checkResult(t, nestedGroups, `{{ {'syms_per_day': 2, 'days': 2} }}`)
}
