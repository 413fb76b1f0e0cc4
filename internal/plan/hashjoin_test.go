package plan

import (
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// execPhys is exec with the physical optimizer applied and a chosen
// worker count — the optimized counterpart of plan_test.go's exec.
func execPhys(t *testing.T, data map[string]string, query string, strict bool, parallelism int) (value.Value, error) {
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
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		return nil, err
	}
	mode := eval.Permissive
	if strict {
		mode = eval.StopOnError
	}
	Optimize(core, OptOptions{Mode: mode, Funcs: registry})
	ctx := &eval.Context{Mode: mode, Names: cat, Funcs: registry, Run: Run, Parallelism: parallelism}
	return eval.Compile(core, eval.CompileOpts{Mode: mode, Funcs: registry})(ctx, eval.NewEnv())
}

// checkPhysMatchesNaive runs the query both ways and requires
// byte-identical renderings — the optimizer contract.
func checkPhysMatchesNaive(t *testing.T, data map[string]string, query string) {
	t.Helper()
	naive, err := exec(t, data, query, false, false)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	opt, err := execPhys(t, data, query, false, 1)
	if err != nil {
		t.Fatalf("optimized: %v", err)
	}
	if naive.String() != opt.String() {
		t.Errorf("optimized result diverges for %s:\n  naive     %s\n  optimized %s",
			query, naive, opt)
	}
}

// joinData exercises the hash join's semantic edge cases: a NULL key, a
// MISSING key (no deptno attribute), an int key matching a float dept
// number, and duplicate build rows.
var joinData = map[string]string{
	"emp": `{{
		{'id': 1, 'deptno': 10},
		{'id': 2, 'deptno': 20},
		{'id': 3, 'deptno': null},
		{'id': 4},
		{'id': 5, 'deptno': 10},
		{'id': 6, 'deptno': 99}
	}}`,
	"dept": `{{
		{'dno': 10, 'name': 'eng'},
		{'dno': 20.0, 'name': 'ops'},
		{'dno': 20, 'name': 'ops-dup'},
		{'dno': null, 'name': 'limbo'}
	}}`,
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	queries := []string{
		// INNER JOIN: NULL/MISSING keys never match; 20 must find the
		// float 20.0 row (equality coerces numerics).
		`SELECT e.id AS id, d.name AS dept FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`,
		// Keys reversed in the ON condition.
		`SELECT e.id AS id, d.name AS dept FROM emp AS e JOIN dept AS d ON d.dno = e.deptno`,
		// LEFT JOIN: unmatched probe rows pad d with NULL, including the
		// NULL- and MISSING-keyed employees.
		`SELECT e.id AS id, d.name AS dept FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno`,
		// Extra non-equi conjunct rides along in the verification.
		`SELECT e.id AS id, d.name AS dept
		 FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno AND e.id < 5`,
		// Comma cross product with the equi-conjunct in WHERE.
		`SELECT e.id AS id, d.name AS dept FROM emp AS e, dept AS d WHERE e.deptno = d.dno`,
		// Mixed equi and non-equi conjuncts.
		`SELECT e.id AS id, d.name AS dept
		 FROM emp AS e, dept AS d WHERE e.deptno = d.dno AND d.name LIKE 'o%'`,
		// Compound keys: a constructed expression on each side.
		`SELECT e.id AS id FROM emp AS e JOIN dept AS d ON e.deptno + 1 = d.dno + 1`,
	}
	for _, q := range queries {
		checkPhysMatchesNaive(t, joinData, q)
	}
}

func TestHashJoinEmptySides(t *testing.T) {
	empty := map[string]string{
		"emp":  `{{ {'id': 1, 'deptno': 10} }}`,
		"dept": `{{ }}`,
	}
	checkPhysMatchesNaive(t, empty,
		`SELECT e.id AS id, d.name AS dept FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno`)
	checkPhysMatchesNaive(t, map[string]string{"emp": `{{ }}`, "dept": joinData["dept"]},
		`SELECT e.id AS id FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`)
}

// TestHashJoinLazyBuild: with an empty probe side the build side must
// never be evaluated, because the naive nested loop never evaluates it
// either — observable through an error-raising build expression in
// strict mode.
func TestHashJoinLazyBuild(t *testing.T) {
	data := map[string]string{
		"emp":  `{{ }}`,
		"dept": `{{ {'dno': 'x'} }}`,
	}
	// 1 + 'x' is a type error in strict mode, but only if a dept row is
	// ever touched; the empty emp means it never is.
	q := `SELECT e.id AS id
	      FROM emp AS e JOIN (SELECT VALUE {'dno': 1 + d.dno} FROM dept AS d) AS j
	      ON e.deptno = j.dno`
	naive, nerr := exec(t, data, q, false, true)
	opt, oerr := execPhys(t, data, q, true, 1)
	if (nerr == nil) != (oerr == nil) {
		t.Fatalf("error behavior diverges: naive err=%v, optimized err=%v", nerr, oerr)
	}
	if nerr == nil && naive.String() != opt.String() {
		t.Errorf("results diverge:\n  naive     %s\n  optimized %s", naive, opt)
	}
}

func TestHoistedSourceMatchesNaive(t *testing.T) {
	// dept is uncorrelated, so it hoists; the filter is non-equi, so no
	// hash join hides the hoisting path.
	checkPhysMatchesNaive(t, joinData,
		`SELECT e.id AS id, d.name AS dept FROM emp AS e, dept AS d WHERE e.deptno < d.dno`)
	// A correlated inner source must not hoist and still match.
	checkPhysMatchesNaive(t, map[string]string{
		"emp": `{{ {'id': 1, 'kids': [{'k': 1}, {'k': 2}]}, {'id': 2, 'kids': []} }}`,
	}, `SELECT e.id AS id, c.k AS k FROM emp AS e, e.kids AS c`)
}

// hashJoinFixture plans `l AS x, r AS y` joined on k over a one-row l
// and an r of rows rows spread over keys keys, and returns the context
// to run it in, the plan, and the index of its hash step, whose build
// side is r.
func hashJoinFixture(t *testing.T, rows, keys int) (*eval.Context, *sfwPhys, int) {
	t.Helper()
	r := make(value.Bag, rows)
	for i := range r {
		r[i] = value.NewTuple(
			value.Field{Name: "k", Value: value.Int(int64(i % keys))},
			value.Field{Name: "id", Value: value.Int(int64(i))})
	}
	cat := catalog.New()
	if err := cat.Register("l", value.Bag{value.NewTuple(value.Field{Name: "k", Value: value.Int(-1)})}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("r", r); err != nil {
		t.Fatal(err)
	}
	core, notes := prepareOptimized(t, cat, `SELECT VALUE [x.k, y.id] FROM l AS x, r AS y WHERE x.k = y.k`, eval.Permissive)
	phys := core.(*ast.SFW).Phys.(*sfwPhys)
	for i, step := range phys.steps {
		if step.hash != nil && step.hash.right.As == "y" {
			return &eval.Context{Names: cat, Funcs: registry, Run: Run}, phys, i
		}
	}
	t.Fatalf("no hash build over r: %v", notes)
	return nil, nil, 0
}

// TestHashBuildAllocatesPerTable: the build stores its rows flat in
// slices presized from the source, so a build over ten times the rows
// with the same keys allocates exactly as many times.
func TestHashBuildAllocatesPerTable(t *testing.T) {
	const keys = 50
	allocs := func(rows int) float64 {
		ctx, phys, i := hashJoinFixture(t, rows, keys)
		return testing.AllocsPerRun(5, func() {
			tbl, err := buildHashTable(ctx, eval.NewEnv(), phys.steps[i].hash, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.next) != rows || len(tbl.chains) != keys {
				t.Fatalf("%d rows in %d buckets, want %d in %d", len(tbl.next), len(tbl.chains), rows, keys)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	t.Logf("build allocations: %v over 1000 rows, %v over 10000", small, large)
	if small != large {
		t.Errorf("build over 10000 rows allocates %v times, over 1000 rows %v: want equal", large, small)
	}
}

// TestHashBuildAllocatesPerKeyTable: the build numbers its keys in a
// value.KeyTable presized for up to buildKeyReserve keys, whose encodings grow
// by doubling, and threads its chains once the scan ends, so a build over
// 10,000 rows with 1,000 distinct keys allocates a few dozen times, not
// once or more per key as a map of key strings did.
func TestHashBuildAllocatesPerKeyTable(t *testing.T) {
	const rows, keys = 10000, 1000
	ctx, phys, i := hashJoinFixture(t, rows, keys)
	n := testing.AllocsPerRun(5, func() {
		tbl, err := buildHashTable(ctx, eval.NewEnv(), phys.steps[i].hash, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.next) != rows || len(tbl.chains) != keys {
			t.Fatalf("%d rows in %d chains, want %d in %d", len(tbl.next), len(tbl.chains), rows, keys)
		}
	})
	t.Logf("a build over %d rows with %d keys allocates %v times", rows, keys, n)
	if n > 40 {
		t.Errorf("a build over %d rows with %d keys allocates %v times, want <= 40", rows, keys, n)
	}
}

// TestHashProbeAllocatesNothing: a probe walking a multi-row bucket
// chain, under row-environment reuse, allocates nothing per probe.
func TestHashProbeAllocatesNothing(t *testing.T) {
	const rows, keys = 1000, 50
	ctx, phys, i := hashJoinFixture(t, rows, keys)
	if !phys.reuseEnv {
		t.Fatal("plan does not reuse row environments")
	}
	matches := 0
	c := new(chain).init(newPhysState(phys, eval.NewEnv()), ctx, func(*eval.Env) error {
		matches++
		return nil
	})
	probe := c.fns[len(phys.steps)+i]
	lenv := eval.NewEnv().Child()
	lenv.Bind(phys.steps[0].item.(*ast.FromExpr).As, value.NewTuple(value.Field{Name: "k", Value: value.Int(7)}))
	n := testing.AllocsPerRun(100, func() {
		if err := probe(lenv); err != nil {
			t.Fatal(err)
		}
	})
	if want := 101 * rows / keys; matches != want {
		t.Fatalf("%d matches over 101 probes, want %d", matches, want)
	}
	if n != 0 {
		t.Errorf("a probe allocates %v times, want 0", n)
	}
}
