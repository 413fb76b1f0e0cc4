package sqlpp_test

// The engine's end-to-end contract: for any query the production path
// (a physical plan with pushdown, hoisting, hash joins, index probes,
// cost-based join order and parallel scans, every expression compiled to
// a closure) must render byte-identically to the reference oracle — the
// DisableOptimizer engine, which has no physical plan and runs the naive
// clause pipeline through the tree-walking interpreter. These tests check
// it over a generated corpus and over every paper listing.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/compat"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// optimizerBattery covers the shapes the physical layer rewrites:
// equi-joins in both syntaxes, LEFT JOIN padding, pushdown-eligible
// WHERE conjuncts, grouping, DISTINCT, and correlated unnesting that
// must stay on the nested-loop path. The emp collection is large enough
// (1500 rows) that the parallel outer scan actually fires.
var optimizerBattery = []string{
	`SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`,
	`SELECT e.name AS n, d.name AS dn FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno AND d.budget > 500000`,
	`SELECT e.name AS n, d.budget AS b FROM emp AS e, dept AS d WHERE e.deptno = d.dno AND e.salary > 120000`,
	`SELECT e.deptno AS dno, COUNT(*) AS n, AVG(e.salary) AS avg FROM emp AS e GROUP BY e.deptno`,
	`SELECT e.deptno AS dno, COUNT(*) AS n FROM emp AS e WHERE e.title = 'Engineer'
	 GROUP BY e.deptno HAVING COUNT(*) > 3`,
	`SELECT DISTINCT e.title AS title, e.deptno AS dno FROM emp AS e`,
	`SELECT h.name AS n, p AS proj FROM hr AS h, h.projects AS p WHERE p LIKE '%Security%'`,
	`FROM emp AS e GROUP BY e.deptno AS dno GROUP AS g
	 SELECT dno AS dno, (FROM g AS v SELECT VALUE v.e.salary) AS pay`,
	`SELECT VALUE e.name FROM emp AS e ORDER BY e.salary DESC, e.name LIMIT 12 OFFSET 3`,
	`SELECT e.name AS n FROM emp AS e
	 WHERE EXISTS (SELECT VALUE d FROM dept AS d WHERE d.dno = e.deptno AND d.budget > 400000)`,
	// PIVOT blocks run planned: a pushed filter under a parallel scan
	// (titles repeat, so duplicate attribute names must keep their
	// sequential order), a hash join, and a streamed fold.
	`PIVOT e.salary AT e.title FROM emp AS e WHERE e.salary > 150000`,
	`PIVOT d.budget AT e.name FROM emp AS e JOIN dept AS d ON e.deptno = d.dno WHERE e.salary > 190000`,
	`PIVOT AVG(e.salary) AT t FROM emp AS e GROUP BY e.title AS t`,
	// FROM-less blocks, top-level and correlated, whose LETs must not
	// bind into the enclosing environment.
	`SELECT VALUE {'a': a, 'b': b} LET a = 2, b = a * 3 WHERE b > 5`,
	`SELECT e.name AS n, (SELECT VALUE s LET s = e.salary * 2) AS dbl FROM emp AS e WHERE e.deptno = 7`,
}

// batteryEngine returns an engine with the given options over the
// battery's generated data.
func batteryEngine(t *testing.T, seed int64, opts sqlpp.Options) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(&opts)
	if err := db.Register("emp", FlatEmp(1500, 40, seed)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("dept", Departments(40, seed)); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("hr", HR(HROptions{N: 200, ScalarProjects: true, Seed: seed})); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestProductionMatchesOracleProperty: over several random datasets, in
// both typing modes, with and without SQL compatibility, sequentially and
// with parallel scans, every battery query gives on the production path
// (planned, compiled, statistics-informed) exactly what the reference
// oracle (DisableOptimizer: naive clause pipeline, tree-walking
// interpreter, sequential) gives: the same rendering or the same error
// text.
func TestProductionMatchesOracleProperty(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for _, compatMode := range []bool{false, true} {
			for seed := int64(0); seed < 3; seed++ {
				opts := sqlpp.Options{Compat: compatMode, StopOnError: strict, Parallelism: 1}
				sequential := batteryEngine(t, seed, opts)
				opts.Parallelism = 8
				parallel := batteryEngine(t, seed, opts)
				opts.Parallelism, opts.DisableOptimizer = 1, true
				oracle := batteryEngine(t, seed, opts)
				for i, q := range optimizerBattery {
					want := outcome(oracle.Query(q))
					for _, production := range []*sqlpp.Engine{sequential, parallel} {
						if got := outcome(production.Query(q)); got != want {
							t.Errorf("strict=%v compat=%v p=%d seed %d: query %d (%s) diverges:\n  oracle     %s\n  production %s",
								strict, compatMode, production.Options().Parallelism, seed, i, q, want, got)
						}
					}
				}
			}
		}
	}
}

// TestIndexedProductionMatchesOracle: index probes (equality and range),
// their verify filters and an index join return exactly what the oracle,
// which never looks at an index, returns.
func TestIndexedProductionMatchesOracle(t *testing.T) {
	oracle := batteryEngine(t, 7, sqlpp.Options{Parallelism: 1, DisableOptimizer: true})
	production := batteryEngine(t, 7, sqlpp.Options{Parallelism: 1})
	for _, ix := range [][4]string{
		{"ix_sal", "emp", "salary", "ordered"},
		{"ix_dept", "emp", "deptno", "hash"},
		{"ix_dno", "dept", "dno", "hash"},
	} {
		if err := production.CreateIndex(ix[0], ix[1], ix[2], ix[3]); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range []string{
		`SELECT VALUE e.name FROM emp AS e WHERE e.salary = 120000`,
		`SELECT VALUE e.name FROM emp AS e WHERE e.salary >= 100000 AND e.salary < 140000 ORDER BY e.name`,
		`SELECT e.name AS n FROM emp AS e WHERE e.salary BETWEEN 90000 AND 110000 AND e.deptno = 3`,
		`SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno WHERE e.salary > 150000`,
	} {
		want := outcome(oracle.Query(q))
		if got := outcome(production.Query(q)); got != want {
			t.Errorf("indexed query %d (%s) diverges:\n  oracle     %s\n  production %s", i, q, want, got)
		}
	}
}

// TestPaperListingsProductionMatchesOracle: every paper listing, in both
// typing modes, with and without SQL compatibility, gives the same
// rendering or the same error text on the production path and on the
// oracle; in the modes the listing declares, that answer is the paper's.
func TestPaperListingsProductionMatchesOracle(t *testing.T) {
	for _, c := range compat.PaperCases() {
		for _, compatMode := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/compat=%v/strict=%v", c.Name, compatMode, strict), func(t *testing.T) {
					run := func(oracle bool) (value.Value, error) {
						db := sqlpp.New(&sqlpp.Options{Compat: compatMode, StopOnError: strict, DisableOptimizer: oracle})
						for name, src := range c.Data {
							if err := db.RegisterSION(name, src); err != nil {
								t.Fatalf("register %s: %v", name, err)
							}
						}
						return db.Query(c.Query)
					}
					ov, oerr := run(true)
					pv, perr := run(false)
					if want, got := outcome(ov, oerr), outcome(pv, perr); got != want {
						t.Fatalf("listing diverges:\n  oracle     %s\n  production %s", want, got)
					}
					declared := strict == c.Strict &&
						(c.Mode == compat.Both || compatMode == (c.Mode == compat.Compat))
					if !declared {
						return
					}
					if c.ExpectError {
						if perr == nil {
							t.Fatalf("listing succeeded, the paper expects an error: %s", pv)
						}
						return
					}
					if perr != nil {
						t.Fatalf("listing failed: %v", perr)
					}
					if c.Expect != "" {
						if want := sion.MustParse(c.Expect); !value.Equivalent(want, pv) {
							t.Fatalf("result diverges from the paper:\n  got  %s\n  want %s", pv, want)
						}
					}
				})
			}
		}
	}
}

// TestEveryBlockIsPlanned: PIVOT and FROM-less blocks get a physical plan
// like any other block, and a PIVOT's scan and pushed filter show under
// its pivot node in EXPLAIN ANALYZE.
func TestEveryBlockIsPlanned(t *testing.T) {
	db := batteryEngine(t, 1, sqlpp.Options{Parallelism: 1})
	for _, q := range []string{
		`PIVOT e.salary AT e.name FROM emp AS e WHERE e.deptno = 3`,
		`SELECT VALUE 1 + 1`,
	} {
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.PlanNotes()) == 0 {
			t.Errorf("%s: no plan notes", q)
		}
	}
	p, err := db.Prepare(`PIVOT e.salary AT e.name FROM emp AS e WHERE e.deptno = 3`)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tree := stats.Render(true)
	if !strings.Contains(tree, "\n  pivot(1:1) in=0 out=1\n    scan(e) in=1500 out=1500") ||
		!strings.Contains(tree, "\n      filter(pushed) in=1500 ") {
		t.Errorf("pivot block's scan and pushed filter missing:\n%s", tree)
	}
}

// TestNestedWithAnswers: a WITH nested inside an expression evaluates
// through the query runner on both paths.
func TestNestedWithAnswers(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		db := sqlpp.New(&sqlpp.Options{DisableOptimizer: oracle})
		v, err := db.Query(`SELECT VALUE [(WITH a AS 1 SELECT VALUE a)]`)
		if err != nil {
			t.Fatalf("oracle=%v: %v", oracle, err)
		}
		if got, want := v.String(), "{{[{{1}}]}}"; got != want {
			t.Errorf("oracle=%v: got %s, want %s", oracle, got, want)
		}
	}
}
