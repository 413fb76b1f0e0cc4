package sqlpp_test

// Golden tests for the EXPLAIN ANALYZE stats tree: over a fixed catalog,
// each query must produce an exact operator tree — shape, labels, row
// in/out counts, and operator-specific counters. Wall times are redacted
// (Render(true)) since they vary run to run. These lock the observable
// contract of the instrumentation layer: a plan change that alters the
// tree must update the goldens deliberately.

import (
	"context"
	"strings"
	"testing"

	"sqlpp"
)

func goldenEngine(t *testing.T) *sqlpp.Engine {
	t.Helper()
	return goldenEngineWith(t, &sqlpp.Options{Parallelism: 1})
}

// goldenEngineWith is goldenEngine's catalog under opts.
func goldenEngineWith(t *testing.T, opts *sqlpp.Options) *sqlpp.Engine {
	t.Helper()
	db := sqlpp.New(opts)
	if err := db.RegisterSION("emp", `{{
		{'id': 1, 'name': 'Ada',  'deptno': 10, 'salary': 120, 'title': 'Engineer'},
		{'id': 2, 'name': 'Bob',  'deptno': 20, 'salary': 95,  'title': 'Engineer'},
		{'id': 3, 'name': 'Cyd',  'deptno': 10, 'salary': 140, 'title': 'Manager'},
		{'id': 4, 'name': 'Dee',  'deptno': 30, 'salary': 80},
		{'id': 5, 'name': 'Eve',  'deptno': 10, 'salary': 150, 'title': 'Manager'},
		{'id': 6, 'name': 'Fay',  'deptno': 20, 'salary': 110, 'title': 'Analyst'}
	}}`); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSION("dept", `{{
		{'dno': 10, 'name': 'Eng',   'budget': 900},
		{'dno': 20, 'name': 'Sales', 'budget': 500},
		{'dno': 40, 'name': 'Ops',   'budget': 300}
	}}`); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSION("hr", `{{
		{'name': 'Ada', 'projects': ['Security', 'Infra']},
		{'name': 'Bob', 'projects': ['Search']},
		{'name': 'Cyd', 'projects': ['Security Audit']}
	}}`); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainAnalyzeGolden checks the exact stats tree of representative
// sequential plans: pushdown filters, hash joins (inner and left with
// padding), grouping with HAVING, DISTINCT, Top-K with heap evictions,
// correlated unnesting, a correlated subquery (whose operators accumulate
// across outer rows), a set operation, a PIVOT and a FROM-less block.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := goldenEngine(t)
	cases := []struct {
		name  string
		query string
		want  string
	}{
		{
			name:  "pushdown-filter",
			query: `SELECT e.name AS n FROM emp AS e WHERE e.salary > 100`,
			want: `query in=0 out=0
  select(1:1) in=0 out=4
    scan(e) in=6 out=6 est_rows=6
      filter(pushed) in=6 out=4 est_rows=4
`,
		},
		{
			name:  "hash-join-inner",
			query: `SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`,
			want: `query in=0 out=0
  select(1:1) in=0 out=5
    hash-join(inner) in=6 out=5 buckets=3 build_rows=3 candidates=5 est_build=3 est_rows=6 verified=5
      scan(e) in=6 out=6
      scan(d) in=3 out=3
`,
		},
		{
			name:  "hash-join-left-pads",
			query: `SELECT e.name AS n, d.name AS dn FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno`,
			want: `query in=0 out=0
  select(1:1) in=0 out=6
    hash-join(left) in=6 out=6 buckets=3 build_rows=3 candidates=5 est_build=3 est_rows=6 left_pads=1 verified=5
      scan(e) in=6 out=6
      scan(d) in=3 out=3
`,
		},
		{
			name:  "group-having",
			query: `SELECT e.title AS title, COUNT(*) AS n FROM emp AS e GROUP BY e.title HAVING COUNT(*) > 1`,
			want: `query in=0 out=0
  select(1:1) in=0 out=2
    scan(e) in=6 out=6 est_rows=6
    group-by(stream: COUNT) in=6 out=4
    filter(having) in=4 out=2
`,
		},
		{
			// Returning the GROUP AS collection needs the groups themselves:
			// the block keeps the materializing operator.
			name:  "group-as-returned",
			query: `SELECT title, g AS members FROM emp AS e GROUP BY e.title AS title GROUP AS g`,
			want: `query in=0 out=0
  select(1:1) in=0 out=4
    scan(e) in=6 out=6 est_rows=6
    group-by(materialize) in=6 out=4
`,
		},
		{
			name:  "distinct",
			query: `SELECT DISTINCT e.deptno AS dno FROM emp AS e`,
			want: `query in=0 out=0
  select(1:1) in=0 out=3
    scan(e) in=6 out=6 est_rows=6
    distinct in=6 out=3
`,
		},
		{
			name:  "top-k",
			query: `SELECT VALUE e.name FROM emp AS e ORDER BY e.salary DESC LIMIT 3`,
			want: `query in=0 out=0
  select(1:1) in=0 out=3
    scan(e) in=6 out=6 est_rows=6
    top-k in=6 out=3 heap_evictions=1
    limit in=3 out=3
`,
		},
		{
			name:  "correlated-unnest",
			query: `SELECT h.name AS n, p AS proj FROM hr AS h, h.projects AS p WHERE p LIKE '%Security%'`,
			want: `query in=0 out=0
  select(1:1) in=0 out=2
    scan(h) in=3 out=3 est_rows=3
    scan(p) in=4 out=4
      filter(pushed) in=4 out=2
`,
		},
		{
			// The inner block's operators accumulate across the six outer
			// rows: scan(d) sees 3 departments per evaluation.
			name:  "correlated-subquery-accumulates",
			query: `SELECT e.name AS n FROM emp AS e WHERE e.deptno IN (SELECT VALUE d.dno FROM dept AS d WHERE d.budget > 400)`,
			want: `query in=0 out=0
  select(1:1) in=0 out=5
    scan(e) in=6 out=6 est_rows=6
      filter(pushed) in=6 out=5 est_rows=2
    select(1:53) in=0 out=2
      scan(d) in=18 out=18 est_rows=3
        filter(pushed) in=18 out=12 est_rows=2
`,
		},
		{
			name: "union-all",
			query: `SELECT VALUE e.name FROM emp AS e WHERE e.salary > 100
 UNION ALL SELECT VALUE d.name FROM dept AS d`,
			want: `query in=0 out=0
  set-op(UNION ALL) in=7 out=7
    select(1:1) in=0 out=4
      scan(e) in=6 out=6 est_rows=6
        filter(pushed) in=6 out=4 est_rows=4
    select(2:12) in=0 out=3
      scan(d) in=3 out=3 est_rows=3
`,
		},
		{
			// A PIVOT is a planned block whose sink builds one tuple.
			name:  "pivot-pushdown",
			query: `PIVOT e.salary AT e.name FROM emp AS e WHERE e.deptno = 10`,
			want: `query in=0 out=0
  pivot(1:1) in=0 out=1
    scan(e) in=6 out=6 est_rows=6
      filter(pushed) in=6 out=3 est_rows=3
`,
		},
		{
			// A FROM-less block is planned too: its variable-free WHERE
			// conjunct runs once, before the one empty binding.
			name:  "from-less",
			query: `SELECT VALUE x LET x = 2 WHERE x > 1 AND TRUE`,
			want: `query in=0 out=0
  select(1:1) in=0 out=1
    filter(pre) in=1 out=1
    filter(residual) in=1 out=1
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := db.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := p.ExplainAnalyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.Render(true); got != tc.want {
				t.Errorf("stats tree mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestExplainAnalyzeGoldenParallel locks the parallel-scan shape: the
// workers of a chunked scan fold into one node per operator, so the tree
// is the sequential one plus a chunks counter, and the row counts are
// globally correct (not per worker) — a correlated sub-block run by
// every worker and a hash join probed by every worker included.
func TestExplainAnalyzeGoldenParallel(t *testing.T) {
	engine := func(parallelism int) *sqlpp.Engine {
		db := sqlpp.New(&sqlpp.Options{Parallelism: parallelism})
		if err := db.Register("emp", FlatEmp(1500, 40, 7)); err != nil {
			t.Fatal(err)
		}
		if err := db.Register("dept", Departments(40, 7)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db, seq := engine(4), engine(1)
	cases := []struct {
		name  string
		query string
		want  string
	}{
		{
			name:  "parallel-filter",
			query: `SELECT e.name AS n FROM emp AS e WHERE e.salary > 150000`,
			want: `query in=0 out=0
  select(1:1) in=0 out=507
    scan(e) in=1500 out=1500 chunks=4 est_rows=1500
      filter(pushed) in=1500 out=507 est_rows=552
`,
		},
		{
			name:  "parallel-group-having",
			query: `SELECT e.deptno AS dno, COUNT(*) AS n FROM emp AS e GROUP BY e.deptno HAVING COUNT(*) > 40`,
			want: `query in=0 out=0
  select(1:1) in=0 out=15
    scan(e) in=1500 out=1500 chunks=4 est_rows=1500
    group-by(stream: COUNT) in=1500 out=40
    filter(having) in=40 out=15
`,
		},
		{
			name:  "parallel-distinct",
			query: `SELECT DISTINCT e.title AS t FROM emp AS e`,
			want: `query in=0 out=0
  select(1:1) in=0 out=4
    scan(e) in=1500 out=1500 chunks=4 est_rows=1500
    distinct in=1500 out=4
`,
		},
		{
			// Every worker runs the correlated sub-block; its nodes sum the
			// workers' invocations, and its rows out are the last one's.
			name:  "parallel-correlated-subblock",
			query: `SELECT e.name AS n FROM emp AS e WHERE 3 IN (SELECT VALUE COUNT(*) FROM [10, 20, 30] AS x WHERE x < e.deptno)`,
			want: `query in=0 out=0
  select(1:1) in=0 out=367
    scan(e) in=1500 out=1500 chunks=4 est_rows=1500
      filter(pushed) in=1500 out=367 est_rows=500
    select(1:46) in=0 out=1
      scan(x) in=4500 out=4500
        filter(pushed) in=4500 out=2236
      group-by(stream: COUNT) in=2236 out=1500
`,
		},
		{
			// Every worker probes the one hash table: candidates and
			// verified sum across them.
			name:  "parallel-hash-join",
			query: `SELECT e.name AS n, d.name AS dn FROM emp AS e, dept AS d WHERE e.deptno = d.dno AND d.budget > 500000`,
			want: `query in=0 out=0
  select(1:1) in=0 out=811
    scan(e) in=1500 out=1500 chunks=4 est_rows=1500
    hash-join(inner) in=1500 out=1500 buckets=40 build_rows=40 candidates=1500 est_build=40 verified=1500
      scan(d) in=40 out=40
      filter(pushed) in=1500 out=811 est_rows=40
`,
		},
	}
	explain := func(t *testing.T, db *sqlpp.Engine, query string) string {
		t.Helper()
		p, err := db.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := p.ExplainAnalyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats.Render(true)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := explain(t, db, tc.query)
			if got != tc.want {
				t.Errorf("stats tree mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
			if want := explain(t, seq, tc.query); strings.Replace(got, " chunks=4", "", 1) != want {
				t.Errorf("parallel tree is not the sequential one plus chunks:\n--- parallel ---\n%s--- sequential ---\n%s", got, want)
			}
		})
	}
}

// TestExplainAnalyzeGoldenOracle pins the reference oracle's tree
// (DisableOptimizer): no plan, so no pushdown, hash join or estimates —
// WHERE runs whole in clause position, a JOIN is the nested loop (its
// inner scan accumulating across outer rows), and a correlated
// subquery's operators accumulate across its invocations.
func TestExplainAnalyzeGoldenOracle(t *testing.T) {
	db := goldenEngineWith(t, &sqlpp.Options{Parallelism: 1, DisableOptimizer: true})
	cases := []struct {
		name  string
		query string
		want  string
	}{
		{
			name:  "where-filter",
			query: `SELECT e.name AS n FROM emp AS e WHERE e.salary > 100`,
			want: `query in=0 out=0
  select(1:1) in=0 out=4
    scan(e) in=6 out=6
    filter(where) in=6 out=4
`,
		},
		{
			name:  "nested-loop-left-join",
			query: `SELECT e.name AS n, d.name AS dn FROM emp AS e LEFT JOIN dept AS d ON e.deptno = d.dno`,
			want: `query in=0 out=0
  select(1:1) in=0 out=6
    join(left) in=0 out=6 left_pads=1
      scan(e) in=6 out=6
      scan(d) in=18 out=18
`,
		},
		{
			name:  "group-having",
			query: `SELECT e.title AS title, COUNT(*) AS n FROM emp AS e GROUP BY e.title HAVING COUNT(*) > 1`,
			want: `query in=0 out=0
  select(1:1) in=0 out=2
    scan(e) in=6 out=6
    group-by(materialize) in=6 out=4
    filter(having) in=4 out=2
`,
		},
		{
			name:  "correlated-subquery-accumulates",
			query: `SELECT e.name AS n FROM emp AS e WHERE e.deptno IN (SELECT VALUE d.dno FROM dept AS d WHERE d.budget > 400)`,
			want: `query in=0 out=0
  select(1:1) in=0 out=5
    scan(e) in=6 out=6
    filter(where) in=6 out=5
    select(1:53) in=0 out=2
      scan(d) in=18 out=18
      filter(where) in=18 out=12
`,
		},
		{
			name: "union-all",
			query: `SELECT VALUE e.name FROM emp AS e WHERE e.salary > 100
 UNION ALL SELECT VALUE d.name FROM dept AS d`,
			want: `query in=0 out=0
  set-op(UNION ALL) in=7 out=7
    select(1:1) in=0 out=4
      scan(e) in=6 out=6
      filter(where) in=6 out=4
    select(2:12) in=0 out=3
      scan(d) in=3 out=3
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := db.Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := p.ExplainAnalyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.Render(true); got != tc.want {
				t.Errorf("stats tree mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}
