package sqlpp_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"sqlpp"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// claimRun is one side of a claim: an engine's options, its data, and
// the query it answers.
type claimRun struct {
	opts  sqlpp.Options
	data  map[string]value.Value
	query string
}

// claimResult is what one side produced under EXPLAIN ANALYZE.
type claimResult struct {
	res   value.Value
	stats *sqlpp.OpStats
	notes []string
	err   error
}

func (r claimRun) run(t *testing.T) claimResult {
	t.Helper()
	opts := r.opts
	db := sqlpp.New(&opts)
	for name, v := range r.data {
		if err := db.Register(name, v); err != nil {
			t.Fatal(err)
		}
	}
	p, err := db.Prepare(r.query)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := p.ExplainAnalyze(context.Background())
	return claimResult{res: res, stats: st, notes: p.PlanNotes(), err: err}
}

// examined is the number of rows every operator of an EXPLAIN ANALYZE
// tree took in, summed: the work a plan did, counted instead of timed.
func examined(st *sqlpp.OpStats) int64 {
	if st == nil {
		return 0
	}
	n := st.RowsIn
	for _, c := range st.Children {
		n += examined(c)
	}
	return n
}

func rowCount(v value.Value) int {
	if els, ok := value.Elements(v); ok {
		return len(els)
	}
	return 1
}

// mustSucceed fails unless both sides ran without error.
func mustSucceed(t *testing.T, a, b claimResult) {
	t.Helper()
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v / %v", a.err, b.err)
	}
}

// sameAnswer fails unless both sides returned equivalent results.
func sameAnswer(t *testing.T, a, b claimResult) {
	t.Helper()
	mustSucceed(t, a, b)
	if !value.Equivalent(a.res, b.res) {
		t.Fatalf("answers differ:\n  %s\n  %s", a.res, b.res)
	}
}

// TestClaims keeps the paper's claims as deterministic assertions at
// small n: each case runs two formulations (or two modes) of one
// question and checks what the claim says about them — equal answers,
// and where the claim is about cost, an inequality over rows examined.
func TestClaims(t *testing.T) {
	nestedHR := HR(HROptions{N: 300, ScalarProjects: true, Seed: 42})
	flatEmp := FlatEmp(500, 10, 42)
	nullStyle := HR(HROptions{N: 300, ScalarProjects: true, AbsentTitleRate: 30, Seed: 42})
	missingStyle := HR(HROptions{N: 300, ScalarProjects: true, AbsentTitleRate: 30, MissingStyle: true, Seed: 42})
	tupleHR := HR(HROptions{N: 50, Seed: 42})
	dirty, err := sqlpp.ParseValue(`{{ {'id': 1, 'x': 2}, {'id': 2, 'x': 'two'}, {'id': 3, 'x': [2]},
		{'id': 4, 'x': null}, {'id': 5}, {'id': 6, 'x': 6} }}`)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sqlpp.ParseValue(`{{
		{'date': '4/1/2019', 'amzn': 1900, 'goog': 1120, 'fb': 180},
		{'date': '4/2/2019', 'amzn': 1902, 'goog': 1119, 'fb': 183} }}`)
	if err != nil {
		t.Fatal(err)
	}
	tall, err := sqlpp.ParseValue(`{{
		{'date': '4/1/2019', 'symbol': 'amzn', 'price': 1900},
		{'date': '4/1/2019', 'symbol': 'goog', 'price': 1120},
		{'date': '4/2/2019', 'symbol': 'amzn', 'price': 1902} }}`)
	if err != nil {
		t.Fatal(err)
	}
	const (
		sqlQuery = `SELECT e.deptno, AVG(e.salary) AS avgsal, COUNT(*) AS cnt
			FROM emp AS e WHERE e.title = 'Engineer' GROUP BY e.deptno`
		doubleX    = `SELECT r.id AS id, 2 * r.x AS double_x FROM d AS r`
		titleQuery = `SELECT e.id, e.name AS emp_name, e.title AS title FROM emp AS e`
	)

	cases := []struct {
		name  string
		a, b  claimRun
		check func(t *testing.T, a, b claimResult)
	}{
		{
			// §V-B: inverting a hierarchy with GROUP AS gives the nested
			// correlated SELECT VALUE's answer without rescanning the
			// collection once per group.
			name: "C4-group-as-beats-nested-select-value",
			a: claimRun{data: map[string]value.Value{"emp": nestedHR}, query: `
				FROM emp AS e, e.projects AS p
				GROUP BY p AS p GROUP AS g
				SELECT p AS proj_name,
				       (FROM g AS v SELECT VALUE v.e.name) AS employees`},
			b: claimRun{data: map[string]value.Value{"emp": nestedHR}, query: `
				SELECT DISTINCT p AS proj_name,
				       (SELECT VALUE e2.name
				        FROM emp AS e2, e2.projects AS p2
				        WHERE p2 = p) AS employees
				FROM emp AS e, e.projects AS p`},
			check: func(t *testing.T, a, b claimResult) {
				sameAnswer(t, a, b)
				ga, nested := examined(a.stats), examined(b.stats)
				t.Logf("rows examined: GROUP AS %d, nested %d (%.0fx)", ga, nested, float64(nested)/float64(ga))
				if nested < 100*ga {
					t.Errorf("nested SELECT VALUE examined %d rows, under 100x GROUP AS's %d", nested, ga)
				}
			},
		},
		{
			// C1: the compatibility rewritings are compile-time only, so a
			// SQL query answers and plans the same with the flag on or off.
			name: "C1-compat-is-compile-time",
			a:    claimRun{data: map[string]value.Value{"emp": flatEmp}, query: sqlQuery},
			b:    claimRun{opts: sqlpp.Options{Compat: true}, data: map[string]value.Value{"emp": flatEmp}, query: sqlQuery},
			check: func(t *testing.T, a, b claimResult) {
				sameAnswer(t, a, b)
				if ea, eb := a.stats.Render(true), b.stats.Render(true); ea != eb {
					t.Errorf("EXPLAIN differs with compat on:\n%s\nvs\n%s", ea, eb)
				}
				if !slices.Equal(a.notes, b.notes) {
					t.Errorf("plan notes differ with compat on: %q vs %q", a.notes, b.notes)
				}
			},
		},
		{
			// C6: permissive typing carries on past dirty rows; stop-on-
			// error fails on the first with a typed error.
			name: "C6-strict-fails-permissive-completes",
			a:    claimRun{data: map[string]value.Value{"d": dirty}, query: doubleX},
			b:    claimRun{opts: sqlpp.Options{StopOnError: true}, data: map[string]value.Value{"d": dirty}, query: doubleX},
			check: func(t *testing.T, a, b claimResult) {
				if a.err != nil || rowCount(a.res) != 6 {
					t.Errorf("permissive: %d rows, err %v; want 6 rows", rowCount(a.res), a.err)
				}
				var typeErr *eval.TypeError
				if !errors.As(b.err, &typeErr) {
					t.Errorf("strict: err = %v, want a *eval.TypeError", b.err)
				}
			},
		},
		{
			// C3: null-style (Listing 6) and missing-style (Listing 7) data
			// answer the same query with the same rows, which differ only
			// in whether an absent title is written null or left out.
			name: "C3-null-and-missing-styles-agree",
			a:    claimRun{opts: sqlpp.Options{Compat: true}, data: map[string]value.Value{"emp": nullStyle}, query: titleQuery},
			b:    claimRun{opts: sqlpp.Options{Compat: true}, data: map[string]value.Value{"emp": missingStyle}, query: titleQuery},
			check: func(t *testing.T, a, b claimResult) {
				mustSucceed(t, a, b)
				if ra, rb := rowCount(a.res), rowCount(b.res); ra != rb || ra != 300 {
					t.Errorf("row counts %d / %d, want 300 each", ra, rb)
				}
				if value.Equivalent(a.res, b.res) {
					t.Error("the two styles answered alike: the data has no absent titles")
				}
				if !value.Equivalent(dropNullAttrs(a.res), b.res) {
					t.Error("null-style rows with their nulls dropped differ from missing-style rows")
				}
			},
		},
		{
			// First-class nesting answers what a normalized schema needs a
			// join for.
			name: "unnest-matches-join",
			a: claimRun{data: map[string]value.Value{"emp": tupleHR}, query: `
				SELECT e.name AS emp_name, p.name AS proj_name
				FROM emp AS e, e.projects AS p
				WHERE p.name LIKE '%Security%'`},
			b: claimRun{data: map[string]value.Value{"emp": tupleHR}, query: `
				SELECT e.name AS emp_name, m.project AS proj_name
				FROM (SELECT e.id, e.name FROM emp AS e) AS e
				JOIN (SELECT e.id AS emp_id, p.name AS project FROM emp AS e, e.projects AS p) AS m
				  ON m.emp_id = e.id
				WHERE m.project LIKE '%Security%'`},
			check: sameAnswer,
		},
		{
			// §VI: attribute names become data (UNPIVOT) and data becomes
			// attribute names (PIVOT).
			name: "pivot-unpivot-run",
			a: claimRun{data: map[string]value.Value{"closing_prices": wide}, query: `
				SELECT c."date" AS "date", sym AS symbol, price AS price
				FROM closing_prices AS c, UNPIVOT c AS price AT sym
				WHERE NOT sym = 'date'`},
			b: claimRun{data: map[string]value.Value{"stock_prices": tall}, query: `
				SELECT sp."date" AS "date",
				       (PIVOT dp.sp.price AT dp.sp.symbol FROM dates_prices AS dp) AS prices
				FROM stock_prices AS sp
				GROUP BY sp."date" GROUP AS dates_prices`},
			check: func(t *testing.T, a, b claimResult) {
				mustSucceed(t, a, b)
				if ra, rb := rowCount(a.res), rowCount(b.res); ra != 6 || rb != 2 {
					t.Errorf("unpivot %d rows, pivot %d rows; want 6 and 2:\n  %s\n  %s", ra, rb, a.res, b.res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, tc.a.run(t), tc.b.run(t))
		})
	}
}
