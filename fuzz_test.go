package sqlpp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/compat"
)

// FuzzEvalPermissive drives the whole engine end to end: parse arbitrary
// input and, when it parses, execute it in permissive mode against a
// small fixed catalog — once on the production engine and once on the
// reference oracle (DisableOptimizer: naive clause pipeline, tree-walking
// interpreter). Neither may panic, and the two must agree: same rendering
// when both succeed, and never a success on one side paired with a real
// failure on the other (deadline expiry is timing, not semantics, and is
// exempt).
//
// MaxCollectionSize bounds materialized intermediates and the deadline
// bounds wall time, so fuzz-invented cross joins fail fast instead of
// stalling the fuzz loop.
func FuzzEvalPermissive(f *testing.F) {
	for _, c := range compat.Suite() {
		f.Add(c.Query)
	}
	f.Add(`SELECT VALUE t FROM t AS t WHERE t.a + 'x' > 0`)
	f.Add(`SELECT COUNT(*) AS n FROM t AS x GROUP BY x.a HAVING COUNT(*) > 0`)
	f.Add(`SELECT VALUE v FROM t AS x, UNPIVOT x AS v AT n ORDER BY v LIMIT 3`)
	// Compiler boundaries: forms the compiler specializes
	// (LIKE/BETWEEN/IN/CASE/constructors) mixed with forms it hands to
	// the interpreter (subqueries, WITH), absent inputs, and malformed
	// patterns — the seams where the two paths could drift.
	f.Add(`SELECT VALUE x.a FROM t AS x WHERE x.b LIKE 'o%' AND x.a BETWEEN 1 AND 2`)
	f.Add(`SELECT VALUE x.b FROM t AS x WHERE x.b LIKE 'o!' ESCAPE '!'`)
	f.Add(`WITH w AS (SELECT VALUE x.a FROM t AS x) SELECT VALUE v FROM w AS v WHERE v IN [1, null, 3]`)
	f.Add(`SELECT CASE WHEN x.a > 1 THEN {'hi': [x.a, missing]} ELSE {{x.b}} END AS c FROM t AS x`)
	f.Add(`SELECT VALUE x.a FROM t AS x WHERE x.a = ANY (SELECT VALUE u.v FROM u AS u)`)
	// GROUP BY in both physical forms: folds only (streamed; heterogeneous
	// rows fault SUM per group) and the group collection returned beside a
	// fold (materialized).
	f.Add(`SELECT x.b AS b, COUNT(*) AS n, SUM(x.a) AS s, MAX(x.a) AS m, ARRAY_AGG(x.a) AS xs FROM t AS x GROUP BY x.b HAVING COUNT(x.a) >= 0 ORDER BY SUM(x.a), b`)
	f.Add(`FROM t AS x GROUP BY x.a AS a GROUP AS g SELECT a AS a, g AS members, COLL_COUNT(g) AS n, COLL_SUM(SELECT VALUE v.x.a FROM g AS v WHERE v.x.a > 0) AS s`)
	// A PIVOT block through every clause, and a WITH nested in an
	// expression (evaluated through the query runner, not plan.Run).
	f.Add(`PIVOT SUM(y) AT k FROM t AS x LET y = x.a * 2 WHERE x.a > 0 GROUP BY x.b AS k HAVING COUNT(*) > 0`)
	f.Add(`SELECT VALUE [(WITH a AS 1 SELECT VALUE a)]`)

	db := sqlpp.New(&sqlpp.Options{MaxCollectionSize: 4096})
	oracle := sqlpp.New(&sqlpp.Options{MaxCollectionSize: 4096, DisableOptimizer: true})
	for _, e := range []*sqlpp.Engine{db, oracle} {
		if err := e.RegisterSION("t", `{{ {'a': 1, 'b': 'one'}, {'a': 2}, {'a': null, 'b': 3.5}, 7, 'str', [1, 2] }}`); err != nil {
			f.Fatal(err)
		}
		if err := e.RegisterSION("u", `[ {'k': 'x', 'v': 1}, {'k': 'y', 'v': 2} ]`); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		pv, perr := db.QueryContext(ctx, src) // errors fine; panics are not
		ov, oerr := oracle.QueryContext(ctx, src)
		timedOut := errors.Is(perr, context.DeadlineExceeded) || errors.Is(oerr, context.DeadlineExceeded)
		if timedOut {
			return
		}
		if (perr == nil) != (oerr == nil) {
			t.Fatalf("production/oracle error divergence on %q:\n  production err=%v\n  oracle     err=%v",
				src, perr, oerr)
		}
		if perr == nil && pv.String() != ov.String() {
			t.Fatalf("production/oracle result divergence on %q:\n  production %s\n  oracle     %s",
				src, pv, ov)
		}
	})
}
