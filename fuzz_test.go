package sqlpp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/ast"
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
	// Hash joins over the flat build table: a build side binding two
	// variables (AT over the array u), and one (t) whose keys go NULL and
	// MISSING after present ones.
	f.Add(`SELECT VALUE [x.b, y.k, i] FROM t AS x JOIN u AS y AT i ON x.a = y.v`)
	f.Add(`SELECT VALUE [y.k, x.b] FROM u AS y, t AS x WHERE y.v = x.a`)

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

// FuzzTemplate drives the literal-template path over FuzzParse's corpus:
// a text that prepares is prepared again as a literal template with its
// own literals; when the template is admitted, re-binding it with those
// literals must give a Core ast.Equal to the literal text's, the same
// plan notes, and the same answer (or the same failure), in both typing
// modes.
func FuzzTemplate(f *testing.F) {
	for _, c := range compat.Suite() {
		f.Add(c.Query)
	}
	for _, src := range corpusQueries(f, "internal/parser/testdata/fuzz/FuzzSema", "internal/lexer/testdata/fuzz/FuzzLexer", "testdata/fuzz/FuzzEvalPermissive") {
		f.Add(src)
	}
	f.Add(`SELECT VALUE x.a FROM t AS x WHERE x.a > 1 AND x.a < 2.5e0 LIMIT 3 OFFSET 1`)
	f.Add(`SELECT VALUE [y.k, x.b, 99999999999999999999] FROM u AS y, t AS x WHERE y.v = x.a - 0`)
	var engines []*sqlpp.Engine
	for _, strict := range []bool{false, true} {
		e := sqlpp.New(&sqlpp.Options{MaxCollectionSize: 4096, StopOnError: strict})
		if err := e.RegisterSION("t", `{{ {'a': 1, 'b': 'one'}, {'a': 2}, {'a': null, 'b': 3.5}, 7, 'str', [1, 2] }}`); err != nil {
			f.Fatal(err)
		}
		if err := e.RegisterSION("u", `[ {'k': 'x', 'v': 1}, {'k': 'y', 'v': 2} ]`); err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, db := range engines {
			bound, templated, err := db.PrepareTemplated(src)
			if err != nil || !templated {
				continue
			}
			lit, err := db.Prepare(src)
			if err != nil {
				t.Fatalf("%q: the template prepared but the text did not: %v", src, err)
			}
			if !ast.Equal(sqlpp.CoreTree(bound), sqlpp.CoreTree(lit)) {
				t.Fatalf("%q: bound Core %s, literal Core %s", src, bound.Core(), lit.Core())
			}
			if b, l := strings.Join(bound.PlanNotes(), "; "), strings.Join(lit.PlanNotes(), "; "); b != l {
				t.Fatalf("%q: bound notes %s, literal notes %s", src, b, l)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			bv, berr := bound.ExecContext(ctx)
			lv, lerr := lit.ExecContext(ctx)
			cancel()
			if errors.Is(berr, context.DeadlineExceeded) || errors.Is(lerr, context.DeadlineExceeded) {
				continue
			}
			if (berr == nil) != (lerr == nil) || berr != nil && berr.Error() != lerr.Error() {
				t.Fatalf("%q: bound err=%v, literal err=%v", src, berr, lerr)
			}
			if berr == nil && bv.String() != lv.String() {
				t.Fatalf("%q: bound %s, literal %s", src, bv, lv)
			}
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
