package sqlpp_test

import (
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// groupingEqualityData holds values that grouping equality (§V-B) must
// tell apart or must not: 1 and 1.0, NULL and MISSING (v absent), tuples
// with the same attributes in another order, and bags with the same
// elements in another order. big repeats g past the parallel-scan
// threshold, so a DISTINCT over it merges its workers' keys.
var groupingEqualityData = map[string]string{
	"g": `[{'i': 0, 'v': 1}, {'i': 1, 'v': 1.0}, {'i': 2, 'v': null}, {'i': 3},
		{'i': 4, 'v': {'a': 1, 'b': 2}}, {'i': 5, 'v': {'b': 2, 'a': 1}}, {'i': 6, 'v': {'a': 1.0, 'b': 2}},
		{'i': 7, 'v': [1, 2]}, {'i': 8, 'v': [1.0, 2]}, {'i': 9, 'v': {{1, 2}}}, {'i': 10, 'v': {{2, 1}}},
		{'i': 11, 'v': 'x'}, {'i': 12, 'v': null}, {'i': 13}, {'i': 14, 'v': 2.5}, {'i': 15, 'v': 1}]`,
	"h": `{{ {'v': 1.0}, {'v': 1.0}, {'v': null}, {}, {'v': {'b': 2, 'a': 1.0}}, {'v': [1, 2.0]},
		{'v': {{2, 1}}}, {'v': 'y'}, {'v': 2.5}, {'v': 2.5} }}`,
}

// TestGroupingEqualityAcrossKeyedOperators: every operator that keys
// values by grouping equality — the set operations, SELECT DISTINCT
// sequential and with merged parallel workers, ARRAY_DISTINCT and an
// aggregate's DISTINCT argument, window
// partitions and a GROUP BY … GROUP AS that materializes its groups —
// answers these inputs as before, on the production path and the
// oracle, in both compatibility modes: each rendered answer is the
// recorded one, byte for byte.
func TestGroupingEqualityAcrossKeyedOperators(t *testing.T) {
	cases := []struct {
		name, query string
		par         int
		// want is the answer in both modes, or in the composable mode
		// when compat is set.
		want, compat string
	}{
		{"union", `SELECT x.v FROM g AS x UNION SELECT y.v FROM h AS y`, 1,
			`{{{'v': 1}, {'v': null}, {}, {'v': {'a': 1, 'b': 2}}, {'v': [1, 2]}, {'v': {{1, 2}}}, {'v': 'x'}, {'v': 2.5}, {'v': 'y'}}}`, ""},
		{"intersect all", `SELECT x.v FROM g AS x INTERSECT ALL SELECT y.v FROM h AS y`, 1,
			`{{{'v': 1}, {'v': 1.0}, {'v': null}, {}, {'v': {'a': 1, 'b': 2}}, {'v': [1, 2]}, {'v': {{1, 2}}}, {'v': 2.5}}}`, ""},
		{"except all", `SELECT x.v FROM g AS x EXCEPT ALL SELECT y.v FROM h AS y`, 1,
			`{{{'v': {'b': 2, 'a': 1}}, {'v': {'a': 1.0, 'b': 2}}, {'v': [1.0, 2]}, {'v': {{2, 1}}}, {'v': 'x'}, {'v': null}, {}, {'v': 1}}}`, ""},
		{"distinct", `SELECT DISTINCT x.v FROM g AS x`, 1,
			`{{{'v': 1}, {'v': null}, {}, {'v': {'a': 1, 'b': 2}}, {'v': [1, 2]}, {'v': {{1, 2}}}, {'v': 'x'}, {'v': 2.5}}}`, ""},
		{"distinct parallel", `SELECT DISTINCT x.v FROM big AS x`, 4,
			`{{{'v': 1}, {'v': null}, {}, {'v': {'a': 1, 'b': 2}}, {'v': [1, 2]}, {'v': {{1, 2}}}, {'v': 'x'}, {'v': 2.5}}}`, ""},
		{"distinct value parallel", `SELECT DISTINCT VALUE [x.v] FROM big AS x`, 4,
			`{{[1], [null], [{'a': 1, 'b': 2}], [[1, 2]], [{{1, 2}}], ['x'], [2.5]}}`, ""},
		{"array_distinct", `SELECT VALUE ARRAY_DISTINCT((SELECT VALUE x.v FROM g AS x ORDER BY x.i))`, 1,
			`{{[1, null, {'a': 1, 'b': 2}, [1, 2], {{1, 2}}, 'x', 2.5]}}`, ""},
		{"aggregate distinct", `SELECT COUNT(DISTINCT x.v) AS n FROM g AS x`, 1, `{{{'n': 6}}}`, ""},
		{"partition by", `SELECT x.i, ROW_NUMBER() OVER (PARTITION BY x.v ORDER BY x.i DESC) AS rn,
			COUNT(*) OVER (PARTITION BY x.v) AS n FROM g AS x`, 1,
			`{{{'i': 0, 'rn': 3, 'n': 3}, {'i': 1, 'rn': 2, 'n': 3}, {'i': 2, 'rn': 2, 'n': 2}, {'i': 3, 'rn': 2, 'n': 2}, ` +
				`{'i': 4, 'rn': 3, 'n': 3}, {'i': 5, 'rn': 2, 'n': 3}, {'i': 6, 'rn': 1, 'n': 3}, {'i': 7, 'rn': 2, 'n': 2}, ` +
				`{'i': 8, 'rn': 1, 'n': 2}, {'i': 9, 'rn': 2, 'n': 2}, {'i': 10, 'rn': 1, 'n': 2}, {'i': 11, 'rn': 1, 'n': 1}, ` +
				`{'i': 12, 'rn': 1, 'n': 2}, {'i': 13, 'rn': 1, 'n': 2}, {'i': 14, 'rn': 1, 'n': 1}, {'i': 15, 'rn': 1, 'n': 3}}}`, ""},
		{"group as", `SELECT v, COUNT(*) AS c, (SELECT VALUE p.x.i FROM grp AS p) AS ids
			FROM g AS x GROUP BY x.v AS v GROUP AS grp`, 1,
			`{{{'v': 1, 'c': 3, 'ids': {{0, 1, 15}}}, {'v': null, 'c': 2, 'ids': {{2, 12}}}, {'c': 2, 'ids': {{3, 13}}}, ` +
				`{'v': {'a': 1, 'b': 2}, 'c': 3, 'ids': {{4, 5, 6}}}, {'v': [1, 2], 'c': 2, 'ids': {{7, 8}}}, ` +
				`{'v': {{1, 2}}, 'c': 2, 'ids': {{9, 10}}}, {'v': 'x', 'c': 1, 'ids': {{11}}}, {'v': 2.5, 'c': 1, 'ids': {{14}}}}}`,
			// Under compat a missing key joins the null group (§IV-B).
			`{{{'v': 1, 'c': 3, 'ids': {{0, 1, 15}}}, {'v': null, 'c': 4, 'ids': {{2, 3, 12, 13}}}, ` +
				`{'v': {'a': 1, 'b': 2}, 'c': 3, 'ids': {{4, 5, 6}}}, {'v': [1, 2], 'c': 2, 'ids': {{7, 8}}}, ` +
				`{'v': {{1, 2}}, 'c': 2, 'ids': {{9, 10}}}, {'v': 'x', 'c': 1, 'ids': {{11}}}, {'v': 2.5, 'c': 1, 'ids': {{14}}}}}`},
	}
	g := sion.MustParse(groupingEqualityData["g"]).(value.Array)
	var big value.Array
	for range 100 {
		big = append(big, g...)
	}
	for _, compat := range []bool{false, true} {
		for _, oracle := range []bool{false, true} {
			for _, c := range cases {
				db := sqlpp.New(&sqlpp.Options{Compat: compat, DisableOptimizer: oracle, Parallelism: c.par})
				for name, src := range groupingEqualityData {
					if err := db.RegisterSION(name, src); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Register("big", big); err != nil {
					t.Fatal(err)
				}
				p, err := db.Prepare(c.query)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if c.par > 1 && !oracle && !strings.Contains(strings.Join(p.PlanNotes(), " "), "parallel-scan") {
					t.Fatalf("%s: not a parallel scan: %v", c.name, p.PlanNotes())
				}
				v, err := p.Exec()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				want := c.want
				if compat && c.compat != "" {
					want = c.compat
				}
				if got := v.String(); got != want {
					t.Errorf("%s (compat=%v oracle=%v):\n got  %s\n want %s", c.name, compat, oracle, got, want)
				}
			}
		}
	}
}
