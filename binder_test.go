package sqlpp_test

import (
	"testing"

	"sqlpp"
)

// TestAggregateArgumentScoping: a grouped block's aggregate argument
// reads the pre-group variables through the group element, and only
// where they occur free: in a nested block's GROUP BY key, in both arms
// of a set operation, and not where a nested FROM binds the name again.
// Both paths share the rewriter, so each answer is stated, not compared.
func TestAggregateArgumentScoping(t *testing.T) {
	cases := []struct{ arg, want string }{
		{`(SELECT VALUE k FROM [1,2] AS x GROUP BY x + t.n AS k)`, `{{{'g': 1, 'm': [{{3, 4}}, {{11, 12}}]}}}`},
		{`(SELECT VALUE t.n UNION ALL SELECT VALUE 1)`, `{{{'g': 1, 'm': [{{2, 1}}, {{10, 1}}]}}}`},
		{`(SELECT VALUE t FROM [5] AS t)`, `{{{'g': 1, 'm': [{{5}}, {{5}}]}}}`},
	}
	for _, oracle := range []bool{false, true} {
		for _, compatMode := range []bool{false, true} {
			db := sqlpp.New(&sqlpp.Options{DisableOptimizer: oracle, Compat: compatMode})
			if err := db.RegisterSION("D", `[{'g': 1, 'n': 2}, {'g': 1, 'n': 10}]`); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				q := `SELECT g, ARRAY_AGG(` + c.arg + `) AS m FROM D AS t GROUP BY t.g AS g`
				if got := outcome(db.Query(q)); got != c.want {
					t.Errorf("oracle=%v compat=%v: %s\n  got  %s\n  want %s", oracle, compatMode, q, got, c.want)
				}
			}
		}
	}
}
