package sqlpp_test

// Identity battery for the streaming GROUP BY: a block whose group
// collection is only ever folded runs as a hash aggregate, and must
// return exactly what the materializing pipeline returns — value for
// value, error text for error text — under both typing modes, with and
// without SQL compatibility, at every Parallelism. The oracle is the
// engine with DisableOptimizer, which has no physical plan and therefore
// always materializes the group and runs each COLL_* call as a subquery
// over it.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// streamQueries are templates over a collection t of rows
// {k, x, b, n: {a, b: {c}}} with every attribute heterogeneous or absent
// at random. Between them they use every aggregate, SQL sugar and the
// paper's explicit Core form, HAVING and ORDER BY on aggregates,
// duplicated calls, filtered folds, several keys with a LET, a window
// over aggregates, aggregate-only blocks (over empty input, too), two
// folds whose arguments print alike unless precedence is honoured, and a
// PIVOT whose groups share attribute names.
var streamQueries = []string{
	`SELECT r.k AS k, COUNT(*) AS c, COUNT(r.x) AS cx, SUM(r.x) AS s, AVG(r.x) AS a, MIN(r.x) AS mn, MAX(r.x) AS mx FROM t AS r GROUP BY r.k`,
	`SELECT r.k AS k, EVERY(r.b) AS ev, SOME(r.b) AS sm, ANY(r.b) AS an, ARRAY_AGG(r.x) AS xs FROM t AS r GROUP BY r.k`,
	`SELECT r.k AS k, SUM(r.n.a) AS s FROM t AS r GROUP BY r.k HAVING COUNT(*) > 1 ORDER BY SUM(r.n.a) DESC, COUNT(*), k`,
	`SELECT SUM(r.x) AS s1, SUM(r.x) + COUNT(*) AS s2, COUNT(*) AS c, CASE WHEN COUNT(*) > 2 THEN MAX(r.n.b.c) ELSE MAX(r.n.b.c) END AS m FROM t AS r GROUP BY r.k`,
	`FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, COLL_SUM(SELECT VALUE v.r.x FROM g AS v WHERE v.r.x > 0 AND v.r.b) AS pos, COLL_COUNT(g) AS c, COLL_MAX(FROM g AS v SELECT VALUE v.r.n.b.c) AS m, COLL_AVG(FROM g AS gi SELECT gi.r.x) AS a`,
	`SELECT COUNT(*) AS c, SUM(r.x) AS s, MIN(r.x) AS mn, ARRAY_AGG(r.k) AS ks, EVERY(r.b) AS ev FROM t AS r WHERE r.n.a > 1000000`,
	`SELECT COUNT(*) AS c, AVG(r.x) AS a, MAX(r.k) AS mk FROM t AS r`,
	`SELECT r.k AS k, SUM(r.x * 2) AS s, MAX(r.n.a + r.x) AS m FROM t AS r GROUP BY r.k HAVING COUNT(r.x) >= 1`,
	`SELECT k1 AS k1, k2 AS k2, COUNT(*) AS c, SUM(y) AS s FROM t AS r LET y = r.n.a GROUP BY r.k AS k1, r.b AS k2 ORDER BY c DESC, s`,
	`SELECT r.k AS k, SUM(r.x) AS s, RANK() OVER (ORDER BY COUNT(*) DESC) AS rk FROM t AS r GROUP BY r.k`,
	`SELECT VALUE COUNT(*) FROM t AS r GROUP BY r.b`,
	`SELECT r.k AS k, SUM((-r.n).a) AS s1, SUM(-(r.n.a)) AS s2 FROM t AS r GROUP BY r.k`,
	`PIVOT SUM(r.x) AT CASE WHEN k = TRUE THEN 'yes' ELSE 'no' END FROM t AS r GROUP BY r.b AS k`,
}

func randStreamRow(rng *rand.Rand, i int) value.Value {
	t := value.EmptyTuple()
	switch rng.Intn(8) {
	case 0, 1, 2:
		t.Put("k", value.Int(int64(rng.Intn(5))))
	case 3:
		t.Put("k", value.Float(float64(rng.Intn(5))))
	case 4:
		t.Put("k", value.String(string(rune('a'+rng.Intn(3)))))
	case 5:
		t.Put("k", value.Null)
	case 6:
		t.Put("k", value.Bool(rng.Intn(2) == 0))
	}
	switch rng.Intn(12) {
	case 0, 1, 2, 3:
		t.Put("x", value.Int(int64(rng.Intn(2000)-1000)))
	case 4:
		t.Put("x", value.Int(math.MaxInt64-int64(rng.Intn(3))))
	case 5, 6:
		// Magnitudes that make naive float addition order-dependent.
		t.Put("x", value.Float([]float64{1e16, -1e16, 1, 0.1, 1e-3, 3.5, -2.25}[rng.Intn(7)]))
	case 7:
		t.Put("x", value.Float(rng.NormFloat64()*1e9))
	case 8:
		t.Put("x", value.Null)
	case 9:
		if rng.Intn(4) == 0 { // a type fault for SUM/AVG, an error in strict mode
			t.Put("x", value.String("n/a"))
		} else {
			t.Put("x", value.Int(int64(i)))
		}
	case 10:
		if rng.Intn(4) == 0 {
			t.Put("x", value.NewTuple(value.Field{Name: "v", Value: value.Int(7)}))
		}
	}
	switch rng.Intn(10) {
	case 0:
		t.Put("b", value.Null)
	case 1:
		if rng.Intn(3) == 0 {
			t.Put("b", value.Int(1))
		}
	case 2:
	default:
		t.Put("b", value.Bool(rng.Intn(4) != 0))
	}
	if rng.Intn(5) != 0 {
		inner := value.EmptyTuple()
		inner.Put("c", value.Float(float64(rng.Intn(100))/4))
		n := value.EmptyTuple()
		n.Put("a", value.Int(int64(rng.Intn(50))))
		if rng.Intn(4) != 0 {
			n.Put("b", inner)
		}
		t.Put("n", n)
	}
	return t
}

type streamArm struct {
	strict, compat bool
	parallelism    int
}

func (a streamArm) String() string {
	return fmt.Sprintf("strict=%v compat=%v parallelism=%d", a.strict, a.compat, a.parallelism)
}

func outcome(v value.Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return v.String()
}

func TestStreamAggIdentityProperty(t *testing.T) {
	rounds := 220
	if testing.Short() {
		rounds = 40
	}
	streamed, parallel := 0, 0
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(9000 + round)))
		n := rng.Intn(60)
		if round%5 == 4 { // enough rows for a parallel scan to split
			n = 1100 + rng.Intn(500)
		}
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = randStreamRow(rng, i)
		}
		var src value.Value = value.Bag(elems)
		if rng.Intn(2) == 0 {
			src = value.Array(elems)
		}
		for _, strict := range []bool{false, true} {
			for _, compat := range []bool{false, true} {
				oracle := sqlpp.New(&sqlpp.Options{StopOnError: strict, Compat: compat, DisableOptimizer: true})
				if err := oracle.Register("t", src); err != nil {
					t.Fatal(err)
				}
				want := make([]string, len(streamQueries))
				for qi, q := range streamQueries {
					want[qi] = outcome(oracle.Query(q))
				}
				for _, par := range []int{1, 2, 4} {
					arm := streamArm{strict, compat, par}
					db := sqlpp.New(&sqlpp.Options{StopOnError: strict, Compat: compat, Parallelism: par})
					if err := db.Register("t", src); err != nil {
						t.Fatal(err)
					}
					for qi, q := range streamQueries {
						p, err := db.Prepare(q)
						if err != nil {
							if got := "error: " + err.Error(); got != want[qi] {
								t.Fatalf("round %d [%s] %s:\n  prepare %s\n  oracle  %s", round, arm, q, got, want[qi])
							}
							continue
						}
						notes := strings.Join(p.PlanNotes(), "; ")
						if !strings.Contains(notes, "stream-agg(") {
							t.Fatalf("round %d [%s] %s: block did not stream: %s", round, arm, q, notes)
						}
						streamed++
						if par > 1 && strings.Contains(notes, "parallel-scan(") {
							parallel++ // workers fold partial accumulators, merged in chunk order
						}
						if got := outcome(p.Exec()); got != want[qi] {
							t.Fatalf("round %d [%s] n=%d %s:\n  streamed %s\n  oracle   %s", round, arm, n, q, got, want[qi])
						}
					}
				}
			}
		}
	}
	if streamed == 0 || parallel == 0 {
		t.Fatalf("%d streamed executions, %d of them under a parallel scan: the battery is vacuous", streamed, parallel)
	}
}

// TestPivotAggregateIsImplicitGroup: an aggregate in a PIVOT's value
// groups the whole input as in a SELECT, and the fold streams.
func TestPivotAggregateIsImplicitGroup(t *testing.T) {
	const data = `{{ {'x': 1}, {'x': 2}, {'x': 3} }}`
	const query = `PIVOT COUNT(*) AT 'n' FROM t AS r`
	for _, oracle := range []bool{false, true} {
		db := sqlpp.New(&sqlpp.Options{DisableOptimizer: oracle})
		if err := db.RegisterSION("t", data); err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(query)
		if err != nil {
			t.Fatalf("oracle=%v: %v", oracle, err)
		}
		if notes := strings.Join(p.PlanNotes(), "; "); !oracle && !strings.Contains(notes, "stream-agg(1)") {
			t.Errorf("fold did not stream: %s", notes)
		}
		if got, want := outcome(p.Exec()), "{'n': 3}"; got != want {
			t.Errorf("oracle=%v: got %s, want %s", oracle, got, want)
		}
	}
}

// TestStreamAggKeepsGroupAsMaterialized: any use of the group variable
// other than as the argument of a fold needs the collection itself, so
// the block keeps the materializing operator (and says why).
func TestStreamAggKeepsGroupAsMaterialized(t *testing.T) {
	db := sqlpp.New(nil)
	if err := db.RegisterSION("t", `{{ {'k': 1, 'x': 10}, {'k': 1, 'x': 20}, {'k': 2, 'x': 30} }}`); err != nil {
		t.Fatal(err)
	}
	oracle := sqlpp.New(&sqlpp.Options{DisableOptimizer: true})
	if err := oracle.RegisterSION("t", `{{ {'k': 1, 'x': 10}, {'k': 1, 'x': 20}, {'k': 2, 'x': 30} }}`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, query, note string }{
		{"returned", `FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, g AS members, COLL_COUNT(g) AS c`, "group-materialize(g)"},
		{"joined", `FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, (SELECT VALUE a.r.x + b.r.x FROM g AS a, g AS b) AS pairs`, "group-materialize(subquery over g)"},
		{"non-fold function", `FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, CARDINALITY(g) AS c, COLL_SUM(SELECT VALUE v.r.x FROM g AS v) AS s`, "group-materialize(CARDINALITY(g))"},
		{"whole element", `FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, COLL_ARRAY_AGG(SELECT VALUE v FROM g AS v) AS rows`, "group-materialize(subquery over g)"},
		{"distinct", `SELECT r.k AS k, COUNT(DISTINCT r.x) AS c FROM t AS r GROUP BY r.k`, "group-materialize(subquery over "},
		{"select star", `SELECT * FROM t AS r GROUP BY r.k AS k`, "group-materialize("},
		{"pivot over the group", `FROM t AS r GROUP BY r.k AS k GROUP AS g SELECT k AS k, COLL_COUNT(PIVOT v.r.x AT 'x' FROM g AS v) AS c`, "group-materialize(subquery over g)"},
	} {
		p, err := db.Prepare(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		notes := strings.Join(p.PlanNotes(), "; ")
		if !strings.Contains(notes, c.note) || strings.Contains(notes, "stream-agg") {
			t.Errorf("%s: notes %q, want %q and no stream-agg", c.name, notes, c.note)
		}
		if got, want := outcome(p.Exec()), outcome(oracle.Query(c.query)); got != want {
			t.Errorf("%s:\n  got    %s\n  oracle %s", c.name, got, want)
		}
	}
}

// TestSumOverflowRegression: SUM used to wrap silently on int64
// overflow. Through every route — the COLL_ function, SQL SUM,
// sequential and parallel folds — the total now widens to Float.
func TestSumOverflowRegression(t *testing.T) {
	const want = "9.223372036854776e+18"
	rows := make([]value.Value, 0, 2048)
	for i := 0; i < 2047; i++ {
		rows = append(rows, value.NewTuple(value.Field{Name: "x", Value: value.Int(0)}))
	}
	rows = append(rows, value.NewTuple(value.Field{Name: "x", Value: value.Int(1)}))
	rows[0] = value.NewTuple(value.Field{Name: "x", Value: value.Int(math.MaxInt64)})
	for _, strict := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			db := sqlpp.New(&sqlpp.Options{StopOnError: strict, Parallelism: par})
			if err := db.Register("t", value.Bag(rows)); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				`SELECT VALUE COLL_SUM([9223372036854775807, 1])`,
				`SELECT VALUE SUM(r.x) FROM t AS r`,
				`SELECT VALUE s FROM (SELECT SUM(r.x) AS s FROM t AS r GROUP BY r.x < 0) AS q`,
			} {
				v, err := db.Query(q)
				if err != nil {
					t.Fatalf("strict=%v parallelism=%d %s: %v", strict, par, q, err)
				}
				if got := v.String(); got != "{{"+want+"}}" {
					t.Errorf("strict=%v parallelism=%d %s = %s, want {{%s}}", strict, par, q, got, want)
				}
			}
		}
	}
}

// TestIntegerOverflowWidens: scalar integer arithmetic used to wrap
// silently at the int64 edges. On the production path and on the oracle,
// in both typing modes, a result that does not fit widens to Float (as
// COLL_SUM does) and one that fits stays an exact Int.
func TestIntegerOverflowWidens(t *testing.T) {
	const max, min = math.MaxInt64, math.MinInt64
	cases := []struct {
		expr string
		a, b int64
		want string
	}{
		{"r.a + r.b", max, 1, "9.223372036854776e+18"},
		{"r.a + r.b", min, -1, "-9.223372036854776e+18"},
		{"r.a + r.b", max, min, "-1"},
		{"r.a + r.b", max - 1, 1, "9223372036854775807"},
		{"r.a - r.b", min, 1, "-9.223372036854776e+18"},
		{"r.a - r.b", max, -1, "9.223372036854776e+18"},
		{"r.a - r.b", -1, min, "9223372036854775807"},
		{"r.a - r.b", 0, min, "9.223372036854776e+18"},
		{"r.a - r.b", min + 1, 1, "-9223372036854775808"},
		{"r.a * r.b", max, 2, "1.8446744073709552e+19"},
		{"r.a * r.b", min, -1, "9.223372036854776e+18"},
		{"r.a * r.b", -1, min, "9.223372036854776e+18"},
		{"r.a * r.b", min, 2, "-1.8446744073709552e+19"},
		{"r.a * r.b", min, 1, "-9223372036854775808"},
		{"r.a * r.b", max, -1, "-9223372036854775807"},
		{"r.a * r.b", 3037000500, 3037000500, "9.22337203700025e+18"},
		{"r.a * r.b", 3037000499, 3037000499, "9223372030926249001"},
		{"r.a / r.b", min, -1, "9.223372036854776e+18"},
		{"r.a / r.b", min, 1, "-9223372036854775808"},
		{"r.a / r.b", max, -1, "-9223372036854775807"},
		{"r.a % r.b", min, -1, "0"},
		{"-r.a", min, 0, "9.223372036854776e+18"},
		{"-r.a", max, 0, "-9223372036854775807"},
		{"-r.a", min + 1, 0, "9223372036854775807"},
	}
	for _, strict := range []bool{false, true} {
		for _, oracle := range []bool{false, true} {
			db := sqlpp.New(&sqlpp.Options{StopOnError: strict, DisableOptimizer: oracle})
			for _, c := range cases {
				row := value.NewTuple(value.Field{Name: "a", Value: value.Int(c.a)}, value.Field{Name: "b", Value: value.Int(c.b)})
				if err := db.Register("t", value.Bag{row}); err != nil {
					t.Fatal(err)
				}
				got := outcome(db.Query("SELECT VALUE " + c.expr + " FROM t AS r"))
				if got != "{{"+c.want+"}}" {
					t.Errorf("strict=%v oracle=%v: %s with a=%d b=%d = %s, want {{%s}}", strict, oracle, c.expr, c.a, c.b, got, c.want)
				}
			}
		}
	}
}
