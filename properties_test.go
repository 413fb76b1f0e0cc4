package sqlpp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// queryBattery is a set of SQL++ queries exercised by the property tests
// over the HR shape (id, name, title?, projects).
var queryBattery = []string{
	`SELECT e.id, e.name AS emp_name, e.title AS title FROM emp AS e`,
	`SELECT e.id FROM emp AS e WHERE e.title = 'Manager'`,
	`SELECT e.id FROM emp AS e WHERE e.title IS NULL`,
	`SELECT e.title AS title, COUNT(*) AS n FROM emp AS e GROUP BY e.title`,
	`SELECT e.name AS emp_name, p AS proj FROM emp AS e, e.projects AS p WHERE p LIKE '%Security%'`,
	`FROM emp AS e, e.projects AS p GROUP BY p AS p GROUP AS g
	 SELECT p AS proj, (FROM g AS v SELECT VALUE v.e.name) AS names`,
	`SELECT VALUE e.name FROM emp AS e ORDER BY e.id DESC LIMIT 7`,
	`SELECT COUNT(*) AS n, MIN(e.id) AS lo, MAX(e.id) AS hi FROM emp AS e`,
}

func registerHR(t *testing.T, db *sqlpp.Engine, data value.Value) {
	t.Helper()
	if err := db.Register("emp", data); err != nil {
		t.Fatal(err)
	}
}

// TestQueryStability checks the paper's optional-schema tenet (claim C2):
// the result of a working query does not change when a schema is imposed
// on existing data.
func TestQueryStability(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		data := HR(HROptions{
			N: 60, ScalarProjects: true, AbsentTitleRate: 25, Seed: seed,
		})
		db := sqlpp.New(nil)
		registerHR(t, db, data)
		before := make([]value.Value, len(queryBattery))
		for i, q := range queryBattery {
			v, err := db.Query(q)
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, i, err)
			}
			before[i] = v
		}
		if _, err := db.InferSchema("emp"); err != nil {
			t.Fatal(err)
		}
		for i, q := range queryBattery {
			after, err := db.Query(q)
			if err != nil {
				t.Fatalf("seed %d query %d with schema: %v", seed, i, err)
			}
			if !value.Equivalent(before[i], after) {
				t.Errorf("seed %d: imposing the schema changed query %d:\n  before %s\n  after  %s",
					seed, i, before[i], after)
			}
		}
	}
}

// dropNullAttrs maps a null-style value onto its missing-style image:
// every null-valued tuple attribute disappears.
func dropNullAttrs(v value.Value) value.Value {
	switch x := v.(type) {
	case *value.Tuple:
		out := value.EmptyTuple()
		vals := x.Values()
		for i, name := range x.Names() {
			if vals[i].Kind() == value.KindNull {
				continue
			}
			out.Put(name, dropNullAttrs(vals[i]))
		}
		return out
	case value.Array:
		out := make(value.Array, len(x))
		for i, e := range x {
			out[i] = dropNullAttrs(e)
		}
		return out
	case value.Bag:
		out := make(value.Bag, len(x))
		for i, e := range x {
			out[i] = dropNullAttrs(e)
		}
		return out
	default:
		return v
	}
}

// TestNullMissingGuarantee checks §IV-B's compatibility guarantee as a
// property over generated data: for SQL queries q and null-style data d
// with missing-style image d', running in SQL-compatibility mode,
// q(d') equals q(d) after dropping null-valued attributes from q(d).
func TestNullMissingGuarantee(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nullStyle := HR(HROptions{
			N: 50, ScalarProjects: true, AbsentTitleRate: 40, Seed: seed,
		})
		missingStyle := dropNullAttrs(nullStyle)

		dbNull := sqlpp.New(&sqlpp.Options{Compat: true})
		registerHR(t, dbNull, nullStyle)
		dbMissing := sqlpp.New(&sqlpp.Options{Compat: true})
		registerHR(t, dbMissing, missingStyle)

		for i, q := range queryBattery {
			qd, err := dbNull.Query(q)
			if err != nil {
				t.Fatalf("seed %d q(d) %d: %v", seed, i, err)
			}
			qdPrime, err := dbMissing.Query(q)
			if err != nil {
				t.Fatalf("seed %d q(d') %d: %v", seed, i, err)
			}
			want := dropNullAttrs(qd)
			if !value.Equivalent(want, qdPrime) {
				t.Errorf("seed %d query %d violates the guarantee:\n  q(d) sans nulls: %s\n  q(d'):           %s",
					seed, i, want, qdPrime)
			}
		}
	}
}

// dropNullAttrsSubset drops each null-valued tuple attribute with
// probability 1/2, producing data that mixes null style and missing
// style attribute by attribute.
func dropNullAttrsSubset(r *rand.Rand, v value.Value) value.Value {
	switch x := v.(type) {
	case *value.Tuple:
		out := value.EmptyTuple()
		vals := x.Values()
		for i, name := range x.Names() {
			if vals[i].Kind() == value.KindNull && r.Intn(2) == 0 {
				continue
			}
			out.Put(name, dropNullAttrsSubset(r, vals[i]))
		}
		return out
	case value.Array:
		out := make(value.Array, len(x))
		for i, e := range x {
			out[i] = dropNullAttrsSubset(r, e)
		}
		return out
	case value.Bag:
		out := make(value.Bag, len(x))
		for i, e := range x {
			out[i] = dropNullAttrsSubset(r, e)
		}
		return out
	default:
		return v
	}
}

// TestNullMissingRandomSubset strengthens the §IV-B guarantee (claim C3)
// from the all-or-nothing image to arbitrary mixtures: convert a random
// subset of the null attributes to missing and the query results must
// still agree modulo absent null-valued attributes. Both sides project
// onto the same missing-style image, so
// dropNullAttrs(q(d)) == dropNullAttrs(q(d')) for every battery query.
func TestNullMissingRandomSubset(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed*31 + 7))
		d := HR(HROptions{
			N: 50, ScalarProjects: true, AbsentTitleRate: 40, Seed: seed,
		})
		dPrime := dropNullAttrsSubset(r, d)

		dbD := sqlpp.New(&sqlpp.Options{Compat: true})
		registerHR(t, dbD, d)
		dbPrime := sqlpp.New(&sqlpp.Options{Compat: true})
		registerHR(t, dbPrime, dPrime)

		for i, q := range queryBattery {
			qd, err := dbD.Query(q)
			if err != nil {
				t.Fatalf("seed %d q(d) %d: %v", seed, i, err)
			}
			qdPrime, err := dbPrime.Query(q)
			if err != nil {
				t.Fatalf("seed %d q(d') %d: %v", seed, i, err)
			}
			want, got := dropNullAttrs(qd), dropNullAttrs(qdPrime)
			if !value.Equivalent(want, got) {
				t.Errorf("seed %d query %d violates the subset guarantee:\n  q(d)  sans nulls: %s\n  q(d') sans nulls: %s",
					seed, i, want, got)
			}
		}
	}
}

// TestDeterminism: repeated executions of a prepared query return
// equivalent results.
func TestDeterminism(t *testing.T) {
	db := sqlpp.New(nil)
	registerHR(t, db, HR(HROptions{N: 40, ScalarProjects: true, Seed: 9}))
	for _, q := range queryBattery {
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equivalent(a, b) {
			t.Errorf("query %q not deterministic", q)
		}
	}
}

// TestQueriesDoNotMutateData: executing queries leaves the registered
// values untouched.
func TestQueriesDoNotMutateData(t *testing.T) {
	data := HR(HROptions{N: 30, ScalarProjects: true, AbsentTitleRate: 20, Seed: 4})
	snapshot := value.Clone(data)
	db := sqlpp.New(nil)
	registerHR(t, db, data)
	for _, q := range queryBattery {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := db.Lookup("emp")
	if !value.DeepEqual(snapshot, got) {
		t.Error("query execution mutated the registered data")
	}
}

// TestRandomizedDataNeverPanics: the engine must fail gracefully (or
// succeed) on arbitrary well-formed data, in both typing modes.
func TestRandomizedDataNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	queries := []string{
		`SELECT VALUE x FROM t AS x`,
		`SELECT VALUE 2 * x FROM t AS x`,
		`SELECT VALUE x.a FROM t AS x`,
		`SELECT VALUE y FROM t AS x, x.a AS y`,
		`SELECT VALUE x FROM t AS x ORDER BY x`,
		`SELECT COUNT(*) AS n FROM t AS x GROUP BY x.k`,
		`PIVOT x.v AT x.k FROM t AS x`,
		`SELECT VALUE v FROM t AS x, UNPIVOT x AS v AT n`,
	}
	for i := 0; i < 60; i++ {
		data := randomMess(r, 3)
		for _, strict := range []bool{false, true} {
			db := sqlpp.New(&sqlpp.Options{StopOnError: strict})
			if err := db.Register("t", data); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				_, _ = db.Query(q) // errors fine; panics are not
			}
		}
	}
}

func randomMess(r *rand.Rand, depth int) value.Value {
	max := 8
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63n(100))
	case 3:
		return value.Float(r.NormFloat64())
	case 4:
		return value.String(fmt.Sprintf("s%d", r.Intn(10)))
	case 5:
		out := make(value.Array, r.Intn(5))
		for i := range out {
			out[i] = randomMess(r, depth-1)
		}
		return out
	case 6:
		out := make(value.Bag, r.Intn(5))
		for i := range out {
			out[i] = randomMess(r, depth-1)
		}
		return out
	default:
		tup := value.EmptyTuple()
		for i, n := 0, r.Intn(4); i < n; i++ {
			tup.Put([]string{"a", "k", "v", "x"}[r.Intn(4)], randomMess(r, depth-1))
		}
		return tup
	}
}
