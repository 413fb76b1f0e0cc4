package sqlpp_test

// Property battery for the cost-based planner: statistics may only
// change how a query runs, never what it returns. Randomized
// heterogeneous catalogs (mixed-type join keys, NULLs, MISSING fields,
// bags and arrays, secondary indexes) are driven through randomized
// join/filter templates on the production engine and on the reference
// oracle (-no-opt: no pushdown, no hash joins, no reordering, no
// compiled closures); the renderings must be byte-identical. The paper
// listings get the same guarantee in optimizer_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlpp"
	"sqlpp/internal/value"
)

// randPlannerKey yields a heterogeneous join key in a small domain so
// randomized joins actually match across collections — ints and floats
// that collide under join equality, strings, bools, NULL, or MISSING.
func randPlannerKey(rng *rand.Rand) (value.Value, bool) {
	switch rng.Intn(7) {
	case 0, 1:
		return value.Int(int64(rng.Intn(10))), true
	case 2:
		return value.Float(float64(rng.Intn(10))), true
	case 3:
		return value.String(string(rune('a' + rng.Intn(6)))), true
	case 4:
		return value.Bool(rng.Intn(2) == 0), true
	case 5:
		return value.Null, true
	default:
		return nil, false
	}
}

// randCatalog registers 2-3 random collections named c0..c2 on both
// engines: random sizes (occasionally large enough to cross the
// reorder and parallel thresholds), random bag/array shape, key
// attribute k, low-cardinality attribute g, and ordinal v.
func randCatalog(rng *rand.Rand, engines ...*sqlpp.Engine) int {
	ncoll := 2 + rng.Intn(2)
	for ci := 0; ci < ncoll; ci++ {
		// At most the first collection grows large (crossing the reorder
		// and parallel thresholds); a naive nested-loop join of two large
		// relations would dominate the battery's runtime.
		n := 5 + rng.Intn(40)
		if ci == 0 && rng.Intn(3) == 0 {
			n = 300 + rng.Intn(1200)
		}
		elems := make([]value.Value, 0, n)
		for i := 0; i < n; i++ {
			t := value.EmptyTuple()
			t.Put("v", value.Int(int64(i)))
			if k, ok := randPlannerKey(rng); ok {
				t.Put("k", k)
			}
			t.Put("g", value.Int(int64(i%3)))
			elems = append(elems, t)
		}
		var src value.Value
		if rng.Intn(2) == 0 {
			src = value.Bag(elems)
		} else {
			src = value.Array(elems)
		}
		for _, db := range engines {
			if err := db.Register(fmt.Sprintf("c%d", ci), src); err != nil {
				panic(err)
			}
		}
	}
	return ncoll
}

// randPlannerQuery builds a random query shape over c0..c{n-1}:
// comma-joins and JOIN chains on the heterogeneous key, local filters,
// and the occasional aggregate.
func randPlannerQuery(rng *rand.Rand, ncoll int) string {
	switch rng.Intn(6) {
	case 0: // filter only
		return fmt.Sprintf(`SELECT VALUE a.v FROM c0 AS a WHERE a.g = %d`, rng.Intn(3))
	case 1: // range filter
		return `SELECT VALUE a.v FROM c0 AS a WHERE a.v >= 3 AND a.v < 20`
	case 2: // 2-way comma join
		return `SELECT a.v AS av, b.v AS bv FROM c0 AS a, c1 AS b WHERE a.k = b.k`
	case 3: // explicit JOIN with extra local filter
		return fmt.Sprintf(`SELECT a.v AS av, b.v AS bv FROM c0 AS a JOIN c1 AS b ON a.k = b.k WHERE b.g = %d`, rng.Intn(3))
	case 4: // aggregate over a join
		return `SELECT a.g AS g, COUNT(*) AS n FROM c0 AS a, c1 AS b WHERE a.k = b.k GROUP BY a.g`
	default:
		if ncoll < 3 {
			return `SELECT a.v AS av, b.v AS bv FROM c0 AS a, c1 AS b WHERE a.k = b.k`
		}
		// 3-way chain, written in a random (possibly adversarial) order.
		orders := [][3]string{{"c0", "c1", "c2"}, {"c2", "c0", "c1"}, {"c1", "c2", "c0"}}
		o := orders[rng.Intn(len(orders))]
		return fmt.Sprintf(
			`SELECT x.v AS xv, z.v AS zv FROM %s AS x, %s AS y, %s AS z WHERE x.k = y.k AND y.k = z.k`,
			o[0], o[1], o[2])
	}
}

// TestCostBasedIdentityProperty: 200 randomized catalogs x randomized
// query shapes, cost-based execution diffed byte-for-byte against the
// naive clause pipeline. Some trials add secondary indexes so the
// index-vs-scan cost decision is exercised under heterogeneous keys.
func TestCostBasedIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		naive := sqlpp.New(&sqlpp.Options{Parallelism: 1, DisableOptimizer: true})
		costed := sqlpp.New(&sqlpp.Options{Parallelism: 1})
		ncoll := randCatalog(rng, naive, costed)
		if rng.Intn(3) == 0 {
			// Indexes only on the cost-based engine: the veto/keep choice
			// must never show through in results.
			for ci := 0; ci < ncoll; ci++ {
				kind := "hash"
				if rng.Intn(2) == 0 {
					kind = "ordered"
				}
				if err := costed.CreateIndex(fmt.Sprintf("ix%d", ci), fmt.Sprintf("c%d", ci), "k", kind); err != nil {
					t.Fatal(err)
				}
			}
		}
		query := randPlannerQuery(rng, ncoll)
		nv, nerr := naive.Query(query)
		cv, cerr := costed.Query(query)
		if (nerr == nil) != (cerr == nil) {
			t.Fatalf("trial %d: error divergence on %q: %v vs %v", trial, query, nerr, cerr)
		}
		if nerr != nil {
			continue
		}
		if nv.String() != cv.String() {
			t.Fatalf("trial %d: divergence on %q:\n  naive      %s\n  cost-based %s",
				trial, query, nv, cv)
		}
	}
}
