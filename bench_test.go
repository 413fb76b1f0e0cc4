package sqlpp_test

// One benchmark per paper artifact and per claim, regenerating the
// measurements recorded in EXPERIMENTS.md:
//
//	BenchmarkListingXX      — every query listing of the paper
//	BenchmarkGroupAs*       — claim C4 (§V-B efficiency of GROUP AS)
//	BenchmarkCompat*        — claim C1 (SQL compatibility is compile-time)
//	BenchmarkTypingModes*   — claim C6 (permissive vs stop-on-error)
//	BenchmarkNullMissing*   — claim C3's performance corollary
//	BenchmarkUnnestVsJoin*  — first-class-nesting ablation
//	BenchmarkPivot/Unpivot  — §VI reshaping at scale
//	BenchmarkDecode*        — claim C5 decode throughput per format
//	BenchmarkCompile        — parse+rewrite cost in both modes

import (
	"context"
	"fmt"
	"testing"

	"sqlpp"
	"sqlpp/internal/bench"
	"sqlpp/internal/compat"
	"sqlpp/internal/server"
)

// paperDB builds one engine with every paper fixture registered.
func paperDB(b *testing.B, compatMode bool) *sqlpp.Engine {
	b.Helper()
	db := sqlpp.New(&sqlpp.Options{Compat: compatMode})
	fixtures := map[string]string{
		"hr.emp_nest_tuples":  compat.EmpNestTuples,
		"hr.emp_nest_scalars": compat.EmpNestScalars,
		"hr.emp_null":         compat.EmpNull,
		"hr.emp_missing":      compat.EmpMissing,
		"hr.emp":              compat.EmpFlat,
		"closing_prices":      compat.ClosingPrices,
		"today_stock_prices":  compat.TodayStockPrices,
		"stock_prices":        compat.StockPrices,
		"emp_mixed":           compat.EmpMixed,
	}
	for name, src := range fixtures {
		if err := db.RegisterSION(name, src); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchQuery measures executing a prepared query.
func benchQuery(b *testing.B, db *sqlpp.Engine, query string) {
	b.Helper()
	p, err := db.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper listings, one benchmark each (Listing number = paper table/
// figure identifier).

func BenchmarkListing02NestedTuples(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.name AS emp_name, p.name AS proj_name
		FROM hr.emp_nest_tuples AS e, e.projects AS p
		WHERE p.name LIKE '%Security%'`)
}

func BenchmarkListing04NestedScalars(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.name AS emp_name, p AS proj_name
		FROM hr.emp_nest_scalars AS e, e.projects AS p
		WHERE p LIKE '%Security%'`)
}

func BenchmarkListing08MissingWhere(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.id, e.name AS emp_name, e.title AS title
		FROM hr.emp_missing AS e
		WHERE e.title = 'Manager'`)
}

func BenchmarkListing09CaseMissing(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.id, e.name AS emp_name,
		       CASE WHEN e.title LIKE 'Chief %' THEN 'Executive'
		            ELSE 'Worker' END AS category
		FROM hr.emp_missing AS e`)
}

func BenchmarkListing10NestedSelectValue(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.id AS id, e.name AS emp_name, e.title AS emp_title,
		       (SELECT VALUE p FROM e.projects AS p
		        WHERE p LIKE '%Security%') AS security_proj
		FROM hr.emp_nest_scalars AS e`)
}

func BenchmarkListing12GroupAs(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		FROM hr.emp_nest_scalars AS e, e.projects AS p
		WHERE p LIKE '%Security%'
		GROUP BY LOWER(p) AS p GROUP AS g
		SELECT p AS proj_name,
		       (FROM g AS v SELECT VALUE v.e.name) AS employees`)
}

func BenchmarkListing15SQLAggregate(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT AVG(e.salary) AS avgsal
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'`)
}

func BenchmarkListing16CoreAggregate(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		{{ {'avgsal': COLL_AVG(SELECT VALUE e.salary
		                       FROM hr.emp AS e
		                       WHERE e.title = 'Engineer')} }}`)
}

func BenchmarkListing17SQLGroupedAggregate(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT e.deptno, AVG(e.salary) AS avgsal
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'
		GROUP BY e.deptno`)
}

func BenchmarkListing18CoreGroupedAggregate(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'
		GROUP BY e.deptno AS d GROUP AS g
		SELECT VALUE {'deptno': d,
		              'avgsal': COLL_AVG(FROM g AS gi SELECT gi.e.salary)}`)
}

func BenchmarkListing20Unpivot(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT c."date" AS "date", sym AS symbol, price AS price
		FROM closing_prices AS c, UNPIVOT c AS price AT sym
		WHERE NOT sym = 'date'`)
}

func BenchmarkListing22UnpivotAggregate(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT sym AS symbol, AVG(price) AS avg_price
		FROM closing_prices c, UNPIVOT c AS price AT sym
		WHERE NOT sym = 'date'
		GROUP BY sym`)
}

func BenchmarkListing24Pivot(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		PIVOT sp.price AT sp.symbol FROM today_stock_prices sp`)
}

func BenchmarkListing26GroupPivot(b *testing.B) {
	benchQuery(b, paperDB(b, false), `
		SELECT sp."date" AS "date",
		       (PIVOT dp.sp.price AT dp.sp.symbol
		        FROM dates_prices AS dp) AS prices
		FROM stock_prices AS sp
		GROUP BY sp."date" GROUP AS dates_prices`)
}

// Claim benchmarks.

func benchVariant(b *testing.B, v bench.Variant) {
	b.Helper()
	p, err := v.DB.Prepare(v.Query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := p.Exec()
		if v.ExpectError {
			if err == nil {
				b.Fatal("expected the query to fail")
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchExperiment(b *testing.B, exp bench.Experiment) {
	b.Helper()
	for _, v := range exp.Variants {
		variant := v
		b.Run(v.Name, func(b *testing.B) { benchVariant(b, variant) })
	}
}

func BenchmarkGroupAsVsNestedSubquery(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		exp := bench.GroupAsExperiment(n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { benchExperiment(b, exp) })
	}
}

func BenchmarkCompatOverhead(b *testing.B) {
	benchExperiment(b, bench.CompatOverheadExperiment(10000))
}

func BenchmarkTypingModes(b *testing.B) {
	benchExperiment(b, bench.TypingModesExperiment(10000, 20))
}

func BenchmarkNullVsMissing(b *testing.B) {
	benchExperiment(b, bench.NullMissingExperiment(10000))
}

func BenchmarkUnnestVsJoin(b *testing.B) {
	benchExperiment(b, bench.UnnestVsJoinExperiment(300))
}

func BenchmarkPivotUnpivotScale(b *testing.B) {
	benchExperiment(b, bench.PivotUnpivotExperiment(100, 50))
}

// Physical-optimizer benchmarks: each experiment's first variant is the
// naive/sequential baseline (see EXPERIMENTS.md and BENCH_joins.json).

func BenchmarkHashJoin(b *testing.B) {
	benchExperiment(b, bench.HashJoinExperiment(1000))
}

func BenchmarkPushdown(b *testing.B) {
	benchExperiment(b, bench.PushdownExperiment(5000))
}

func BenchmarkParallelScan(b *testing.B) {
	benchExperiment(b, bench.ParallelScanExperiment(100000))
}

// Claim C5: decode throughput per format over identical data.
func BenchmarkDecode(b *testing.B) {
	payload, err := bench.BuildFormatPayload(50, 20)
	if err != nil {
		b.Fatal(err)
	}
	sizes := map[string]int{
		"sion": len(payload.SION), "json": len(payload.JSON),
		"cbor": len(payload.CBOR), "csv": len(payload.CSV),
	}
	for _, format := range []string{"sion", "json", "cbor", "csv"} {
		f := format
		b.Run(f, func(b *testing.B) {
			b.SetBytes(int64(sizes[f]))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.DecodeFormat(payload, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Window functions at scale (the §V-B compatibility claim).
func BenchmarkWindowFunctions(b *testing.B) {
	db := sqlpp.New(nil)
	if err := db.Register("emp", bench.FlatEmp(10000, 20, 42)); err != nil {
		b.Fatal(err)
	}
	p, err := db.Prepare(`
		SELECT e.name AS name,
		       RANK() OVER (PARTITION BY e.deptno ORDER BY e.salary DESC) AS r
		FROM emp AS e`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// Plan cache: the query service's hot path. "cold" pays the full
// lex/parse/rewrite/resolve compile on every execution; "hit" fetches
// the compiled plan from the LRU cache and only executes. The gap is
// what the cache buys every repeated API query.
func BenchmarkPlanCache(b *testing.B) {
	db := paperDB(b, false)
	query := `
		SELECT e.deptno, AVG(e.salary) AS avgsal
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'
		GROUP BY e.deptno`
	opts := db.Options()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := db.Prepare(query)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		cache := server.NewPlanCache(16)
		key := server.CacheKey(opts, nil, query)
		p, err := db.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		cache.Put(key, server.Plan{Prepared: p})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, ok := cache.Get(key)
			if !ok {
				b.Fatal("cache miss")
			}
			if _, err := plan.Prepared.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// EXPLAIN ANALYZE overhead: the same prepared queries executed plain
// (nil stats sink — the fast path every normal query takes) and
// instrumented (a full per-operator stats tree). The disabled variants
// must stay within noise of the pre-instrumentation numbers: every
// instrumentation site is one pointer test when the sink is nil.
func BenchmarkExplainOverhead(b *testing.B) {
	db := sqlpp.New(&sqlpp.Options{Parallelism: 1})
	if err := db.Register("emp", bench.FlatEmp(20000, 20, 42)); err != nil {
		b.Fatal(err)
	}
	if err := db.Register("dept", bench.Departments(20, 42)); err != nil {
		b.Fatal(err)
	}
	queries := []struct{ name, q string }{
		{"scan-filter", `SELECT e.name AS n FROM emp AS e WHERE e.salary > 100000`},
		{"hash-join", `SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`},
		{"group", `SELECT e.deptno AS dno, AVG(e.salary) AS a FROM emp AS e GROUP BY e.deptno`},
		{"top-k", `SELECT VALUE e.name FROM emp AS e ORDER BY e.salary DESC LIMIT 10`},
	}
	for _, tc := range queries {
		p, err := db.Prepare(tc.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("disabled/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("analyze/"+tc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.ExplainAnalyze(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Compile cost: parsing + rewriting, the only place the compatibility
// flag is allowed to cost anything (claim C1).
// BenchmarkSemaOverhead prices the static analyzer along the three
// paths a caller can hit: plain Prepare (vet off — must cost exactly
// what it did before the analyzer existed), Prepare under Options.Vet
// (analysis folded into compilation), and Diagnostics() on an
// already-analyzed query (the plan-cache hit path, a slice copy).
func BenchmarkSemaOverhead(b *testing.B) {
	query := `
		SELECT e.deptno, AVG(e.salary) AS avgsal
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'
		GROUP BY e.deptno
		ORDER BY avgsal DESC LIMIT 5`
	plain := paperDB(b, true)
	opts := plain.Options()
	opts.Vet = true
	vetted := plain.WithOptions(opts)

	b.Run("prepare-novet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plain.Prepare(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare-vet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vetted.Prepare(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diagnostics-cached", func(b *testing.B) {
		p, err := vetted.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Diagnostics()
		}
	})
}

func BenchmarkCompile(b *testing.B) {
	query := `
		SELECT e.deptno, AVG(e.salary) AS avgsal
		FROM hr.emp AS e
		WHERE e.title = 'Engineer'
		GROUP BY e.deptno
		ORDER BY avgsal DESC LIMIT 5`
	for _, mode := range []string{"core", "compat"} {
		db := paperDB(b, mode == "compat")
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Prepare(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
