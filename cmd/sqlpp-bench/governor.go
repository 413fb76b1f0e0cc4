package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/bench"
)

// governorReport is the machine-readable artifact of -governor.
type governorReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Scale      int `json:"scale"`
	// Overhead compares ungoverned execution (nil governor, the fast
	// path) with execution under generous budgets that never trip.
	Overhead []governorOverhead `json:"overhead"`
	// Enforcement records each budget kind tripping on a query built to
	// exceed it: the observed error kind must match the budget set.
	Enforcement []governorEnforcement `json:"enforcement"`
}

type governorOverhead struct {
	Name         string  `json:"name"`
	UngovernedNs float64 `json:"ungoverned_ns_per_op"`
	GovernedNs   float64 `json:"governed_ns_per_op"`
	// Overhead is governed-ns / ungoverned-ns: the cost of charging the
	// budgets relative to the nil-governor fast path.
	Overhead float64 `json:"overhead"`
}

type governorEnforcement struct {
	Budget   string `json:"budget"`
	Query    string `json:"query"`
	Kind     string `json:"observed_kind"`
	Limit    int64  `json:"limit"`
	Observed int64  `json:"observed"`
	Pass     bool   `json:"pass"`
}

// runGovernor measures the resource governor: its overhead at budgets
// that never trip (results must be identical to ungoverned runs), and
// each budget kind aborting a query built to exceed it with the right
// typed error. The numbers land in outPath.
func runGovernor(scale int, outPath string) bool {
	fmt.Println("== Resource governor (overhead at generous budgets; enforcement per budget kind) ==")
	mk := func(lim sqlpp.Limits) *sqlpp.Engine {
		db := sqlpp.New(&sqlpp.Options{Parallelism: 1, Limits: lim})
		if err := db.Register("emp", bench.FlatEmp(20000*scale, 20, 42)); err != nil {
			panic(err)
		}
		if err := db.Register("dept", bench.Departments(20, 42)); err != nil {
			panic(err)
		}
		return db
	}
	plain := mk(sqlpp.Limits{})
	generous := mk(sqlpp.Limits{
		MaxOutputRows:        1 << 40,
		MaxMaterializedBytes: 1 << 50,
		MaxDepth:             1 << 20,
		MaxWallTime:          time.Hour,
	})

	report := governorReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Scale: scale}
	failed := false
	queries := []struct{ name, q string }{
		{"scan-filter", `SELECT e.name AS n FROM emp AS e WHERE e.salary > 100000`},
		{"hash-join", `SELECT e.name AS n, d.name AS dn FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`},
		{"group", `SELECT e.deptno AS dno, AVG(e.salary) AS a FROM emp AS e GROUP BY e.deptno`},
		{"top-k", `SELECT VALUE e.name FROM emp AS e ORDER BY e.salary DESC LIMIT 10`},
	}
	for _, tc := range queries {
		pPlain, err := plain.Prepare(tc.q)
		if err != nil {
			fmt.Printf("  %-12s ERROR %v\n", tc.name, err)
			failed = true
			continue
		}
		pGov, err := generous.Prepare(tc.q)
		if err != nil {
			fmt.Printf("  %-12s ERROR %v\n", tc.name, err)
			failed = true
			continue
		}
		vPlain, err1 := pPlain.Exec()
		vGov, err2 := pGov.Exec()
		if err1 != nil || err2 != nil {
			fmt.Printf("  %-12s ERROR plain=%v governed=%v\n", tc.name, err1, err2)
			failed = true
			continue
		}
		if vPlain.String() != vGov.String() {
			fmt.Printf("  %-12s RESULT MISMATCH: governed run changed the result\n", tc.name)
			failed = true
			continue
		}
		runtime.GC()
		ungovRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pPlain.Exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.GC()
		govRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pGov.Exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
		uNs, gNs := float64(ungovRes.NsPerOp()), float64(govRes.NsPerOp())
		overhead := 0.0
		if uNs > 0 {
			overhead = gNs / uNs
		}
		report.Overhead = append(report.Overhead, governorOverhead{
			Name: tc.name, UngovernedNs: uNs, GovernedNs: gNs, Overhead: overhead,
		})
		fmt.Printf("  %-12s ungoverned %12.0f ns/op   governed %12.0f ns/op   (%.3fx)\n",
			tc.name, uNs, gNs, overhead)
	}

	fmt.Println("\n  enforcement:")
	cases := []struct {
		budget string
		lim    sqlpp.Limits
		query  string
	}{
		{"output-rows", sqlpp.Limits{MaxOutputRows: 100},
			`SELECT e.name AS n FROM emp AS e`},
		// Returning the GROUP AS collection is what materializes every
		// row; an aggregate-only GROUP BY streams and retains one state per
		// group.
		{"materialized-values", sqlpp.Limits{MaxMaterializedValues: 100},
			`SELECT dno AS dno, g AS members FROM emp AS e GROUP BY e.deptno AS dno GROUP AS g`},
		{"materialized-bytes", sqlpp.Limits{MaxMaterializedBytes: 4096},
			`SELECT dno AS dno, g AS members FROM emp AS e GROUP BY e.deptno AS dno GROUP AS g`},
		{"nesting-depth", sqlpp.Limits{MaxDepth: 1},
			`SELECT e.name AS n, (SELECT VALUE d.name FROM dept AS d WHERE d.dno = e.deptno) AS dn FROM emp AS e`},
		{"wall-time", sqlpp.Limits{MaxWallTime: time.Millisecond},
			`SELECT COUNT(*) AS n FROM emp AS a, emp AS b WHERE a.salary = b.salary`},
	}
	for _, tc := range cases {
		db := mk(tc.lim)
		_, err := db.Query(tc.query)
		var re *sqlpp.ResourceError
		e := governorEnforcement{Budget: tc.budget, Query: tc.query}
		if errors.As(err, &re) {
			e.Kind = string(re.Kind)
			e.Limit = re.Limit
			e.Observed = re.Observed
			e.Pass = e.Kind == tc.budget
		}
		if !e.Pass {
			failed = true
		}
		status := "PASS"
		if !e.Pass {
			status = fmt.Sprintf("FAIL (err=%v)", err)
		}
		fmt.Printf("  %-22s %s\n", tc.budget, status)
		report.Enforcement = append(report.Enforcement, e)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Println("ERROR encoding report:", err)
		return true
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Println("ERROR writing report:", err)
		return true
	}
	fmt.Printf("\nwrote %s\n\n", outPath)
	return failed
}
