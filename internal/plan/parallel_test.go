package plan

import (
	"fmt"
	"strings"
	"testing"
)

// parallelData builds a SION bag big enough to cross the (lowered)
// parallel threshold, with heterogeneous rows: a dirty string salary
// every 97 rows and a missing title every 13.
func parallelData(n int) map[string]string {
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		salary := fmt.Sprintf("%d", 50000+(i*7919)%150000)
		if i%97 == 96 {
			salary = `'n/a'`
		}
		if i%13 == 12 {
			fmt.Fprintf(&sb, "{'id': %d, 'deptno': %d, 'salary': %s}", i+1, i%17+1, salary)
		} else {
			fmt.Fprintf(&sb, "{'id': %d, 'deptno': %d, 'salary': %s, 'title': 'T%d'}",
				i+1, i%17+1, salary, i%5)
		}
	}
	sb.WriteString("}}")
	return map[string]string{"emp": sb.String()}
}

// lowerParallelThreshold makes the partitioned scan reachable with
// test-sized data and restores the default afterwards.
func lowerParallelThreshold(t *testing.T, rows int) {
	t.Helper()
	old := parallelMinRows
	parallelMinRows = rows
	t.Cleanup(func() { parallelMinRows = old })
}

func TestParallelScanMatchesSequential(t *testing.T) {
	lowerParallelThreshold(t, 64)
	data := parallelData(1500)
	queries := []string{
		// Plain projection: row order must be the sequential one.
		`SELECT e.id AS id, e.salary AS salary FROM emp AS e WHERE e.deptno < 9`,
		// Grouping: first-appearance group order and per-group content
		// order both merge in chunk order.
		`SELECT e.deptno AS dno, COUNT(*) AS n, SUM(e.salary) AS total
		 FROM emp AS e GROUP BY e.deptno`,
		// Hundreds of groups, most first seen in a later chunk: the
		// merge maps a worker's group ordinals into the receiver's.
		`SELECT e.id % 700 AS k, COUNT(*) AS n, SUM(e.salary) AS s, ARRAY_AGG(e.title) AS ts
		 FROM emp AS e GROUP BY e.id % 700`,
		// HAVING filters merged groups.
		`SELECT e.deptno AS dno, COUNT(*) AS n
		 FROM emp AS e GROUP BY e.deptno HAVING COUNT(*) > 80`,
		// DISTINCT: first occurrences across chunk boundaries.
		`SELECT DISTINCT e.title AS title FROM emp AS e`,
		// GROUP AS carries whole groups through the merge.
		`FROM emp AS e GROUP BY e.deptno AS dno GROUP AS g
		 SELECT dno AS dno, (FROM g AS v SELECT VALUE v.e.id) AS ids`,
		// Aggregation over a hash-joined inner side under the parallel
		// outer scan.
		`SELECT e.id AS id, d.tag AS tag FROM emp AS e, tags AS d WHERE e.deptno = d.dno`,
	}
	data["tags"] = `{{ {'dno': 1, 'tag': 'a'}, {'dno': 2, 'tag': 'b'}, {'dno': 3, 'tag': 'c'} }}`
	for _, q := range queries {
		naive, err := exec(t, data, q, false, false)
		if err != nil {
			t.Fatalf("naive %s: %v", q, err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := execPhys(t, data, q, false, workers)
			if err != nil {
				t.Fatalf("parallel(%d) %s: %v", workers, q, err)
			}
			if naive.String() != par.String() {
				t.Errorf("parallel(%d) diverges for %s:\n  sequential %s\n  parallel   %s",
					workers, q, naive, par)
			}
		}
	}
}

// TestParallelStrictModeError: in stop-on-error mode the partitioned
// scan must surface the same error the sequential scan hits first —
// workers scan their chunks in order and the merge takes the first
// failure in chunk order.
func TestParallelStrictModeError(t *testing.T) {
	lowerParallelThreshold(t, 64)
	data := parallelData(1500) // dirty salaries every 97 rows
	q := `SELECT e.id AS id, e.salary * 2 AS double_pay FROM emp AS e`
	_, seqErr := exec(t, data, q, false, true)
	if seqErr == nil {
		t.Fatal("expected the dirty salary to fail in strict mode")
	}
	_, parErr := execPhys(t, data, q, true, 4)
	if parErr == nil {
		t.Fatal("parallel run must fail like the sequential one")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error diverges:\n  sequential %v\n  parallel   %v", seqErr, parErr)
	}
}

// TestParallelBelowThreshold: small scans must take the sequential path
// (done=false fallback) and still produce correct results.
func TestParallelBelowThreshold(t *testing.T) {
	lowerParallelThreshold(t, 1<<30)
	data := parallelData(200)
	q := `SELECT e.deptno AS dno, COUNT(*) AS n FROM emp AS e GROUP BY e.deptno`
	naive, err := exec(t, data, q, false, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := execPhys(t, data, q, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if naive.String() != par.String() {
		t.Errorf("fallback diverges:\n  naive    %s\n  parallel %s", naive, par)
	}
}
